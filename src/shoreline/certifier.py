"""Numerical certificates for competitive-ratio lower bounds.

Each certificate freezes the fleet at one snapshot time d and exhibits a
concrete line the fleet cannot have hit yet, so the bound is sound for that
fleet regardless of grid choices.  Three constructions, by fleet size:

* n >= 4: at time d the robots occupy at most n directions, so some cone of
  half-angle just under pi/n contains none of them.  A line crossing the
  cone a hair beyond distance d cannot have been visited: reaching any of
  its points from the cone complement and returning outside would have cost
  more than d (reflection inequality).  Bound 1/cos(half_angle).
* n = 3: the empty cone has half-angle pi/3; placing the line through two
  points on the cone boundary at distance (1/sqrt3 + eps')d from the origin
  gives bound sqrt3 / (1 + sqrt3 * eps').
* n = 2 (and a lone robot): within time d a robot ending at R can only have
  visited points P with OP + PR <= d, an ellipse with foci O and R.  With
  robot 1 rotated onto the positive x-axis and robot 2 reflected into the
  upper half-plane, neither ellipse dips below y = -d/2, so the line at
  y = -(1/2 + zeta)d is unvisited.  Bound (3/2 + zeta)/(1/2 + zeta) -> 3.

The reflection inequality, the ellipse as the reachable set and the line
missing every ellipse hold in closed form (omb_minimum, a focal identity and
discriminant_max give the proofs), and lemma_suite checks them, so the
per-fleet certificates can lean on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Cone, Line, Point2, max_angular_gap, normalize_angle
from .trajectory import Fleet, position

SQRT3 = math.sqrt(3.0)
# Slack for an angular gap that meets its target exactly (symmetric fleets).
GAP_SLACK = 1e-12

DEFAULT_GAMMA = 1e-6
DEFAULT_EPS = 1e-6
DEFAULT_ZETA = 1e-6


@dataclass
class ConeCertificate:
    cone: Cone
    snapshot_time: float
    bound: float
    witness_line: Line
    n: int = 0
    bound_limit: float = math.inf
    degenerate: bool = False
    params: dict = field(default_factory=dict)
    robot_positions: tuple[tuple[float, float], ...] = ()


def omb_minimum(phi: float, *, allow_beyond_hypothesis: bool = False
                ) -> tuple[float, float, tuple[Point2, Point2]]:
    """Minimum of OK + KL - OB over the right triangle with apex angle phi.

    O is the origin, M = (cos phi, 0) the foot of the altitude and B =
    (cos phi, sin phi), so OB = 1.  For K = M + s(B - M) on MB the nearest L
    on OB is the orthogonal projection L = vB, v = cos^2 phi + s sin^2 phi
    in [cos^2 phi, 1], at KL = cos phi sin phi (1 - s).  The excess
    g(s) = hypot(cos phi, s sin phi) + cos phi sin phi (1 - s) - 1 is convex,
    with slope s sin^2 phi / hypot(cos phi, s sin phi) - cos phi sin phi
    vanishing at s* = cot^2 phi, so its minimum over [0, 1] is at
    min(1, s*): a slope <= 0 there (up to rounding) certifies it.  For
    phi <= pi/4, s* >= 1 and g(1) = 0, which is OK + KL >= OB.  Returns
    the minimum, the slope there and (K, L).  Larger apex angles are
    rejected unless allow_beyond_hypothesis is set (they make a useful
    negative control, the minimum goes negative there).
    """
    if not 0.0 < phi <= math.pi / 4.0 and not allow_beyond_hypothesis:
        raise ValueError("lemma hypothesis violated: need 0 < phi <= pi/4")
    if not 0.0 < phi < math.pi / 2.0:
        raise ValueError("phi must lie in (0, pi/2)")
    cphi, sphi = math.cos(phi), math.sin(phi)
    s = min(1.0, cphi / sphi) ** 2  # min(1, s*), without overflow as phi -> 0
    ok = math.hypot(cphi, s * sphi)
    excess = ok + cphi * sphi * (1.0 - s) - 1.0
    v = 1.0 - (1.0 - s) * sphi * sphi  # cos^2 + s sin^2, exactly 1 at s = 1
    k, l = Point2(cphi, s * sphi), Point2(v * cphi, v * sphi)
    return excess, s * sphi * sphi / ok - cphi * sphi, (k, l)


def cone_exit_objective(lam: float) -> float:
    """Escape cost f(lam) = 0.5*sqrt(3 lam^2 + 1) + (sqrt3/4)(1 - lam).

    Length of the cheapest path that exits a 30-degree half-angle cone at
    parameter lam along its axis and then covers the remaining distance to
    the far line.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return 0.5 * math.sqrt(3.0 * lam * lam + 1.0) + (SQRT3 / 4.0) * (1.0 - lam)


def _cone_exit_slope(lam: float) -> float:
    return 3.0 * lam / (2.0 * math.sqrt(3.0 * lam * lam + 1.0)) - SQRT3 / 4.0


def min_cone_exit() -> tuple[float, float]:
    """Minimizer of cone_exit_objective over [0, 1] and its value, in closed form.

    The slope 3 lam / (2 sqrt(3 lam^2 + 1)) - sqrt3/4 vanishes at lam = 1/3,
    where f = sqrt3/2; f'' = 3 / (2 (3 lam^2 + 1)^(3/2)) > 0, so that is the
    minimum over all of [0, 1].  The cone-exit lemma suite certifies it by
    the slope's sign either side.
    """
    lam = 1.0 / 3.0
    return lam, cone_exit_objective(lam)


def _cone_in_gap(angles: list[float], half_angle: float, gamma: float) -> Cone | None:
    """A cone of the half-angle, gamma clear of every direction, or None."""
    gap, bisector = max_angular_gap(angles)
    if gap + GAP_SLACK < 2.0 * half_angle + 2.0 * gamma:
        return None
    return Cone(bisector, half_angle)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def snapshot_lower_bound(fleet: Fleet, d: float, gamma: float = DEFAULT_GAMMA, *,
                         eps: float = DEFAULT_EPS, zeta: float = DEFAULT_ZETA,
                         origin_tol: float | None = None) -> ConeCertificate:
    """Certified CR lower bound from the fleet's positions at time d.

    eps plays the role of the vanishing offset in the n >= 3 constructions
    (taken relative to d) and zeta the offset below y = -d/2 for n <= 2; the
    certificate's bound uses the finite values while bound_limit records the
    eps -> 0 supremum.  Robots within origin_tol (default 1e-9 d) of the
    origin give no direction: such a robot still needs the full line offset
    to reach the witness, so the bound survives.  d must be a normal float.
    """
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"snapshot time d must be finite and positive, got {d!r}")
    if d < (tiny := float(np.finfo(float).tiny)):  # a subnormal d rounds off the witness
        raise ValueError(f"snapshot time d {d!r} is below the least normal float {tiny!r}")
    for name, value in (("gamma", gamma), ("eps", eps), ("zeta", zeta)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    n = len(fleet)
    if origin_tol is None:
        origin_tol = 1e-9 * d
    pos = tuple(position(r, float(d)) for r in fleet.robots)
    radii = [math.hypot(x, y) for x, y in pos]
    angles = [math.atan2(y, x) for (x, y), rad in zip(pos, radii) if rad > origin_tol]

    degenerate = not angles
    if degenerate:
        # Nobody has left the origin: no line within distance d is hit yet.
        cone = Cone(0.0, math.pi)
        witness = Line(0.0, float(d))
        bound = limit = math.inf
    elif n >= 4:
        half = math.pi / n - gamma
        if not 0.0 < half <= math.pi / 4.0:
            raise ValueError("gamma leaves no usable cone half-angle")
        cone = _cone_in_gap(angles, half, gamma)
        if cone is None:  # pigeonhole over <= n directions; cannot happen
            raise AssertionError("empty cone must exist for n robots")
        witness = Line(cone.bisector, d * (1.0 + eps) * math.cos(half))
        bound, limit = 1.0 / math.cos(half), 1.0 / math.cos(math.pi / n)
    elif n == 3:
        cone = _cone_in_gap(angles, math.pi / 3.0, 0.0)
        if cone is None:
            raise AssertionError("empty cone must exist for 3 robots")
        witness = Line(cone.bisector, d * (1.0 / SQRT3 + eps))
        bound, limit = SQRT3 / (1.0 + SQRT3 * eps), SQRT3
    else:
        # n <= 2: reachable-ellipse argument.  Rotate robot 1 onto the positive
        # x-axis; with two robots reflect so robot 2 ends in the upper half-plane.
        r1 = pos[0]
        alpha = math.atan2(r1[1], r1[0]) if radii[0] > origin_tol else 0.0
        reflect = n == 2 and (_rot(-alpha) @ pos[1])[1] < 0.0
        # Witness normal points into the unexplored half-plane: straight down in
        # the normalized frame, mapped back through the frame transforms.
        normal = _rot(alpha) @ np.array([0.0, 1.0 if reflect else -1.0])
        direction = normalize_angle(math.atan2(normal[1], normal[0]))
        cone = Cone(direction, math.pi / 2.0)
        witness = Line(direction, (0.5 + zeta) * d)
        bound, limit = (1.5 + zeta) / (0.5 + zeta), 3.0
    return ConeCertificate(
        cone, float(d), bound, witness, n=n, bound_limit=limit, degenerate=degenerate,
        params={"gamma": gamma, "eps": eps, "zeta": zeta, "origin_tol": origin_tol},
        robot_positions=pos)


def ellipse_q_grid(x: np.ndarray, y: np.ndarray, delta: np.ndarray,
                   theta: np.ndarray) -> np.ndarray:
    """Quadratic form negative inside the unit-time reachable ellipse.

    The robot ends delta from the origin at bearing theta; the ellipse has
    foci at the origin and there, string length 1, so center offset
    h = delta/2 along the axis, semi-axes 1/2 and b = sqrt(1 - delta^2)/2:
    q = 4(cos(t)x + sin(t)y - h)^2 + ((-sin(t)x + cos(t)y)/b)^2 - 1.  All
    arrays broadcast.
    """
    c, s = np.cos(theta), np.sin(theta)
    axial = c * x + s * y - 0.5 * delta
    trans = -s * x + c * y
    b2 = 0.25 * (1.0 - delta * delta)
    return 4.0 * axial * axial + trans * trans / b2 - 1.0


def ellipse_boundary(delta: float, theta: float, samples: int = 512) -> np.ndarray:
    """(samples, 2) points with q = 0, counterclockwise from the far vertex.

    The ellipse of ellipse_q_grid; theta may be any bearing.
    """
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    u = np.array([math.cos(theta), math.sin(theta)])
    v = np.array([-u[1], u[0]])
    b = 0.5 * math.sqrt(max(0.0, 1.0 - delta * delta))
    return 0.5 * delta * u + 0.5 * np.outer(np.cos(t), u) + b * np.outer(np.sin(t), v)


def _discriminant_closed(delta: float, theta: float, zeta: float) -> float:
    num = delta * delta + 2.0 * delta * (2.0 * zeta + 1.0) * math.sin(theta)
    num = num + 4.0 * zeta * (zeta + 1.0)
    return -16.0 * num / (1.0 - delta * delta)


def discriminant_max(zeta: float) -> float:
    """Supremum of the discriminant over delta in [0, 1) and theta in [0, pi].

    The discriminant in x of q(x, -1/2 - zeta) is -16(delta^2 + 2 delta
    (2 zeta + 1) sin(theta) + 4 zeta (zeta + 1)) / (1 - delta^2).  With
    zeta >= 0 and sin(theta) >= 0 every term of the numerator is
    non-negative, and 1/(1 - delta^2) >= 1, so the supremum is
    -64 zeta (zeta + 1), at delta = 0: < 0 certifies that the line
    y = -1/2 - zeta misses every reachable ellipse.
    """
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    return _discriminant_closed(0.0, 0.0, zeta)


LEMMA_SUITES = ("omb", "cone-exit", "ellipses", "discriminant")
OMB_PHIS = (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)
# The ellipse suite's (delta, theta) cases, from a circle to a needle; its
# outline samples (a multiple of 4 keeps the vertices) and their scales; and
# the bound on its identity's residual, far above rounding.
ELLIPSE_CASES = ((0.0, 0.0), (0.5, math.pi / 3), (0.9, math.pi / 2),
                 (0.999, 2 * math.pi / 3), (0.3, math.pi))
ELLIPSE_OUTLINE, ELLIPSE_SCALES, ELLIPSE_RESIDUAL = 32, (0.5, 1.0, 1.5), 1e-12
# Half-width around lambda = 1/3 at which the cone-exit slope's sign is
# checked; the slopes there are about -/+ 9.7e-10, far above rounding.
CONE_EXIT_BRACKET = 1e-9
_DISC_ZETAS = (1e-6, 1e-3, 0.1)


def _omb_suite() -> dict:
    # g is convex, so a slope <= 0 at min(1, cot^2 phi) pins each minimum
    # over [0, 1]; an angle past pi/4 fails on its excess instead of raising
    excess, slopes, _ = zip(*(omb_minimum(phi, allow_beyond_hypothesis=True)
                              for phi in OMB_PHIS))
    i = excess.index(min(excess))
    return {
        "lemma": "reflection inequality (OK + KL >= OB)",
        "suite": "omb", "phis": list(OMB_PHIS), "extremal": excess[i],
        "at": {"phi": OMB_PHIS[i], "slopes": list(slopes)},
        "passed": excess[i] >= -1e-9 and max(slopes) <= 1e-12,
    }


def _cone_exit_suite() -> dict:
    # f is convex, so slopes of opposite sign CONE_EXIT_BRACKET either side
    # of lambda pin the minimizer over all of [0, 1] inside that bracket
    lam, f = min_cone_exit()
    slopes = [_cone_exit_slope(lam + h) for h in (-CONE_EXIT_BRACKET, CONE_EXIT_BRACKET)]
    return {
        "lemma": "cone exit cost minimum sqrt(3)/2 at lambda=1/3",
        "suite": "cone-exit", "bracket": CONE_EXIT_BRACKET,
        "extremal": f, "at": {"lambda": lam, "slopes": slopes,
                              "derivative_residual": abs(_cone_exit_slope(lam))},
        "passed": slopes[0] < 0.0 < slopes[1] and abs(f - SQRT3 / 2) <= 1e-12,
    }


def _ellipse_suite() -> dict:
    # With s = |P| + |P - R| and t = |P| - |P - R| for the far focus R, the
    # identity q (1 - delta^2) = (s^2 - 1)(1 - t^2) (expand with s t = 2<P, R>
    # - delta^2, s^2 + t^2 = 2(|P|^2 + |P - R|^2)) and |t| <= delta < 1 give
    # sign q = sign(s - 1): q <= 0 is the reachable set.  Checked at both foci,
    # the centre and the outline (vertices included) scaled about the origin
    # by 0.5, 1 and 1.5; the sign only where |q| clears rounding.
    pts = np.vstack([
        np.vstack([np.outer((0.0, 0.5, 1.0), (d * math.cos(th), d * math.sin(th))),
                   *(k * ellipse_boundary(d, th, ELLIPSE_OUTLINE) for k in ELLIPSE_SCALES)])
        for d, th in ELLIPSE_CASES])
    delta, theta = np.repeat(np.array(ELLIPSE_CASES).T, len(pts) // len(ELLIPSE_CASES), 1)
    q = ellipse_q_grid(pts[:, 0], pts[:, 1], delta, theta)
    near = np.hypot(pts[:, 0], pts[:, 1])
    far = np.hypot(pts[:, 0] - delta * np.cos(theta), pts[:, 1] - delta * np.sin(theta))
    s, t = near + far, near - far
    worst = float(np.max(np.abs(q * (1.0 - delta * delta) - (s * s - 1.0) * (1.0 - t * t))))
    decisive = np.abs(q) > 1e-6
    disagree = int(np.count_nonzero((q[decisive] < 0.0) != (s[decisive] <= 1.0)))
    return {"lemma": "reachable region equals the ellipse (q <= 0)", "suite": "ellipses",
            "points": len(q), "checked": int(decisive.sum()), "extremal": disagree,
            "at": {"residual": worst}, "passed": disagree == 0 and worst <= ELLIPSE_RESIDUAL}


def _discriminant_suite() -> dict:
    mx = max(discriminant_max(zeta) for zeta in _DISC_ZETAS)
    return {
        "lemma": "line y = -1/2 - zeta misses every reachable ellipse",
        "suite": "discriminant", "extremal": mx,
        "at": {"zeta": _DISC_ZETAS, "delta": 0.0}, "passed": mx < 0.0,
    }


def _negative_controls() -> list[dict]:
    """Checks that must come out violated or tangent, showing the checks bite."""
    excess, _, _ = omb_minimum(0.3 * math.pi, allow_beyond_hypothesis=True)
    mx = discriminant_max(0.0)
    return [{"lemma": "reflection inequality beyond phi = pi/4 (expected violation)",
             "suite": "omb-negative-control", "phi": 0.3 * math.pi,
             "extremal": excess, "passed": excess < 0.0},
            {"lemma": "zeta = 0 tangency diagnostic (expected max exactly 0)",
             "suite": "discriminant-zeta-zero", "extremal": mx, "passed": abs(mx) <= 1e-12}]


def lemma_suite(suites: tuple[str, ...] = LEMMA_SUITES,
                negative_control: bool = False) -> list[dict]:
    """Checks of the lemmas the certificates lean on, none of them sampled.

    One result per suite, in LEMMA_SUITES order, each carrying its extremal
    value and whether it passed; negative_control appends two controls that
    must come out violated (omb beyond pi/4) or tangent (zeta = 0).  The
    omb, cone-exit and discriminant suites check closed forms, the ellipse
    suite a focal identity at a fixed set of points.
    """
    unknown = set(suites) - set(LEMMA_SUITES)
    if unknown:
        raise ValueError(f"unknown lemma suites {sorted(unknown)}")
    runs = {"omb": _omb_suite, "cone-exit": _cone_exit_suite,
            "ellipses": _ellipse_suite, "discriminant": _discriminant_suite}
    results = [runs[name]() for name in LEMMA_SUITES if name in suites]
    if negative_control:
        results += _negative_controls()
    return results
