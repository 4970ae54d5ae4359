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

The reflection inequality and the ellipse geometry are verified separately
by brute-force oracles (omb_oracle, discriminant_sweep), run together by
lemma_suite, so the per-fleet certificates can lean on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Cone, Line, Point2, max_angular_gap, normalize_angle
from .trajectory import Fleet, positions

SQRT3 = math.sqrt(3.0)
# Comparison slack when an angular gap must meet its target exactly
# (symmetric fleets land on the boundary).
GAP_SLACK = 1e-12

DEFAULT_GAMMA = 1e-6
DEFAULT_EPS = 1e-6
DEFAULT_ZETA = 1e-6
DEFAULT_GRID = 1000


@dataclass(frozen=True)
class EllipseRegion:
    """Points reachable in unit time by a robot that ends delta from the origin.

    Foci at the origin and at (delta*cos(theta), delta*sin(theta)), string
    length 1: center offset h = delta/2 along the axis, semi-major 1/2,
    semi-minor b = sqrt(1 - delta^2)/2.
    """

    delta: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")

    @property
    def h(self) -> float:
        return 0.5 * self.delta

    @property
    def b(self) -> float:
        return 0.5 * math.sqrt(max(0.0, 1.0 - self.delta * self.delta))


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


def omb_excess(phi: float, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """OK + KL - OB over the right triangle with apex angle phi, OB = 1.

    O is the origin, M = (cos phi, 0) the foot of the altitude, B = (cos phi,
    sin phi).  K = M + s(B - M) runs along MB and L = vB along OB; s down the
    rows, v across the columns of the result.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    cphi, sphi = math.cos(phi), math.sin(phi)
    kx = cphi
    ky = s * sphi
    ok = np.hypot(kx, ky)
    dx = kx - v[None, :] * cphi
    dy = ky[:, None] - v[None, :] * sphi
    kl = np.hypot(dx, dy)
    return ok[:, None] + kl - 1.0


def omb_oracle(
    phi: float, grid: int = DEFAULT_GRID, *, allow_beyond_hypothesis: bool = False
) -> tuple[float, tuple[Point2, Point2]]:
    """Brute-force minimum of OK + KL - OB and its argmin (K, L).

    The inequality OK + KL >= OB needs phi <= pi/4; larger apex angles are
    rejected unless allow_beyond_hypothesis is set (they make a useful
    negative control, the minimum goes genuinely negative there).
    """
    if not 0.0 < phi <= math.pi / 4.0 and not allow_beyond_hypothesis:
        raise ValueError("lemma hypothesis violated: need 0 < phi <= pi/4")
    if not 0.0 < phi < math.pi / 2.0:
        raise ValueError("phi must lie in (0, pi/2)")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    s = np.linspace(0.0, 1.0, grid)
    v = np.linspace(0.0, 1.0, grid)
    ex = omb_excess(phi, s, v)
    flat = int(np.argmin(ex))
    i, j = divmod(flat, grid)
    cphi, sphi = math.cos(phi), math.sin(phi)
    k = Point2(cphi, s[i] * sphi)
    l = Point2(v[j] * cphi, v[j] * sphi)
    return float(ex[i, j]), (k, l)


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


def min_cone_exit(grid: int = DEFAULT_GRID) -> tuple[float, float]:
    """Minimizer of cone_exit_objective over [0, 1]: grid scan, then bisection.

    The objective is convex, so the scan's neighbours bracket the minimum.
    Value-only search cannot localize a quadratic minimum past about
    sqrt(machine eps); bisecting the sign change of the closed-form slope,
    which is strictly increasing, pins it to within an ulp or two.
    """
    if grid < 3:
        raise ValueError("grid must be at least 3")
    xs = np.linspace(0.0, 1.0, grid)
    vals = [cone_exit_objective(float(x)) for x in xs]
    i = int(np.argmin(vals))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, grid - 1)])
    for _ in range(80):
        mid = 0.5 * (a + b)
        if _cone_exit_slope(mid) < 0.0:
            a = mid
        else:
            b = mid
    lam = 0.5 * (a + b)
    return lam, cone_exit_objective(lam)


def _check_snapshot_time(d: float) -> None:
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"snapshot time d must be finite and positive, got {d!r}")


def _snapshot_angles(
    fleet: Fleet, d: float, origin_tol: float
) -> tuple[list[float], np.ndarray]:
    ts = np.array([float(d)])
    pos = np.concatenate([positions(r, ts) for r in fleet.robots], axis=0)
    radii = np.hypot(pos[:, 0], pos[:, 1])
    angles = [
        float(math.atan2(p[1], p[0]))
        for p, rad in zip(pos, radii)
        if rad > origin_tol
    ]
    return angles, pos


def empty_cone(
    fleet: Fleet,
    d: float,
    target_half_angle: float,
    gamma: float,
    origin_tol: float | None = None,
) -> Cone | None:
    """A cone of the target half-angle containing no robot at time d.

    Robots within origin_tol of the origin are ignored: a robot essentially
    at the origin still needs the full line offset to reach the witness, so
    the resulting bound survives.  If every robot sits at the origin the
    full-plane cone (half_angle = pi) is returned; callers must treat that
    as the degenerate unbounded case rather than a usable certificate.

    Returns None when the largest angular gap is smaller than
    2*target_half_angle + 2*gamma.
    """
    _check_snapshot_time(d)
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if origin_tol is None:
        origin_tol = 1e-9 * d
    angles, _ = _snapshot_angles(fleet, d, origin_tol)
    if not angles:
        return Cone(0.0, math.pi)  # degenerate: unbounded CR
    gap, bisector = max_angular_gap(angles)
    if gap + GAP_SLACK < 2.0 * target_half_angle + 2.0 * gamma:
        return None
    return Cone(bisector, target_half_angle)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def snapshot_lower_bound(
    fleet: Fleet,
    d: float,
    n: int,
    gamma: float = DEFAULT_GAMMA,
    *,
    eps: float = DEFAULT_EPS,
    zeta: float = DEFAULT_ZETA,
    origin_tol: float | None = None,
) -> ConeCertificate:
    """Certified CR lower bound from the fleet's positions at time d.

    eps plays the role of the vanishing offset in the n >= 3 constructions
    (taken relative to d) and zeta the offset below y = -d/2 for n <= 2; the
    certificate's bound uses the finite values while bound_limit records the
    eps -> 0 supremum.
    """
    _check_snapshot_time(d)
    for name, value in (("gamma", gamma), ("eps", eps), ("zeta", zeta)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    if len(fleet) != n:
        raise ValueError(f"fleet has {len(fleet)} robots, expected n={n}")
    if origin_tol is None:
        origin_tol = 1e-9 * d
    angles, pos = _snapshot_angles(fleet, d, origin_tol)

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
        cone = empty_cone(fleet, d, half, gamma, origin_tol)
        if cone is None:  # pigeonhole over <= n directions; cannot happen
            raise AssertionError("empty cone must exist for n robots")
        witness = Line(cone.bisector, d * (1.0 + eps) * math.cos(half))
        bound, limit = 1.0 / math.cos(half), 1.0 / math.cos(math.pi / n)
    elif n == 3:
        cone = empty_cone(fleet, d, math.pi / 3.0, 0.0, origin_tol)
        if cone is None:
            raise AssertionError("empty cone must exist for 3 robots")
        witness = Line(cone.bisector, d * (1.0 / SQRT3 + eps))
        bound, limit = SQRT3 / (1.0 + SQRT3 * eps), SQRT3
    else:
        # n <= 2: reachable-ellipse argument.  Rotate robot 1 onto the positive
        # x-axis; with two robots reflect so robot 2 ends in the upper half-plane.
        r1 = pos[0]
        alpha = math.atan2(r1[1], r1[0]) if np.hypot(*r1) > origin_tol else 0.0
        reflect = n == 2 and (_rot(-alpha) @ pos[1])[1] < 0.0
        # Witness normal points into the unexplored half-plane: straight down in
        # the normalized frame, mapped back through the frame transforms.
        normal = _rot(alpha) @ np.array([0.0, 1.0 if reflect else -1.0])
        direction = normalize_angle(math.atan2(normal[1], normal[0]))
        cone = Cone(direction, math.pi / 2.0)
        witness = Line(direction, (0.5 + zeta) * d)
        bound, limit = (1.5 + zeta) / (0.5 + zeta), 3.0
    return ConeCertificate(
        cone=cone,
        snapshot_time=float(d),
        bound=bound,
        witness_line=witness,
        n=n,
        bound_limit=limit,
        degenerate=degenerate,
        params={"gamma": gamma, "eps": eps, "zeta": zeta, "origin_tol": origin_tol},
        robot_positions=tuple((float(p[0]), float(p[1])) for p in pos),
    )


def ellipse_q(x: float, y: float, region: EllipseRegion) -> float:
    """Quadratic form negative inside the unit-time reachable ellipse.

    q = 4(cos(t)x + sin(t)y - h)^2 + ((-sin(t)x + cos(t)y)/b)^2 - 1 with
    h = delta/2 and b = sqrt(1 - delta^2)/2.
    """
    if region.delta >= 1.0:
        raise ValueError("degenerate ellipse: delta = 1 has zero minor axis")
    c, s = math.cos(region.theta), math.sin(region.theta)
    axial = c * x + s * y - region.h
    trans = -s * x + c * y
    b2 = region.b * region.b
    return 4.0 * axial * axial + trans * trans / b2 - 1.0


def ellipse_q_grid(
    x: np.ndarray, y: np.ndarray, delta: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Vectorized ellipse_q for property sweeps (all arrays broadcast)."""
    c, s = np.cos(theta), np.sin(theta)
    axial = c * x + s * y - 0.5 * delta
    trans = -s * x + c * y
    b2 = 0.25 * (1.0 - delta * delta)
    return 4.0 * axial * axial + trans * trans / b2 - 1.0


def ellipse_boundary(delta: float, theta: float, samples: int = 512) -> np.ndarray:
    """(samples, 2) points with q = 0, counterclockwise from the far vertex.

    The ellipse of EllipseRegion(delta, theta), but theta may be any bearing.
    """
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    u = np.array([math.cos(theta), math.sin(theta)])
    v = np.array([-u[1], u[0]])
    b = 0.5 * math.sqrt(max(0.0, 1.0 - delta * delta))
    return 0.5 * delta * u + 0.5 * np.outer(np.cos(t), u) + b * np.outer(np.sin(t), v)


def reach_oracle(p: Point2, robot_end: Point2, time_budget: float) -> bool:
    """Whether a unit-speed robot from the origin can visit p and end at robot_end."""
    if time_budget <= 0.0:
        raise ValueError("time_budget must be positive")
    trip = p.norm() + math.hypot(p.x - robot_end.x, p.y - robot_end.y)
    return trip <= time_budget


def _discriminant_closed(delta, theta, zeta):
    num = delta * delta + 2.0 * delta * (2.0 * zeta + 1.0) * np.sin(theta)
    num = num + 4.0 * zeta * (zeta + 1.0)
    return -16.0 * num / (1.0 - delta * delta)


def discriminant(delta: float, theta: float, zeta: float) -> float:
    """Discriminant in x of q(x, -1/2 - zeta) for the ellipse at (delta, theta).

    Negative means the horizontal line y = -1/2 - zeta misses the ellipse.
    Returns the closed form -16(d^2 + 2d(2z+1)sin(t) + 4z(z+1))/(1 - d^2),
    cross-checked on every call against B^2 - 4AC of the expanded quadratic;
    zeta = 0 is admitted as the tangency diagnostic.
    """
    if not 0.0 <= delta < 1.0 - 1e-9:
        raise ValueError("delta must lie in [0, 1 - 1e-9)")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    closed = float(_discriminant_closed(delta, theta, zeta))
    y0 = -0.5 - zeta
    c, s = math.cos(theta), math.sin(theta)
    k = 4.0 / (1.0 - delta * delta)  # 1/b^2
    # q(x, y0) = A x^2 + B x + C
    a = 4.0 * c * c + k * s * s
    b = 8.0 * c * (s * y0 - 0.5 * delta) - 2.0 * k * s * c * y0
    cc = 4.0 * (s * y0 - 0.5 * delta) ** 2 + k * c * c * y0 * y0 - 1.0
    expanded = b * b - 4.0 * a * cc
    if abs(expanded - closed) > 1e-9 * max(1.0, abs(closed)):
        raise RuntimeError(
            f"discriminant cross-check failed at delta={delta}, theta={theta}, "
            f"zeta={zeta}: closed={closed!r} expanded={expanded!r}"
        )
    return closed


def discriminant_sweep(
    delta_grid: np.ndarray, theta_grid: np.ndarray, zeta_list: list[float]
) -> float:
    """Max of the discriminant over the grid; < 0 certifies the ellipses
    stay above every line y = -1/2 - zeta tried."""
    delta_grid = np.asarray(delta_grid, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if delta_grid.size == 0 or theta_grid.size == 0 or not list(zeta_list):
        raise ValueError("grids must be non-empty")
    if np.any(delta_grid > 1.0 - 1e-6):
        raise ValueError("delta grid must stay at or below 1 - 1e-6")
    if np.any(delta_grid < 0.0):
        raise ValueError("delta grid must be non-negative")
    best = -math.inf
    d = delta_grid[:, None]
    t = theta_grid[None, :]
    for zeta in zeta_list:
        if zeta < 0.0:
            raise ValueError("zeta must be non-negative")
        vals = _discriminant_closed(d, t, float(zeta))
        best = max(best, float(vals.max()))
    return best


LEMMA_SUITES = ("omb", "cone-exit", "ellipses", "discriminant")
OMB_PHIS = (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)
DEFAULT_SAMPLES = 20_000
_DISC_ZETAS = (1e-6, 1e-3, 0.1)


def _disc_grids() -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(0.0, 0.99, 100), np.linspace(0.0, math.pi, 256)


def _omb_suite(grid: int) -> dict:
    worst, worst_phi = math.inf, None
    for phi in OMB_PHIS:
        excess, _ = omb_oracle(phi, grid)
        if excess < worst:
            worst, worst_phi = excess, phi
    return {
        "lemma": "reflection inequality (OK + KL >= OB)",
        "suite": "omb", "grid": grid, "phis": list(OMB_PHIS),
        "extremal": worst, "at": {"phi": worst_phi}, "passed": worst >= -1e-9,
    }


def _cone_exit_suite(grid: int) -> dict:
    lam, f = min_cone_exit(grid)
    resid = abs(_cone_exit_slope(lam))
    passed = (abs(lam - 1 / 3) <= 1e-8 and abs(f - SQRT3 / 2) <= 1e-12
              and resid < 1e-8)
    return {
        "lemma": "cone exit cost minimum sqrt(3)/2 at lambda=1/3",
        "suite": "cone-exit", "grid": grid,
        "extremal": f, "at": {"lambda": lam, "derivative_residual": resid},
        "passed": passed,
    }


def _ellipse_suite(samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.3, 1.3, size=(samples, 2))
    deltas = rng.uniform(0.0, 0.999, size=samples)
    thetas = rng.uniform(0.0, math.pi, size=samples)
    q = ellipse_q_grid(pts[:, 0], pts[:, 1], deltas, thetas)
    trip = np.hypot(pts[:, 0], pts[:, 1]) + np.hypot(
        pts[:, 0] - deltas * np.cos(thetas), pts[:, 1] - deltas * np.sin(thetas))
    decisive = np.abs(q) > 1e-6
    checked = int(decisive.sum())
    disagree = checked - int(((q[decisive] < 0) == (trip[decisive] <= 1.0)).sum())
    return {
        "lemma": "reachable region equals the ellipse (q <= 0)",
        "suite": "ellipses", "samples": samples, "checked": checked,
        "extremal": disagree, "at": {"seed": seed}, "passed": disagree == 0,
    }


def _discriminant_suite() -> dict:
    mx = discriminant_sweep(*_disc_grids(), _DISC_ZETAS)
    return {
        "lemma": "line y = -1/2 - zeta misses every reachable ellipse",
        "suite": "discriminant", "grid": [100, 256, 3],
        "extremal": mx, "at": {"zeta": _DISC_ZETAS}, "passed": mx < 0.0,
    }


def _negative_controls(grid: int) -> list[dict]:
    """Sweeps that must come out violated or tangent, showing the checks bite."""
    excess, _ = omb_oracle(0.3 * math.pi, grid, allow_beyond_hypothesis=True)
    mx = discriminant_sweep(*_disc_grids(), [0.0])
    return [{
        "lemma": "reflection inequality beyond phi = pi/4 (expected violation)",
        "suite": "omb-negative-control", "grid": grid, "phi": 0.3 * math.pi,
        "extremal": excess, "passed": excess < 0.0,
    }, {
        "lemma": "zeta = 0 tangency diagnostic (expected max exactly 0)",
        "suite": "discriminant-zeta-zero", "grid": [100, 256], "extremal": mx,
        "passed": abs(mx) <= 1e-12,
    }]


def lemma_suite(
    grid: int = DEFAULT_GRID,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    suites: tuple[str, ...] = LEMMA_SUITES,
    negative_control: bool = False,
) -> list[dict]:
    """Brute-force checks of the lemmas the certificates lean on.

    One result per suite, in LEMMA_SUITES order, each carrying its extremal
    value and whether it passed; negative_control appends two controls that
    must come out violated (omb beyond pi/4) or tangent (zeta = 0).  grid
    sizes the omb and cone-exit sweeps, samples and seed the random
    ellipse-equivalence check.  Each suite frees its arrays before the next
    one runs.
    """
    unknown = set(suites) - set(LEMMA_SUITES)
    if unknown:
        raise ValueError(f"unknown lemma suites {sorted(unknown)}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    runs = {
        "omb": lambda: _omb_suite(grid),
        "cone-exit": lambda: _cone_exit_suite(grid),
        "ellipses": lambda: _ellipse_suite(samples, seed),
        "discriminant": _discriminant_suite,
    }
    results = [runs[name]() for name in LEMMA_SUITES if name in suites]
    if negative_control:
        results += _negative_controls(grid)
    return results
