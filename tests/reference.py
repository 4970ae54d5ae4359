"""Scalar reference helpers the tests measure the package against.

None of these has a caller inside the package: point positions, chord
speeds, scanned first hits, point supports and distances, the bisections
whose ends the package's spiral root searches are measured against, the
unit-time reachable ellipse with its travel-budget oracle and scalar
discriminant, and the part of a line inside a square, which a picture's
witness segment must cover.
"""

import math
from dataclasses import dataclass

import numpy as np

from shoreline.certifier import _discriminant_closed
from shoreline.evaluator import _support
from shoreline.geometry import Line, Point2
from shoreline.trajectory import TrajectorySpec, positions

# ----------------------------------------------------------------- geometry


def support(p: Point2, theta: float) -> float:
    """Signed extent of p in direction theta.

    1-Lipschitz along any unit-speed path, which is what makes running
    maxima of support usable as hit certificates.
    """
    return p.x * math.cos(theta) + p.y * math.sin(theta)


def distance_point_line(p: Point2, line: Line) -> float:
    return abs(support(p, line.theta) - line.delta)


def clip_line(line: Line, w: float) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Segment of the line inside the square [-w, w]^2, if any."""
    c, s = math.cos(line.theta), math.sin(line.theta)
    px, py = line.delta * c, line.delta * s
    dx, dy = -s, c
    t_lo, t_hi = -math.inf, math.inf
    for p, d in ((px, dx), (py, dy)):
        if abs(d) < 1e-15:
            if abs(p) > w:
                return None
            continue
        t1, t2 = (-w - p) / d, (w - p) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo, t_hi = max(t_lo, t1), min(t_hi, t2)
    if t_lo >= t_hi:
        return None
    return (px + t_lo * dx, py + t_lo * dy), (px + t_hi * dx, py + t_hi * dy)


# --------------------------------------------------------------- trajectory


def position(spec: TrajectorySpec, t: float) -> Point2:
    if t < 0.0:
        raise ValueError("negative time")
    p = positions(spec, np.array([float(t)]))
    return Point2(float(p[0, 0]), float(p[0, 1]))


def speed_check(spec: TrajectorySpec, horizon: float, samples: int = 10_000) -> float:
    """Max chord speed over a uniform sampling; should be ~1 for valid specs."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = np.linspace(0.0, horizon, samples)
    p = positions(spec, ts)
    step = np.diff(p, axis=0)
    dt = ts[1] - ts[0]
    return float(np.max(np.hypot(step[:, 0], step[:, 1])) / dt)


def first_hit_time(
    spec: TrajectorySpec,
    line: Line,
    horizon: float,
    tol: float = 1e-9,
    scan_steps: int = 4096,
) -> float | None:
    """First time the path reaches the line, or None within the horizon.

    Grid scan for a sign change of support - delta, then bisection down to
    tol, or to the float spacing where that is coarser.  The scan can miss a
    crossing narrower than horizon/scan_steps; use more steps for wiggly
    paths.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    u = np.array([math.cos(line.theta), math.sin(line.theta)])
    ts = np.linspace(0.0, horizon, scan_steps + 1)
    s = positions(spec, ts) @ u - line.delta
    hits = np.nonzero(s >= 0.0)[0]
    if hits.size == 0:
        return None
    k = int(hits[0])
    if k == 0:
        return 0.0
    lo, hi = ts[k - 1], ts[k]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        pm = positions(spec, np.array([mid]))[0]
        if pm @ u >= line.delta:
            hi = mid
        else:
            lo = mid
    return float(hi)


def rise_time_bisection(robot, u: np.ndarray, level: np.ndarray, t0: np.ndarray,
                        t1: np.ndarray) -> np.ndarray:
    """evaluator._rise_time before Newton: when a support rising through each
    cell [t0, t1] passes level, the later end once bisection leaves no float
    between the two."""
    while True:
        mid = 0.5 * (t0 + t1)
        live = (t0 < mid) & (mid < t1)
        if not live.any():
            return t1
        up = _support(robot, mid, u) > level
        t1 = np.where(live & up, mid, t1)
        t0 = np.where(live & ~up, mid, t0)


def steady_state_cr_bisection(n: int, b: float) -> float:
    """optimizer.steady_state_cr before Newton: its log-root test, with
    |cos(psi + alpha)| taken as sin(psi - edge) from the bracket's lower end,
    bisected until the bracket stops shrinking."""
    alpha = math.atan(b)
    period = 2.0 * math.pi if n == 1 else math.pi
    log_c2 = math.log1p(b * b)
    edge = period - 0.5 * math.pi - alpha if n == 1 else math.atan(1.0 / b)
    lo, hi = edge, period
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if b * mid + math.log(math.sin(mid - edge)) < -0.5 * log_c2:
            lo = mid
        else:
            hi = mid
    try:
        return math.exp(log_c2 - math.log(b) + b * hi)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------- ellipses


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


def reach_oracle(p: Point2, robot_end: Point2, time_budget: float) -> bool:
    """Whether a unit-speed robot from the origin can visit p and end at robot_end."""
    if time_budget <= 0.0:
        raise ValueError("time_budget must be positive")
    trip = p.norm() + math.hypot(p.x - robot_end.x, p.y - robot_end.y)
    return trip <= time_budget


def discriminant(delta: float, theta: float, zeta: float) -> float:
    """Discriminant in x of q(x, -1/2 - zeta) for the ellipse at (delta, theta).

    Negative means the horizontal line y = -1/2 - zeta misses the ellipse.
    Returns the package's closed form -16(d^2 + 2d(2z+1)sin(t) + 4z(z+1))
    / (1 - d^2), read from the package's _discriminant_closed and
    cross-checked against B^2 - 4AC of the expanded quadratic; zeta = 0 is
    admitted as the tangency diagnostic.
    """
    if not 0.0 <= delta < 1.0 - 1e-9:
        raise ValueError("delta must lie in [0, 1 - 1e-9)")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    closed = _discriminant_closed(delta, theta, zeta)
    y0 = -0.5 - zeta
    c, s = math.cos(theta), math.sin(theta)
    k = 4.0 / (1.0 - delta * delta)  # 1/b^2
    # q(x, y0) = A x^2 + B x + C
    a = 4.0 * c * c + k * s * s
    b = 8.0 * c * (s * y0 - 0.5 * delta) - 2.0 * k * s * c * y0
    cc = 4.0 * (s * y0 - 0.5 * delta) ** 2 + k * c * c * y0 * y0 - 1.0
    expanded = b * b - 4.0 * a * cc
    if abs(expanded - closed) > 1e-9 * max(1.0, abs(closed)):
        raise AssertionError(
            f"discriminant cross-check failed at delta={delta}, theta={theta}, "
            f"zeta={zeta}: closed={closed!r} expanded={expanded!r}"
        )
    return closed
