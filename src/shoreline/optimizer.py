"""Tuning of spiral growth rates by the sign of the ratio's derivative.

The log spiral is self-similar, so its steady-state competitive ratio depends
only on the growth rate b and has a closed form (steady_state_cr), and so
does the derivative of its log in b (log_cr_slope).  optimize_spiral finds
where that derivative changes sign.  spiral_eval_params sizes the windowed
evaluator sweep that measures the same ratio numerically; the shipped spiral
configs are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_BRACKET = (0.05, 2.0)


@dataclass
class OptimizeResult:
    parameter: float
    value: float
    evaluations: int
    bracket: tuple[float, float]
    slopes: tuple[float, float]
    converged: bool = True


def spiral_eval_params(n: int, b: float) -> dict:
    """Horizon and window for measuring steady-state CR.

    The pattern repeats when the spiral (or the pair) turns far enough to
    cover the same directions again: a full turn for one robot, half a turn
    for the antipodal pair.  The window keeps one full turn of guard on each
    side per the periodicity of the ratio in log offset, and the outer
    radius leaves room for the final crossing.  A spiral from the origin
    reaches radius r at time (c/b) * r, which sets the horizon.  t_start only
    keeps the shipped configs as they are: no result depends on it.
    """
    c = math.hypot(1.0, b)
    period = 2.0 * math.pi if n == 1 else math.pi
    guard = math.exp(2.0 * math.pi * b)
    span = math.exp(1.5 * period * b)
    crossing_room = 2.0 * c * math.exp(math.pi * b)
    r_end = guard * span * crossing_room * guard
    window = (guard, r_end / guard)
    return {
        "horizon": (c / b) * r_end,
        "window": window,
        "epsilon": window[0],
        "t_start": 0.05,
    }


def _phase(n: int, b: float) -> tuple[float, float]:
    """The phase psi of steady_state_cr and log c^2, c = sqrt(1 + b^2).

    psi is the upper end of the bracket bisection would leave on the
    log-root test g(psi) < 0, g(psi) = b*psi + log|cos(psi + alpha)|
    + log(c^2) / 2: g rises there, and so does its rounded value, so the end
    is the first float past the root.  On the bracket (edge, P), edge =
    P - pi/2 - alpha, |cos(psi + alpha)| is sin(psi - edge), which the test
    takes: for the pair psi ~ 1/b is near edge, and a cosine near pi/2 would
    carry pi's absolute rounding.  Newton steps on g'(psi) =
    b - tan(psi + alpha), taken in log(psi - edge) for the bracket's lower
    end edge, where log|cos| has its singularity and is nearly a line in
    that variable, reach it in a few tests.  Once a step stalls within w
    floats of the last point x, x +- w floats is tested toward the root,
    w doubling while the test keeps its side.  Where a step misses the
    bracket toward edge, edge + 1, 2, 4... floats is tested while that lies
    in the bracket's lower half: for one steep spiral the root lies within
    a float of edge, which bisection would take ~49 tests to reach.
    Otherwise the midpoint is tested.  For the pair, edge = arctan(1/b),
    to full relative precision; a growth rate whose 1 + b^2 overflows loses
    log c^2 and with it the pair's finite ratio, and is rejected.
    """
    if n not in (1, 2):
        raise ValueError(f"unsupported fleet size n={n}; only 1 or 2 spiral robots")
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"growth rate must be finite and positive, got {b!r}")
    alpha = math.atan(b)
    period = 2.0 * math.pi if n == 1 else math.pi
    log_c2 = math.log1p(b * b)  # log c^2 = -2 log cos(alpha)
    if n == 2 and log_c2 == math.inf:
        raise ValueError(f"growth rate {b!r} too steep for n=2: 1 + b^2 overflows, "
                         "so log c^2 and the pair's finite ratio are lost")
    edge = period - 0.5 * math.pi - alpha if n == 1 else math.atan(1.0 / b)
    lo, hi = edge, period
    x, below, step, w, up = math.nan, False, math.nan, 1.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        p = x - step
        gap = w * math.ulp(x)
        slow = abs(step) <= gap
        if slow:
            p = x + gap if below else x - gap
        if not lo < p < hi:
            if p <= lo:  # toward the edge: gallop up 1, 2, 4... floats from it
                p, up = edge + up * math.ulp(edge), 2.0 * up
            if not lo < p < mid:
                p = mid
        # the root test in logs, so no exp overflows for large b
        g = b * p + math.log(math.sin(p - edge))
        w = 2.0 * w if slow and (g < -0.5 * log_c2) == below else 1.0
        below = g < -0.5 * log_c2
        if below:
            lo = p
        else:
            hi = p
        # Newton in log(psi - edge), where log|cos| is nearly a line
        d = p - edge
        try:
            step = -d * math.expm1(-(g + 0.5 * log_c2) / ((b - math.tan(p + alpha)) * d))
        except (OverflowError, ZeroDivisionError):
            step = math.nan
        x = p
    return hi, log_c2


def steady_state_cr(n: int, b: float) -> float:
    """Steady-state CR of one spiral (n=1) or the antipodal pair (n=2) at growth b.

    With alpha = arctan b, the fleet's support in a fixed direction peaks at
    spiral phase alpha (mod the period P = 2*pi, or pi for the pair, whose
    second robot supplies the other half turn).  A line just beyond that peak
    is reached psi later in phase, where psi is the root of
    exp(b*psi) * |cos(psi + alpha)| = cos(alpha) on the rising branch
    (P - pi/2 - alpha, P) (_phase finds it).  Arc length from the origin,
    where trajectory.LogSpiral starts, is (c/b) * radius with
    c = sqrt(1 + b^2), so the ratio is R = (c^2 / b) * exp(b*psi), the same
    at every scale and in every direction.  A ratio beyond the float range
    is inf.
    """
    psi, log_c2 = _phase(n, b)
    try:
        return math.exp(log_c2 - math.log(b) + b * psi)
    except OverflowError:
        return math.inf


def log_cr_slope(n: int, b: float) -> float:
    """d log R / db of steady_state_cr's ratio R, in closed form.

    log R = log c^2 - log b + b*psi, so the slope is
    2b/c^2 - 1/b + psi + b*psi', where psi' = -g_b / g_psi by implicit
    differentiation of g(psi, b) = 0, with T = tan(psi + alpha),
    g_psi = b - T and g_b = psi + (b - T)/c^2.  That simplifies to
    psi * T/(T - b) - 1/(b c^2).  On the rising branch T < 0, and g = 0
    gives |cos(psi + alpha)| = exp(-u), u = b*psi + log(c^2)/2, so
    |T| = sqrt(exp(2u) - 1): the slope is psi / (1 + b/|T|) - 1/(b c^2),
    with no angle near the branch's edge to round and no overflow at any
    finite b > 0.
    """
    psi, log_c2 = _phase(n, b)
    u = b * psi + 0.5 * log_c2
    b_over_t = b * math.exp(-u) / math.sqrt(-math.expm1(-2.0 * u))
    return psi / (1.0 + b_over_t) - 1.0 / (b * (1.0 + b * b))


def optimize_spiral(
    n: int, *, bracket: tuple[float, float] = DEFAULT_BRACKET
) -> OptimizeResult:
    """Best growth rate for one spiral (n=1) or the antipodal pair (n=2).

    Narrows the bracket to adjacent floats lo < hi with
    log_cr_slope(lo) < 0 <= log_cr_slope(hi) and reports b* = lo, R(b*),
    (lo, hi) and the two slopes: the sign change certifies the stationary
    point to rounding, as the cone-exit lemma's does.  Each step tests the
    secant's zero, with the Illinois rule (the slope of an end kept twice
    in a row is halved for the next secant); where rounding puts that zero
    on an end, it bisects, geometrically while hi > 2 lo.  On the default
    bracket that is 17 slope evaluations for n=1 and 38 for n=2.
    That the slope changes sign only once, so that b* is the minimum and
    not just a stationary point, is a scanned claim: the tests check it on
    2000 log-spaced b over the default bracket.  A bracket whose ends show
    no sign change has not converged; it reports the end with the smaller
    ratio.
    """
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket must be finite, got {lo!r} {hi!r}")
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    s_lo, s_hi = log_cr_slope(n, lo), log_cr_slope(n, hi)
    evals = 2
    if not s_lo < 0.0 <= s_hi:
        b = min((lo, hi), key=lambda end: steady_state_cr(n, end))
        return OptimizeResult(b, steady_state_cr(n, b), evals, (lo, hi),
                              (s_lo, s_hi), converged=False)
    f_lo, f_hi, last = s_lo, s_hi, 0  # Illinois weights; last side moved
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        p = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < p < hi:
            p = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else mid
        s = log_cr_slope(n, p)
        evals += 1
        if s < 0.0:
            lo, s_lo, f_lo, f_hi = p, s, s, f_hi * (0.5 if last < 0 else 1.0)
            last = -1
        else:
            hi, s_hi, f_hi, f_lo = p, s, s, f_lo * (0.5 if last > 0 else 1.0)
            last = 1
    return OptimizeResult(lo, steady_state_cr(n, lo), evals, (lo, hi), (s_lo, s_hi))
