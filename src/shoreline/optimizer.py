"""Derivative-free tuning of spiral growth rates.

The log spiral is self-similar, so its steady-state competitive ratio depends
only on the growth rate b and has a closed form (steady_state_cr).  One-
dimensional golden-section search over b then finds the optimum.
spiral_eval_params sizes the windowed evaluator sweep that measures the same
ratio numerically; the shipped spiral configs are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_BRACKET = (0.05, 2.0)
DEFAULT_B_TOL = 1e-4
DEFAULT_PRESCAN = 32


@dataclass
class OptimizeResult:
    parameter: float
    value: float
    evaluations: int
    bracket: tuple[float, float]
    converged: bool = True


def golden_section(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> OptimizeResult:
    """Minimize a unimodal objective on [lo, hi] to bracket width tol.

    One objective evaluation per iteration after the initial pair; the
    returned parameter is the best evaluated interior point.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    evals = 2
    it = 0
    while b - a > tol and it < max_iter:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = objective(d)
        evals += 1
        it += 1
    if fc < fd:
        x, fx = c, fc
    else:
        x, fx = d, fd
    return OptimizeResult(
        parameter=float(x),
        value=float(fx),
        evaluations=evals,
        bracket=(a, b),
        converged=(b - a) <= tol,
    )


def spiral_eval_params(n: int, b: float) -> dict:
    """Horizon and window for measuring steady-state CR.

    The pattern repeats when the spiral (or the pair) turns far enough to
    cover the same directions again: a full turn for one robot, half a turn
    for the antipodal pair.  The window keeps one full turn of guard on each
    side per the periodicity of the ratio in log offset, and the outer
    radius leaves room for the final crossing.  A spiral from the origin
    reaches radius r at time (c/b) * r, which sets the horizon.  The grid
    keys only keep the shipped configs as they are: no result depends on them.
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
        "spacing": "geometric",
        "t_start": 0.05,
    }


def steady_state_cr(n: int, b: float) -> float:
    """Steady-state CR of one spiral (n=1) or the antipodal pair (n=2) at growth b.

    With alpha = arctan b, the fleet's support in a fixed direction peaks at
    spiral phase alpha (mod the period P = 2*pi, or pi for the pair, whose
    second robot supplies the other half turn).  A line just beyond that peak
    is reached psi later in phase, where psi is the root of
    exp(b*psi) * |cos(psi + alpha)| = cos(alpha) on the rising branch
    (P - pi/2 - alpha, P).  Arc length from the origin, where
    trajectory.LogSpiral starts, is (c/b) * radius with c = sqrt(1 + b^2), so
    the ratio is (c^2 / b) * exp(b*psi), the same at every scale and in every
    direction.  psi is the upper end of the bracket bisection would leave
    on the log-root test g(psi) < 0, g(psi) = b*psi + log|cos(psi + alpha)|
    + log(c^2) / 2: g rises there, and so does its rounded value, so the end
    is the first float past the root.  Newton steps on g'(psi) =
    b - tan(psi + alpha), taken in log(psi - edge) for the bracket's lower
    end edge, where log|cos| has its singularity and is nearly a line in
    that variable, reach it in a few tests.  Once a step stalls within w
    floats of the last point x, x +- w floats is tested toward the root,
    w doubling while the test keeps its side.  Where a step misses the
    bracket toward edge, edge + 1, 2, 4... floats is tested while that lies
    in the bracket's lower half: for one steep spiral the root lies within
    a float of edge, which bisection would take ~49 tests to reach.
    Otherwise the midpoint is tested.  A ratio beyond the float range is
    inf.
    """
    if n not in (1, 2):
        raise ValueError(f"unsupported fleet size n={n}; only 1 or 2 spiral robots")
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"growth rate must be finite and positive, got {b!r}")
    alpha = math.atan(b)
    period = 2.0 * math.pi if n == 1 else math.pi
    log_c2 = math.log1p(b * b)  # log c^2 = -2 log cos(alpha)
    lo, hi = period - 0.5 * math.pi - alpha, period
    edge, x, below, step, w, up = lo, math.nan, False, math.nan, 1.0, 1.0
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
        g = b * p + math.log(abs(math.cos(p + alpha)))
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
    try:
        return math.exp(log_c2 - math.log(b) + b * hi)
    except OverflowError:
        return math.inf


def optimize_spiral(
    n: int,
    *,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    tol: float = DEFAULT_B_TOL,
    prescan: int = DEFAULT_PRESCAN,
) -> OptimizeResult:
    """Best growth rate for one spiral (n=1) or the antipodal pair (n=2).

    Log-spaced pre-scan of the bracket defends the unimodality assumption,
    then golden-section refines between the pre-scan neighbors of the best
    point.  Where every CR it evaluates overflows, it has not converged.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if prescan < 3:
        raise ValueError("prescan needs at least 3 points")
    if not tol > 0.0:  # checked before the pre-scan, not after it
        raise ValueError("tol must be positive")

    def objective(b: float) -> float:
        return steady_state_cr(n, b)

    ratio = (hi / lo) ** (1.0 / (prescan - 1))
    bs = [lo * ratio**k for k in range(prescan)]
    vals = [objective(b) for b in bs]
    i = min(range(prescan), key=lambda k: vals[k])
    g_lo = bs[max(i - 1, 0)]
    g_hi = bs[min(i + 1, prescan - 1)]
    result = golden_section(objective, g_lo, g_hi, tol=tol)
    result.evaluations += prescan
    result.converged &= result.value < math.inf  # no finite CR: no optimum
    return result
