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
    """Horizon, window, and grid spacing for measuring steady-state CR.

    The pattern repeats when the spiral (or the pair) turns far enough to
    cover the same directions again: a full turn for one robot, half a turn
    for the antipodal pair.  The window keeps one full turn of guard on each
    side per the periodicity of the ratio in log offset, and the outer
    radius leaves room for the final crossing.  A spiral from the origin
    reaches radius r at time (c/b) * r, which sets the horizon.
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
    direction.  psi is bisected until the interval stops shrinking; a ratio
    beyond the float range is inf.
    """
    if n not in (1, 2):
        raise ValueError(f"unsupported fleet size n={n}; only 1 or 2 spiral robots")
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"growth rate must be finite and positive, got {b!r}")
    alpha = math.atan(b)
    period = 2.0 * math.pi if n == 1 else math.pi
    log_c2 = math.log1p(b * b)  # log c^2 = -2 log cos(alpha)
    lo, hi = period - 0.5 * math.pi - alpha, period
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        # the root equation in logs, so no exp overflows for large b
        if b * mid + math.log(abs(math.cos(mid + alpha))) < -0.5 * log_c2:
            lo = mid
        else:
            hi = mid
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
    point.
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
    return result
