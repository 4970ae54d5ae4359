"""Derivative-free tuning of spiral growth rates against the evaluator.

The steady-state competitive ratio of a logarithmic spiral depends only on
its growth rate b, so one-dimensional golden-section search over b suffices.
The objective is the evaluator's windowed sweep: the window and horizon are
sized per b so that the measured plateau ratios sit deep in the self-similar
regime, one full turn clear of both the start radius and the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .evaluator import UncoveredDirectionError, evaluate_cr
from .trajectory import AntipodalOf, Fleet, LogSpiral

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_BRACKET = (0.05, 2.0)
DEFAULT_B_TOL = 1e-4
DEFAULT_PRESCAN = 32
# Extra multiplicative headroom on the outer radius so measured ratios have
# converged to the asymptote (the finite start radius biases them low by
# roughly r0 / outer_radius).
DEFAULT_ASYM_MARGIN = 40.0
SPIRAL_T_STEPS = 200_000
SPIRAL_THETA_STEPS = 6
UNCOVERED_RETRIES = 3


class ConvergenceError(RuntimeError):
    pass


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


def spiral_fleet(n: int, b: float, r0: float = 1.0) -> Fleet:
    """One spiral, or a point-reflected pair sharing the origin as midpoint."""
    s = LogSpiral(growth=b, start_radius=r0)
    if n == 1:
        return Fleet((s,))
    if n == 2:
        return Fleet((s, AntipodalOf(s)))
    raise ValueError(f"unsupported spiral fleet size {n}")


def spiral_eval_params(
    n: int, b: float, r0: float = 1.0, asym_margin: float = DEFAULT_ASYM_MARGIN
) -> dict:
    """Horizon, window, and grid spacing for measuring steady-state CR.

    The pattern repeats when the spiral (or the pair) turns far enough to
    cover the same directions again: a full turn for one robot, half a turn
    for the antipodal pair.  The window keeps one full turn of guard on each
    side per the periodicity of the ratio in log offset, and the outer
    radius carries asym_margin headroom plus room for the final crossing.
    """
    c = math.hypot(1.0, b)
    period = 2.0 * math.pi if n == 1 else math.pi
    guard = math.exp(2.0 * math.pi * b)
    span = math.exp(1.5 * period * b)
    crossing_room = 2.0 * c * math.exp(math.pi * b)
    r_end = r0 * guard * span * crossing_room * guard * asym_margin
    horizon = (c / b) * (r_end - r0)
    window = (r0 * guard, r_end / guard)
    return {
        "horizon": horizon,
        "window": window,
        "epsilon": window[0],
        "spacing": "geometric",
        "t_start": 0.05 * r0,
    }


def steady_state_cr(
    n: int,
    b: float,
    *,
    r0: float = 1.0,
    t_steps: int = SPIRAL_T_STEPS,
    theta_steps: int = SPIRAL_THETA_STEPS,
    asym_margin: float = DEFAULT_ASYM_MARGIN,
) -> float:
    """Windowed CR of the spiral fleet at growth b.

    A handful of directions suffices: the steady-state record pattern is the
    same in every direction up to a time rescaling, so each direction's
    plateau ratios approach the same supremum.  Retries with a larger
    horizon if the sweep reports an uncovered direction (can only mean the
    horizon or window was too tight for this b).
    """
    fleet = spiral_fleet(n, b, r0)
    margin = asym_margin
    for attempt in range(UNCOVERED_RETRIES + 1):
        p = spiral_eval_params(n, b, r0, margin)
        try:
            rep = evaluate_cr(
                fleet,
                p["horizon"],
                theta_steps,
                t_steps,
                epsilon=p["epsilon"],
                window=p["window"],
                spacing=p["spacing"],
                t_start=p["t_start"],
            )
            return rep.cr_estimate
        except UncoveredDirectionError:
            if attempt == UNCOVERED_RETRIES:
                raise ConvergenceError(
                    f"spiral evaluation kept failing coverage at b={b:g} "
                    f"after {UNCOVERED_RETRIES} horizon enlargements"
                )
            margin *= 8.0
    raise AssertionError("unreachable")


def optimize_spiral(
    n: int,
    *,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    tol: float = DEFAULT_B_TOL,
    prescan: int = DEFAULT_PRESCAN,
    r0: float = 1.0,
    t_steps: int = SPIRAL_T_STEPS,
    theta_steps: int = SPIRAL_THETA_STEPS,
    asym_margin: float = DEFAULT_ASYM_MARGIN,
) -> OptimizeResult:
    """Best growth rate for one spiral (n=1) or the antipodal pair (n=2).

    Log-spaced pre-scan of the bracket defends the unimodality assumption,
    then golden-section refines between the pre-scan neighbors of the best
    point.
    """
    if n not in (1, 2):
        raise ValueError(f"unsupported fleet size n={n}; only 1 or 2 spiral robots")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if prescan < 3:
        raise ValueError("prescan needs at least 3 points")
    if not tol > 0.0:  # checked before the pre-scan, not after it
        raise ValueError("tol must be positive")

    def objective(b: float) -> float:
        return steady_state_cr(
            n, b, r0=r0, t_steps=t_steps, theta_steps=theta_steps,
            asym_margin=asym_margin,
        )

    ratio = (hi / lo) ** (1.0 / (prescan - 1))
    bs = [lo * ratio**k for k in range(prescan)]
    vals = [objective(b) for b in bs]
    i = min(range(prescan), key=lambda k: vals[k])
    g_lo = bs[max(i - 1, 0)]
    g_hi = bs[min(i + 1, prescan - 1)]
    result = golden_section(objective, g_lo, g_hi, tol=tol)
    result.evaluations += prescan
    return result
