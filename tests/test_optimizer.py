import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoreline.cli import load_fleet_config
from shoreline.evaluator import evaluate_cr
from shoreline.optimizer import (
    DEFAULT_BRACKET,
    OptimizeResult,
    log_cr_slope,
    optimize_spiral,
    spiral_eval_params,
    steady_state_cr,
)
from shoreline.trajectory import AntipodalOf, Fleet, LogSpiral

from reference import steady_state_cr_bisection

FLEETS = Path(__file__).resolve().parents[1] / "fleets"


def spiral_fleet(n: int, b: float, start_phase: float = 0.0) -> Fleet:
    """One spiral, or a point-reflected pair sharing the origin as midpoint."""
    s = LogSpiral(growth=b, start_phase=start_phase)
    if n == 1:
        return Fleet((s,))
    if n == 2:
        return Fleet((s, AntipodalOf(s)))
    raise ValueError(f"unsupported spiral fleet size {n}")


def windowed_cr(n: int, b: float, start_phase: float = 0.0) -> float:
    """The evaluator's windowed sweep of the spiral fleet at growth b.

    The numeric reference for the closed form: six directions suffice,
    because the steady-state record pattern is the same in every direction
    up to a time rescaling.  The sweep samples the spirals at their support
    extrema, so it is exact up to rounding.
    """
    p = spiral_eval_params(n, b)
    rep = evaluate_cr(spiral_fleet(n, b, start_phase), p["horizon"], 6,
                      epsilon=p["epsilon"], window=p["window"], t_start=p["t_start"])
    return rep.cr_estimate


def test_spiral_fleet_shapes():
    f1 = spiral_fleet(1, 0.3, start_phase=1.0)
    assert len(f1) == 1
    assert isinstance(f1.robots[0], LogSpiral)
    f2 = spiral_fleet(2, 0.3, start_phase=1.0)
    assert len(f2) == 2
    assert isinstance(f2.robots[1], AntipodalOf)
    with pytest.raises(ValueError):
        spiral_fleet(3, 0.3)


def test_spiral_eval_params_shape():
    p = spiral_eval_params(1, 0.2125)
    lo, hi = p["window"]
    assert 0.0 < lo < hi < p["horizon"]
    assert p["epsilon"] == lo
    assert p["t_start"] > 0.0
    # window edges keep one full turn of guard past radius 1 and before the
    # horizon's radius
    assert lo == pytest.approx(math.exp(2.0 * math.pi * 0.2125))


def test_steady_state_cr_slow_spiral_pays_heavily():
    # at b = 0.1 a lone spiral needs ~10 radius units of arc per unit of
    # radial progress, so the ratio is far above the optimum near 13.8
    assert steady_state_cr(1, 0.1) > 15.0


def test_steady_state_cr_independent_of_start_phase():
    # the closed form has no start phase; the windowed measurement agrees
    # with it whatever bearing the spirals cross radius 1 at
    exact = steady_state_cr(2, 0.6465)
    for phase in (0.0, 2.0):
        assert windowed_cr(2, 0.6465, start_phase=phase) == pytest.approx(exact, rel=1e-12)


def test_steady_state_cr_near_known_optimum():
    assert steady_state_cr(2, 0.6465) == pytest.approx(5.26443, abs=1e-5)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("b", [0.05, 0.1, 0.2125, 0.3, 0.5, 0.6465, 1.0])
def test_steady_state_cr_matches_windowed_reference(n, b):
    assert steady_state_cr(n, b) == pytest.approx(windowed_cr(n, b), rel=1e-12)


@pytest.mark.parametrize("n,name", [(1, "spiral-1"), (2, "double-spiral-2")])
def test_shipped_spiral_configs_match_the_closed_form(n, name):
    fleet, _, ev = load_fleet_config(str(FLEETS / f"{name}.json"))
    rep = evaluate_cr(fleet, ev["horizon"], ev["theta_steps"], ev["t_steps"],
                      epsilon=ev["epsilon"], window=tuple(ev["window"]), t_start=ev["t_start"])
    b = fleet.robots[0].growth
    assert rep.cr_estimate == pytest.approx(steady_state_cr(n, b), rel=1e-12)


def test_steady_state_cr_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unsupported"):
        steady_state_cr(3, 0.5)
    for b in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="growth rate"):
            steady_state_cr(1, b)


def test_steady_state_cr_steep_spirals_do_not_overflow():
    # the root is found in logs, so only a ratio beyond the float range
    # becomes inf; the pair's ratio grows only linearly in b
    assert steady_state_cr(1, 300.0) == math.inf
    assert 1e3 < steady_state_cr(2, 500.0) < 1e4


@pytest.mark.parametrize("n", [1, 2])
def test_steady_state_cr_matches_bisection(n):
    # Newton stops at the float bisection stops at, on a log grid of growth
    # rates from nearly circular to steeper than any finite n = 1 ratio
    for b in np.geomspace(0.01, 600.0, 400):
        assert steady_state_cr(n, float(b)) == steady_state_cr_bisection(n, float(b))


def test_steady_state_cr_of_a_steep_pair_grows_linearly():
    # R / b settles to a constant: psi ~ 1/b lies near the bracket's edge,
    # which pi/2 - arctan b would round by pi's absolute ulps (3.391 at 1e15)
    ref = steady_state_cr(2, 1e8) / 1e8
    for b in (1e10, 1e13, 1e15):
        assert steady_state_cr(2, b) / b == pytest.approx(ref, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("b", [40.0, 100.0, 300.0])
def test_steady_state_cr_finds_a_root_at_the_bracket_edge_in_few_tests(monkeypatch, b):
    # one steep spiral's root lies within a float of the bracket's lower
    # end, where every Newton step leaves the bracket: a gallop up from the
    # edge finds it, where halving the bracket took 49 tests
    calls, sin = [], math.sin
    monkeypatch.setattr(math, "sin", lambda x: calls.append(x) or sin(x))
    value = steady_state_cr(1, b)
    monkeypatch.undo()
    assert value == steady_state_cr_bisection(1, b)
    assert len(calls) <= 12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.floats(0.05, 2.0))
def test_log_cr_slope_matches_central_differences(n, b):
    h = 1e-5 * b
    central = (math.log(steady_state_cr(n, b + h))
               - math.log(steady_state_cr(n, b - h))) / (2.0 * h)
    assert log_cr_slope(n, b) == pytest.approx(central, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_log_cr_slope_changes_sign_once_on_the_default_bracket(n):
    # the scanned claim behind optimize_spiral: one sign change, from
    # falling to rising, so the stationary point it finds is the minimum
    signs = [log_cr_slope(n, float(b)) >= 0.0 for b in np.geomspace(*DEFAULT_BRACKET, 2000)]
    assert signs[0] is False and signs[-1] is True
    assert sum(a != b for a, b in zip(signs, signs[1:])) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_log_cr_slope_keeps_its_sign_at_steep_growth(n):
    # far past the optimum the ratio rises; the slope is formed from
    # |tan| = sqrt(exp(2u) - 1), so no angle near the branch edge is rounded
    for b in (5.0, 300.0, 1e10, 1e15):
        assert log_cr_slope(n, b) > 0.0
    assert log_cr_slope(1, 1e300) == pytest.approx(math.pi)


def test_optimize_spiral_without_a_finite_ratio_has_not_converged():
    # every steady-state ratio of one spiral overflows at these growth rates,
    # and the ratio rises across the bracket: no sign change
    res = optimize_spiral(1, bracket=(400.0, 500.0))
    assert res.value == math.inf and not res.converged
    assert res.slopes[0] > 0.0 and res.slopes[1] > 0.0


# b* and R(b*) where the slope turns, with the two adjacent floats' slopes
OPTIMA = {1: (0.21246955941564788, 13.811135179461136),
          2: (0.6464642521222136, 5.264428634262551)}


@pytest.mark.parametrize("n,value,evaluations", [(1, 13.811135, 47),
                                                 (2, 5.264429, 50)])
def test_optimize_spiral_reaches_the_closed_form_optimum(n, value, evaluations):
    # evaluations is the golden-section search's count, an upper bound here
    res = optimize_spiral(n)
    assert res.converged
    assert (res.parameter, res.value) == OPTIMA[n]
    assert res.value == pytest.approx(value, abs=1e-6)
    assert res.evaluations <= evaluations
    lo, hi = res.bracket
    assert lo == res.parameter and hi == math.nextafter(lo, math.inf)
    assert res.slopes == (log_cr_slope(n, lo), log_cr_slope(n, hi))
    assert res.slopes[0] < 0.0 <= res.slopes[1]


def test_optimize_spiral_finds_the_optimum_in_a_bracket_to_1e300():
    # a log step of 4e9 once stepped past every finite ratio in this bracket
    res = optimize_spiral(1, bracket=(0.05, 1e300))
    assert res.converged and (res.parameter, res.value) == OPTIMA[1]


def test_optimize_spiral_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unsupported"):
        optimize_spiral(3)
    with pytest.raises(ValueError):
        optimize_spiral(1, bracket=(0.5, 0.1))
    for bracket in ((1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="bracket must be finite"):
            optimize_spiral(1, bracket=bracket)
    # the pair's ratio ~ 3.59 b is lost once 1 + b^2 overflows
    with pytest.raises(ValueError, match="too steep"):
        optimize_spiral(2, bracket=(0.05, 1e300))


def test_optimize_spiral_quick_pair():
    res = optimize_spiral(2, bracket=(0.55, 0.75))
    assert isinstance(res, OptimizeResult)
    assert res.converged
    assert res.parameter == pytest.approx(0.6465, abs=0.02)
    assert res.value == pytest.approx(5.2644, abs=5e-3)
    assert res.evaluations >= 4
