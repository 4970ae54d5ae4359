import math
from pathlib import Path

import pytest

from shoreline.cli import load_fleet_config
from shoreline.evaluator import evaluate_cr
from shoreline.optimizer import (
    OptimizeResult,
    golden_section,
    optimize_spiral,
    spiral_eval_params,
    steady_state_cr,
)
from shoreline.trajectory import AntipodalOf, Fleet, LogSpiral

FLEETS = Path(__file__).resolve().parents[1] / "fleets"


def spiral_fleet(n: int, b: float, start_phase: float = 0.0) -> Fleet:
    """One spiral, or a point-reflected pair sharing the origin as midpoint."""
    s = LogSpiral(growth=b, start_phase=start_phase)
    if n == 1:
        return Fleet((s,))
    if n == 2:
        return Fleet((s, AntipodalOf(s)))
    raise ValueError(f"unsupported spiral fleet size {n}")


def windowed_cr(n: int, b: float, start_phase: float = 0.0,
                t_steps: int = 200_000) -> float:
    """The evaluator's windowed sweep of the spiral fleet at growth b.

    The numeric reference for the closed form: six directions suffice,
    because the steady-state record pattern is the same in every direction
    up to a time rescaling.
    """
    p = spiral_eval_params(n, b)
    rep = evaluate_cr(spiral_fleet(n, b, start_phase), p["horizon"], 6, t_steps,
                      epsilon=p["epsilon"], window=p["window"],
                      spacing=p["spacing"], t_start=p["t_start"])
    return rep.cr_estimate


def test_golden_section_quadratic():
    res = golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-8)
    assert res.converged
    assert res.parameter == pytest.approx(2.0, abs=1e-6)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_golden_section_nonsmooth():
    res = golden_section(lambda x: abs(x - 1.0), -3.0, 4.0, tol=1e-8)
    assert res.converged
    assert res.parameter == pytest.approx(1.0, abs=1e-6)


def test_golden_section_affine_invariance():
    f = lambda x: (x - 0.7) ** 2
    g = lambda x: 100.0 * (x - 0.7) ** 2 + 5.0
    a = golden_section(f, 0.0, 2.0, tol=1e-9)
    b = golden_section(g, 0.0, 2.0, tol=1e-9)
    # both land inside the same final bracket of width tol
    assert a.parameter == pytest.approx(b.parameter, abs=1e-8)


def test_golden_section_counts_evaluations():
    calls = []
    res = golden_section(lambda x: (calls.append(x), x * x)[1], -1.0, 1.0, tol=1e-3)
    assert res.evaluations == len(calls)


def test_golden_section_iteration_cap():
    res = golden_section(lambda x: x * x, -1.0, 1.0, tol=1e-12, max_iter=3)
    assert not res.converged
    assert res.bracket[1] - res.bracket[0] > 1e-12


def test_golden_section_validates():
    with pytest.raises(ValueError):
        golden_section(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        golden_section(lambda x: x, 0.0, 1.0, tol=-1.0)


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
    assert p["spacing"] == "geometric"
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
    # with it whatever bearing the spirals cross radius 1 at (measured
    # worst +2.5e-8 over start phases 0 to 4, so the bound leaves a 2x margin)
    exact = steady_state_cr(2, 0.6465)
    for phase in (0.0, 2.0):
        measured = windowed_cr(2, 0.6465, start_phase=phase, t_steps=60_000)
        assert measured == pytest.approx(exact, rel=5e-8)


def test_steady_state_cr_near_known_optimum():
    assert steady_state_cr(2, 0.6465) == pytest.approx(5.26443, abs=1e-5)


# Measured, the windowed reference reads high by at most +7.5e-8 (b = 0.05,
# n = 1) and by +2.6e-9 at b = 1.0; the bound is about twice the worst case.
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("b", [0.05, 0.1, 0.2125, 0.3, 0.5, 0.6465, 1.0])
def test_steady_state_cr_matches_windowed_reference(n, b):
    assert steady_state_cr(n, b) == pytest.approx(windowed_cr(n, b), rel=1.5e-7)


@pytest.mark.parametrize("n,name", [(1, "spiral-1"), (2, "double-spiral-2")])
def test_shipped_spiral_configs_match_the_closed_form(n, name):
    fleet, _, ev = load_fleet_config(str(FLEETS / f"{name}.json"))
    rep = evaluate_cr(fleet, ev["horizon"], ev["theta_steps"], ev["t_steps"],
                      epsilon=ev["epsilon"], window=tuple(ev["window"]),
                      spacing=ev["spacing"], t_start=ev["t_start"])
    b = fleet.robots[0].growth
    assert rep.cr_estimate == pytest.approx(steady_state_cr(n, b), abs=2e-7)


def test_steady_state_cr_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unsupported"):
        steady_state_cr(3, 0.5)
    for b in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="growth rate"):
            steady_state_cr(1, b)


def test_steady_state_cr_steep_spirals_do_not_overflow():
    # the root is bisected in logs, so only a ratio beyond the float range
    # becomes inf; the pair's ratio grows only linearly in b
    assert steady_state_cr(1, 300.0) == math.inf
    assert 1e3 < steady_state_cr(2, 500.0) < 1e4


@pytest.mark.parametrize("n,value,evaluations", [(1, 13.811135, 47),
                                                 (2, 5.264429, 50)])
def test_optimize_spiral_reaches_the_closed_form_optimum(n, value, evaluations):
    res = optimize_spiral(n)
    assert res.converged
    assert res.value == pytest.approx(value, abs=1e-6)
    assert res.evaluations == evaluations


def test_optimize_spiral_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unsupported"):
        optimize_spiral(3)
    with pytest.raises(ValueError):
        optimize_spiral(1, bracket=(0.5, 0.1))
    with pytest.raises(ValueError):
        optimize_spiral(1, prescan=2)


def test_optimize_spiral_quick_pair():
    res = optimize_spiral(2, bracket=(0.55, 0.75), tol=5e-3, prescan=4)
    assert isinstance(res, OptimizeResult)
    assert res.converged
    assert res.parameter == pytest.approx(0.6465, abs=0.02)
    assert res.value == pytest.approx(5.2644, abs=5e-3)
    assert res.evaluations >= 4
