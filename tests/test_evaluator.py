import itertools
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoreline import evaluator
from shoreline.cli import load_fleet_config
from shoreline.evaluator import (
    DEFAULT_EPSILON_FACTOR,
    DEFAULT_THETA_STEPS,
    CRReport,
    UncoveredDirectionError,
    evaluate_cr,
)
from shoreline.optimizer import steady_state_cr
from shoreline.trajectory import (AntipodalOf, Fleet, LogSpiral, Polyline, Ray,
                                  support_extrema)

from reference import first_hit_time, rise_time_bisection

# all four vertices visited by t = 1 + 3 sqrt(2), so every direction covered
DIAMOND = Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                    (1.0, 0.0)))
# a window the diamond covers: its support reaches 1/sqrt(2) or more in every
# direction, and a window whose upper end a direction never reaches is refused
WINDOW = (0.3, 0.7)
_point = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


def one_direction(*robots, **kwargs):
    """evaluate_cr along theta = 0 only, where a robot's support is its x."""
    return evaluate_cr(Fleet(robots), theta_steps=1, **kwargs)


def path(*turns):
    """Polyline from the origin through the given vertices."""
    return Polyline(((0.0, 0.0),) + turns)


def straight(angle, length):
    """One-segment polyline along the bearing: a ray's path up to its length.

    A lone ray leaves half the plane uncovered, so probes of one direction
    take this path, which the event sweep measures, instead."""
    return path((length * math.cos(angle), length * math.sin(angle)))


# ------------------------------------------------------ single directions


def test_profile_single_ray_own_direction():
    # support equals elapsed time along the ray's own bearing, so every
    # line is hit at exactly its offset
    rep = one_direction(straight(0.0, 20.0), horizon=10.0, t_steps=512)
    assert rep.coverage_radius == pytest.approx(10.0)
    assert rep.cr_estimate == pytest.approx(1.0, rel=1e-12)
    assert rep.witness_time == pytest.approx(rep.witness.delta, rel=1e-12)


def test_profile_oblique_direction_break_times():
    phi = math.pi / 5
    rep = one_direction(straight(-phi, 20.0), horizon=10.0, t_steps=512)
    assert rep.coverage_radius == pytest.approx(10.0 * math.cos(phi), rel=1e-12)
    # the witness line is first reached when t cos(phi) passes its offset
    assert rep.witness_time * math.cos(phi) == pytest.approx(rep.witness.delta,
                                                             rel=1e-12)
    assert rep.cr_estimate == pytest.approx(1.0 / math.cos(phi), rel=1e-12)


def test_profile_values_strictly_increase():
    # a record must beat the running max by more than rounding: one robot
    # parks at x = 0.7071067811865475 and another reaches the next float up
    # at t = 3.12; that is a tie, not a line paid at t = 3.12
    x = 0.7071067811865475
    parked = path((x, 0.7))
    late = path((-1.0, -1.0), (float(np.nextafter(x, 1.0)), -1.0))
    rep = one_direction(parked, late, horizon=4.0, t_steps=9)
    assert rep.cr_estimate == pytest.approx(math.hypot(x, 0.7) / x, rel=1e-12)
    assert rep.witness_time < 1.0


@given(
    a=st.floats(0.0, 6.28),
    b=st.floats(0.1, 1.5),
    phase=st.floats(0.0, 6.28),
    walk=st.lists(_point, min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_profile_invariants_mixed_fleet(a, b, phase, walk):
    # a unit-speed robot starting at the origin cannot project farther than
    # the elapsed time, so no line is hit before its offset
    fleet = Fleet((DIAMOND, Ray(a), LogSpiral(growth=b, start_phase=phase),
                   AntipodalOf(path(*walk))))
    rep = evaluate_cr(fleet, horizon=6.0, theta_steps=12, t_steps=512)
    assert rep.cr_estimate >= 1.0 - 1e-9
    assert rep.witness_time >= rep.witness.delta - 1e-9
    assert rep.cr_estimate == rep.witness_time / rep.witness.delta


# ----------------------------------------------------- records to ratio


def test_records_to_ratio_worked_example():
    # x reaches 0.5 at t = 0.5, waits there until t = 3, then goes on: the
    # line just past 0.5 is paid at t = 3
    robot = path((0.5, 0.0), (0.5, 1.25), (0.5, 0.0), (2.0, 0.0))
    rep = one_direction(robot, horizon=6.0, t_steps=7, epsilon=0.5)
    assert rep.cr_estimate == 6.0
    assert rep.witness.delta == 0.5
    assert rep.witness_time == 3.0


def test_records_to_ratio_single_record_boundary():
    # the support x = t / 2 pays 2 on every line; the first eligible line,
    # just past epsilon, wins the tie
    robot = path((0.5, math.sqrt(0.75)))
    rep = one_direction(robot, horizon=2.0, t_steps=9, epsilon=0.25)
    assert rep.cr_estimate == pytest.approx(2.0, rel=1e-12)
    assert rep.witness.delta == 0.25
    assert rep.witness_time == pytest.approx(0.5, rel=1e-12)


def test_records_to_ratio_boundary_uses_preceding_value():
    # x waits at 0.9, just below epsilon, until t = 4.9: the boundary line
    # just past epsilon = 0.95 is paid when x passes 0.95, at t = 4.95, not
    # when it passes the preceding record value 0.9
    robot = path((0.9, 0.0), (0.9, 2.0), (0.9, 0.0), (3.0, 0.0))
    rep = one_direction(robot, horizon=8.0, t_steps=9, epsilon=0.95)
    assert rep.witness.delta == 0.95
    assert rep.witness_time == pytest.approx(4.95, rel=1e-12)
    assert rep.cr_estimate == pytest.approx(4.95 / 0.95, rel=1e-12)


def test_records_to_ratio_window_filters():
    # x waits at 0.5 until t = 4 (ratio 8), then at 2 until t = 10 (ratio 5)
    robot = path((0.5, 0.0), (0.5, 1.75), (0.5, 0.0), (2.0, 0.0), (2.0, 2.25),
                 (2.0, 0.0), (8.0, 0.0))
    rep = one_direction(robot, horizon=20.0, t_steps=21, epsilon=0.1)
    assert (rep.cr_estimate, rep.witness.delta, rep.witness_time) == (8.0, 0.5, 4.0)
    # the window drops the offset 0.5; its boundary line, just past 1, is
    # paid at t = 4.5
    rep = one_direction(robot, horizon=20.0, t_steps=21, epsilon=0.1,
                        window=(1.0, 5.0))
    assert (rep.cr_estimate, rep.witness.delta, rep.witness_time) == (5.0, 2.0, 10.0)


def test_records_to_ratio_uncovered():
    robot = path((0.5, 0.0))
    with pytest.raises(UncoveredDirectionError, match="coverage") as err:
        one_direction(robot, horizon=4.0, t_steps=9, epsilon=0.8)
    assert err.value.theta == 0.0


def test_records_to_ratio_record_jumping_over_window():
    # a spiral of growth 10 runs almost straight out: along theta = 0 its
    # support rises from below the window to about 9.7 with no extremum in
    # between, so T(L) / L grows over the whole window and the worst line is
    # the one at its upper end, passed where r cos(ln(r) / 10) = 5 at
    # t = (c / b) r.  Its root is bisected, not read off a time grid
    b, c = 10.0, math.hypot(1.0, 10.0)
    r0, r1 = 1.0, 10.0
    while r0 < (mid := 0.5 * (r0 + r1)) < r1:
        r0, r1 = (r0, mid) if mid * math.cos(math.log(mid) / b) > 5.0 else (mid, r1)
    rep = one_direction(LogSpiral(growth=b), horizon=10.0, t_steps=2, epsilon=0.1,
                        window=(1.0, 5.0))
    assert rep.witness.delta == 5.0
    assert rep.witness_time == pytest.approx(c / b * r1, rel=1e-12)
    assert rep.cr_estimate == pytest.approx(c / b * r1 / 5.0, rel=1e-12)
    # a straight path's support is linear between its events, so the line at
    # the window's lower end is measured exactly, however coarse the grid
    rep = one_direction(straight(0.0, 20.0), horizon=10.0, t_steps=2, epsilon=0.1,
                        window=(1.0, 5.0))
    assert (rep.cr_estimate, rep.witness.delta, rep.witness_time) == (1.0, 1.0, 1.0)


def test_records_to_ratio_rejects_bad_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        one_direction(Ray(0.0), horizon=10.0, epsilon=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_records_to_ratio_rejects_non_finite_epsilon(bad):
    # a window's lower end takes over from epsilon, but never from a bad one
    with pytest.raises(ValueError, match="epsilon must be finite"):
        one_direction(Ray(0.0), horizon=10.0, epsilon=bad, window=(1.0, 5.0))


# ------------------------------------------------------------- evaluate_cr


@pytest.mark.parametrize("n", [3, 4, 6])
def test_evaluate_cr_uniform_rays(n, ray_fleet):
    # n evenly spread unit-speed rays pay 1/cos(pi/n) against lines whose
    # normal bisects two adjacent headings
    report = evaluate_cr(ray_fleet(n), horizon=10.0, theta_steps=720, t_steps=1024)
    assert report.cr_estimate == pytest.approx(1.0 / math.cos(math.pi / n), abs=1e-3)


def test_evaluate_cr_witness_invariant(ray_fleet):
    report = evaluate_cr(ray_fleet(5), horizon=10.0, theta_steps=720, t_steps=1024)
    assert report.witness.delta > 0
    assert report.cr_estimate == pytest.approx(
        report.witness_time / report.witness.delta, rel=1e-9
    )


def test_evaluate_cr_report_fields(ray_fleet):
    report = evaluate_cr(ray_fleet(4), horizon=8.0, theta_steps=360, t_steps=512)
    assert isinstance(report, CRReport)
    assert report.horizon == 8.0
    assert report.theta_steps == 360
    assert report.t_steps == 512
    assert report.epsilon == pytest.approx(DEFAULT_EPSILON_FACTOR * 8.0)
    assert report.window is None
    # worst direction over the grid determines the coverage radius
    assert report.coverage_radius == pytest.approx(8.0 * math.cos(math.pi / 4), rel=1e-3)


def test_evaluate_cr_rotation_by_grid_step(ray_fleet):
    # rotating the fleet by exactly one theta-grid step relabels directions
    # without changing the measured ratio
    steps = 360
    base = evaluate_cr(ray_fleet(4), horizon=10.0, theta_steps=steps, t_steps=512,
                       window=(1.0, 5.0))
    turned = evaluate_cr(
        ray_fleet(4, offset=2.0 * math.pi / steps),
        horizon=10.0,
        theta_steps=steps,
        t_steps=512,
        window=(1.0, 5.0),
    )
    assert turned.cr_estimate == pytest.approx(base.cr_estimate, rel=1e-7)


def test_evaluate_cr_horizon_scale_free(ray_fleet):
    # ray fleets have no length scale; doubling the horizon (and epsilon
    # with it) leaves the ratio alone
    a = evaluate_cr(ray_fleet(5), horizon=10.0, theta_steps=360, t_steps=512)
    b = evaluate_cr(ray_fleet(5), horizon=20.0, theta_steps=360, t_steps=512)
    assert a.cr_estimate == pytest.approx(b.cr_estimate, rel=1e-9)


def test_evaluate_cr_deterministic(ray_fleet):
    one = evaluate_cr(ray_fleet(6), horizon=10.0, theta_steps=180, t_steps=512)
    two = evaluate_cr(ray_fleet(6), horizon=10.0, theta_steps=180, t_steps=512)
    assert one == two


def test_evaluate_cr_single_ray_uncovered():
    with pytest.raises(UncoveredDirectionError) as err:
        evaluate_cr(Fleet((Ray(0.0),)), horizon=10.0, theta_steps=90, t_steps=256)
    # the unreachable half plane lies behind the ray
    gap = abs(err.value.theta - math.pi)
    assert min(gap, 2 * math.pi - gap) < math.pi / 2 + 1e-9


def test_evaluate_cr_uncovered_reports_first_direction():
    # a ray covers horizon * cos(theta) ahead of it and nothing behind; the
    # error names the first grid direction below epsilon, not just any
    horizon, steps = 10.0, 90
    thetas = np.arange(steps) * (2.0 * math.pi / steps)
    reach = np.where(np.cos(thetas) > 0.0, horizon * np.cos(thetas), 0.0)
    first = int(np.argmax(reach < DEFAULT_EPSILON_FACTOR * horizon))
    with pytest.raises(UncoveredDirectionError, match="coverage") as err:
        evaluate_cr(Fleet((Ray(0.0),)), horizon=horizon, theta_steps=steps,
                    t_steps=256)
    assert err.value.theta == thetas[first]


def test_evaluate_cr_coverage_error_before_window_error():
    # theta = 0 behind a ray pointing at pi fails both checks: coverage wins
    with pytest.raises(UncoveredDirectionError, match="coverage") as err:
        evaluate_cr(Fleet((Ray(math.pi),)), horizon=10.0, theta_steps=90,
                    t_steps=256, window=(1.0, 5.0))
    assert err.value.theta == 0.0
    # ahead of a ray only the window fails
    with pytest.raises(UncoveredDirectionError, match="measurement window") as err:
        evaluate_cr(Fleet((Ray(0.0),)), horizon=10.0, theta_steps=90,
                    t_steps=256, window=(20.0, 30.0))
    assert err.value.theta == 0.0


def test_an_uncovered_ray_fleet_between_grid_directions_names_the_bisector():
    # the widest gap, 2 pi - 4 around theta = pi, reaches 10 cos(pi - 2) =
    # 4.16 < epsilon, while the one grid direction, theta = 0, reaches 10
    fleet = Fleet((Ray(0.0), Ray(2.0), Ray(-2.0)))
    with pytest.raises(UncoveredDirectionError, match="coverage 4.16147 < epsilon 5") as err:
        evaluate_cr(fleet, horizon=10.0, theta_steps=1, epsilon=5.0)
    assert err.value.theta == pytest.approx(math.pi, rel=1e-15)


def test_evaluate_cr_window_above_coverage():
    # a parked robot covers nothing beyond its endpoint, so a window past it
    # captures no records
    fleet = Fleet((Polyline(((0.0, 0.0), (1.0, 0.0))),))
    with pytest.raises(UncoveredDirectionError):
        evaluate_cr(
            fleet, horizon=10.0, theta_steps=8, t_steps=256,
            epsilon=0.5, window=(2.0, 3.0),
        )


def test_evaluate_cr_window_recorded(ray_fleet):
    report = evaluate_cr(
        ray_fleet(4), horizon=10.0, theta_steps=360, t_steps=512, window=(1.0, 5.0)
    )
    assert report.window == (1.0, 5.0)
    assert 1.0 <= report.witness.delta <= 5.0
    assert report.cr_estimate == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_evaluate_cr_validates_arguments(ray_fleet):
    fleet = ray_fleet(4)
    with pytest.raises(ValueError):
        evaluate_cr(fleet, horizon=0.0)
    with pytest.raises(ValueError):
        evaluate_cr(fleet, horizon=10.0, theta_steps=0)
    with pytest.raises(ValueError):
        evaluate_cr(fleet, horizon=10.0, epsilon=-1.0)
    with pytest.raises(ValueError):
        evaluate_cr(fleet, horizon=10.0, window=(5.0, 1.0))
    with pytest.raises(ValueError):
        evaluate_cr(fleet, horizon=10.0, t_steps=1)
    for t_start in (10.0, 20.0, -1.0):  # a grid from t_start up to the horizon
        with pytest.raises(ValueError, match=r"t_start must lie in \[0, horizon\)"):
            evaluate_cr(fleet, horizon=10.0, t_start=t_start)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["horizon", "epsilon", "t_start"])
def test_evaluate_cr_rejects_non_finite(ray_fleet, arg, bad):
    kwargs = {"horizon": 10.0, "theta_steps": 16, "t_steps": 64, arg: bad}
    # a plain ValueError, not an uncovered fleet, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{arg} must be finite") as err:
            evaluate_cr(ray_fleet(4), **kwargs)
    assert not isinstance(err.value, UncoveredDirectionError)


@pytest.mark.parametrize("kwargs,message", [
    ({"horizon": 1e-320}, "horizon 1e-320 is below the least normal float"),
    ({"epsilon": 1e-320}, "epsilon 1e-320 is below"),
    ({"horizon": 1e-306}, r"epsilon \(the default, 1e-3 of the horizon\) \S+ is below"),
    ({"window": (5e-324, 1.0)}, "window's lower end 5e-324 is below"),
    ({"window": (1.0, math.inf)}, "window's upper end must be finite and positive, got inf"),
], ids=["horizon", "epsilon", "default-epsilon", "window-lo", "window-inf"])
def test_evaluate_cr_rejects_subnormal_or_unbounded_scales(ray_fleet, kwargs, message):
    # scales below sys.float_info.min keep too few bits: four rays read 1.5
    # at horizon 1e-320 and 1.414031621 at epsilon 1e-320, not sqrt(2)
    kwargs = {"horizon": 10.0, **kwargs}
    with pytest.raises(ValueError, match=message) as err:
        evaluate_cr(ray_fleet(4), **kwargs)
    assert not isinstance(err.value, UncoveredDirectionError)


def test_evaluate_cr_takes_the_least_normal_scales(ray_fleet):
    tiny = sys.float_info.min
    for kwargs in ({"horizon": 2e3 * tiny}, {"horizon": 10.0, "epsilon": tiny},
                   {"horizon": 10.0, "epsilon": tiny, "window": (tiny, 1.0)}):
        assert evaluate_cr(ray_fleet(4), **kwargs).cr_estimate == pytest.approx(math.sqrt(2.0))


def test_evaluate_cr_refinement_stability(ray_fleet):
    # break times are exact for piecewise-linear supports, so the estimate
    # does not depend on the time-grid density
    coarse = evaluate_cr(ray_fleet(4), horizon=10.0, theta_steps=360, t_steps=128,
                         window=(1.0, 5.0))
    fine = evaluate_cr(ray_fleet(4), horizon=10.0, theta_steps=360, t_steps=4096,
                       window=(1.0, 5.0))
    assert coarse.cr_estimate == pytest.approx(fine.cr_estimate, rel=1e-7)


def test_evaluate_cr_more_robots_never_hurt(ray_fleet):
    # adding robots can only raise support curves, hence can only lower
    # (or keep) every record ratio measured on the same grids
    small = evaluate_cr(ray_fleet(3), horizon=10.0, theta_steps=360, t_steps=512)
    large = evaluate_cr(ray_fleet(6), horizon=10.0, theta_steps=360, t_steps=512)
    assert large.cr_estimate <= small.cr_estimate + 1e-9


# ------------------------------------------------- parity and tile carries

FLEETS = Path(__file__).resolve().parents[1] / "fleets"

# cr_estimate, witness theta, witness delta, witness_time, coverage_radius of
# every shipped config at its own grid (rays: the closed form, every witness
# the boundary line at epsilon on the smallest bisector of a widest gap;
# spirals: six directions that pay the same ratio up to rounding, which
# picks the witness), and of four ray fleets turned by half a theta step; a
# bare float is the theta of an UncoveredDirectionError.
PINNED = {
    "all-at-origin": 0.0,
    "double-spiral-2": (
        5.264428640053252, 4.1887902047863905, 1060.5629335024864,
        5583.257881709382, 469617.6195450498,
    ),
    "rays-10": (
        1.0514622242382674, 0.3141592653589793, 0.01,
        0.010514622242382672, 9.510565162951535,
    ),
    "rays-11": (
        1.0422171162264056, 0.28559933214452665, 0.01,
        0.010422171162264056, 9.594929736144973,
    ),
    "rays-12": (
        1.0352761804100832, 0.2617993877991494, 0.01,
        0.01035276180410083, 9.659258262890683,
    ),
    "rays-3": (
        1.9999999999999998, 1.0471975511965976, 0.01,
        0.019999999999999997, 5.000000000000001,
    ),
    "rays-4": (
        1.4142135623730951, 0.7853981633974483, 0.01,
        0.01414213562373095, 7.0710678118654755,
    ),
    "rays-5": (
        1.2360679774997898, 0.6283185307179586, 0.01,
        0.012360679774997897, 8.090169943749475,
    ),
    "rays-6": (
        1.154700538379252, 0.5235987755982988, 0.01,
        0.011547005383792514, 8.660254037844386,
    ),
    "rays-7": (
        1.1099162641747424, 0.4487989505128276, 0.01,
        0.011099162641747424, 9.009688679024192,
    ),
    "rays-8": (
        1.082392200292394, 0.39269908169872414, 0.01,
        0.010823922002923939, 9.238795325112868,
    ),
    "rays-9": (
        1.064177772475912, 0.3490658503988659, 0.01,
        0.01064177772475912, 9.396926207859085,
    ),
    "single-ray": 1.5707963267948966,
    "spiral-1": (
        13.811135312070979, 2.0943951023931953, 87.61925596190184,
        1210.1214000328082, 170.8163887449654,
    ),
    "rays-3-half-step": (
        1.9999999999999996, 1.0515608743265834, 0.01,
        0.019999999999999997, 5.000000000000001,
    ),
    "rays-4-half-step": (
        1.414213562373095, 0.789761486527434, 0.01,
        0.014142135623730949, 7.0710678118654755,
    ),
    "rays-7-half-step": (
        1.1099162641747424, 0.4531622736428134, 0.01,
        0.011099162641747424, 9.009688679024192,
    ),
    "rays-12-half-step": (
        1.035276180410083, 0.26616271092913524, 0.01,
        0.01035276180410083, 9.659258262890683,
    ),
}


def _shipped(name):
    fleet, _, ev = load_fleet_config(str(FLEETS / f"{name}.json"))
    kwargs = {k: ev[k] for k in ("theta_steps", "t_steps", "epsilon", "t_start") if k in ev}
    if "window" in ev:
        kwargs["window"] = tuple(ev["window"])
    return fleet, ev["horizon"], kwargs


def _half_step_rays(n):
    half = math.pi / DEFAULT_THETA_STEPS
    return Fleet(tuple(Ray(half + 2.0 * math.pi * k / n) for k in range(n))), 10.0, {}


def test_pinned_covers_every_shipped_config():
    shipped = {p.stem for p in FLEETS.glob("*.json")}
    assert shipped == {k for k in PINNED if not k.endswith("-half-step")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_evaluate_cr_matches_pinned_values(name):
    if name.endswith("-half-step"):
        fleet, horizon, kwargs = _half_step_rays(int(name.split("-")[1]))
    else:
        fleet, horizon, kwargs = _shipped(name)
    want = PINNED[name]
    if isinstance(want, float):
        with pytest.raises(UncoveredDirectionError) as err:
            evaluate_cr(fleet, horizon, **kwargs)
        assert err.value.theta == want
        return
    rep = evaluate_cr(fleet, horizon, **kwargs)
    got = (rep.cr_estimate, rep.witness.theta, rep.witness.delta, rep.witness_time,
           rep.coverage_radius)
    assert got[1] == want[1]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(k for k in PINNED if k.startswith("rays-")))
def test_ray_fleets_pay_the_closed_form_on_the_smallest_bisector(name):
    # n evenly spread rays, on the grid or off it: 1/cos(pi/n) to 1e-15,
    # witnessed on the smallest bisector of two adjacent headings
    n = int(name.split("-")[1])
    fleet, horizon, kwargs = (_half_step_rays(n) if name.endswith("-half-step")
                              else _shipped(name))
    rep = evaluate_cr(fleet, horizon, **kwargs)
    assert rep.cr_estimate == pytest.approx(1.0 / math.cos(math.pi / n), rel=1e-15, abs=0.0)
    first = min(robot.angle % (2.0 * math.pi) for robot in fleet.robots)
    assert rep.witness.theta == pytest.approx(first + math.pi / n, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", range(3, 13))
def test_shipped_ray_fleets_match_the_closed_form(n):
    # ray fleets are evaluated in closed form, so only rounding separates
    # the estimate from 1/cos(pi/n)
    fleet, horizon, kwargs = _shipped(f"rays-{n}")
    rep = evaluate_cr(fleet, horizon, **kwargs)
    assert rep.cr_estimate == pytest.approx(1.0 / math.cos(math.pi / n), abs=1e-12)


def _outcome(fleet, **kwargs):
    """The CRReport, or the uncovered error."""
    try:
        return evaluate_cr(fleet, **kwargs)
    except UncoveredDirectionError as exc:
        return ("uncovered", exc.theta, str(exc))


def _assert_tile_invariant(monkeypatch, fleet, tiles, **kwargs):
    want = _outcome(fleet, **kwargs)
    assert isinstance(want, CRReport), want  # every fleet here is covered
    for cells in tiles:
        monkeypatch.setattr(evaluator, "TILE_CELLS", cells)
        assert _outcome(fleet, **kwargs) == want, cells
    monkeypatch.undo()
    return want


@given(
    walks=st.lists(st.lists(_point, min_size=1, max_size=5), min_size=0, max_size=3),
    window=st.sampled_from([None, WINDOW]),
)
@settings(max_examples=15, deadline=None)
def test_tile_size_never_changes_the_report(walks, window):
    # a diamond anchor covers every direction; random walks add ties, flat
    # stretches, support crossings and records that straddle tile edges.  An
    # event tile holds TILE_CELLS // (24 directions x 1 to 4 robots) cells,
    # at least one: here 1 to 125 of them
    robots = (DIAMOND,) + tuple(path(*w) for w in walks)
    with pytest.MonkeyPatch.context() as mp:
        _assert_tile_invariant(mp, Fleet(robots), (1, 100, 300, 1000, 3000),
                               horizon=12.0, theta_steps=24, window=window)


@given(walk=st.lists(_point, min_size=1, max_size=5))
@settings(max_examples=10, deadline=None)
def test_tile_size_never_changes_mixed_grid_fleet(walk):
    # a spiral puts every robot on per-direction times, its extrema among
    # the polyline breakpoints, and its swaps with the others into record
    # cells: tile edges fall among them and inside the cells whose roots
    # are bisected, in tiles of 1, 2, 5 and every cell (TILE_CELLS // (24
    # directions x 3 robots) = TILE_CELLS // 72).  The spiral and the
    # diamond cover 0.79 in every direction by the horizon, above the
    # window.  The time grid it once took is still passed and ignored
    fleet = Fleet((LogSpiral(growth=0.4), DIAMOND, path(*walk)))
    with pytest.MonkeyPatch.context() as mp:
        _assert_tile_invariant(mp, fleet, (1, 144, 360, 1 << 20), horizon=12.0,
                               theta_steps=24, t_steps=300, window=(0.5, 0.75),
                               t_start=0.3)


def test_record_sweep_overflow_stays_silent():
    # a robot drifting 5e-324 sideways makes the support step between two
    # samples subnormal in some directions, so an off-record secant fraction
    # overflows; no sink reads it and no warning may escape
    fleet = Fleet((DIAMOND, path((5e-324, 3.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = evaluate_cr(fleet, horizon=12.0, theta_steps=24, t_steps=97)
    assert math.isfinite(rep.cr_estimate)


def test_tile_size_never_changes_windowed_spiral(monkeypatch):
    # a lone spiral is sampled at its extrema, per direction, in tiles of
    # TILE_CELLS // (6 directions x 1 robot) cells: here 1, 2, 5 and every
    # cell.  It covers 159 in every direction by the horizon, above the window
    fleet = Fleet((LogSpiral(growth=0.3),))
    _assert_tile_invariant(monkeypatch, fleet, (6, 12, 30, 3000), t_steps=3001,
                           horizon=2000.0, theta_steps=6, epsilon=5.0,
                           window=(5.0, 150.0), t_start=0.05)


def test_tile_size_never_changes_tied_ratios(monkeypatch):
    # a straight path with a vertex at every whole x: along its own heading
    # every cell ends in a record whose ratio is exactly 1, and the first of
    # the tied maxima, the boundary line at epsilon, must win whichever
    # tile of one to seven cells it falls in
    straight = path(*((float(x), 0.0) for x in range(1, 13)))
    want = _assert_tile_invariant(monkeypatch, Fleet((straight,)), (1, 2, 3, 7),
                                  horizon=10.0, theta_steps=1)
    assert (want.cr_estimate, want.witness.delta) == (1.0, 0.01)


# ------------------------------------------------------------ witness replay


def _knots(robot, horizon):
    """Times and points between which the robot moves in straight lines."""
    if isinstance(robot, AntipodalOf):
        ts, ps = _knots(robot.inner, horizon)
        return ts, -ps
    if isinstance(robot, Ray):
        end = horizon * np.array([math.cos(robot.angle), math.sin(robot.angle)])
        return np.array([0.0, horizon]), np.array([[0.0, 0.0], end])
    verts = np.array(robot.vertices)
    ts = np.concatenate(([0.0], np.cumsum(np.hypot(*np.diff(verts, axis=0).T))))
    # parked at the last vertex until the horizon
    return np.append(ts, max(ts[-1], horizon)), np.vstack((verts, verts[-1:]))


def _first_hit(fleet, theta, delta, horizon):
    """Earliest time any robot's support reaches delta, exact for these paths."""
    u = np.array([math.cos(theta), math.sin(theta)])
    best = math.inf
    for robot in fleet.robots:
        ts, ps = _knots(robot, horizon)
        s = ps @ u
        k = int(np.argmax(s >= delta))
        if s[k] < delta:
            continue
        t = ts[0] if k == 0 else (
            ts[k - 1] + (delta - s[k - 1]) / (s[k] - s[k - 1]) * (ts[k] - ts[k - 1]))
        best = min(best, t)
    return best


_walk = st.lists(_point, min_size=1, max_size=5).map(lambda w: path(*w))
_robot = st.one_of(st.floats(0.0, 2.0 * math.pi).map(Ray), _walk,
                   _walk.map(AntipodalOf))
# something that covers every direction: a diamond, its antipode, or a fan
# of at least three rays
_anchor = st.one_of(
    st.just((DIAMOND,)), st.just((AntipodalOf(DIAMOND),)),
    st.builds(lambda n, a: tuple(Ray(a + 2.0 * math.pi * k / n) for k in range(n)),
              st.integers(3, 6), st.floats(0.0, 2.0 * math.pi)),
)


@given(anchor=_anchor, extra=st.lists(_robot, max_size=3),
       window=st.sampled_from([None, WINDOW]))
@settings(max_examples=100, deadline=None)
def test_witness_replays(anchor, extra, window):
    # the fleet reaches a line just past the witness, or, where the witness
    # is the line just below a record's end, a line just short of it, at
    # the reported time: the estimate is a ratio the fleet really pays, not
    # a grid artefact
    fleet = Fleet(anchor + tuple(extra))
    horizon = 12.0
    rep = evaluate_cr(fleet, horizon, theta_steps=24, t_steps=97, window=window)
    hits = [_first_hit(fleet, rep.witness.theta, rep.witness.delta * side, horizon)
            for side in (1.0 + 1e-12, 1.0 - 1e-12)]
    assert min(abs(hit - rep.witness_time) for hit in hits) <= 1e-9 * horizon


# ----------------------------------------------------------- exact events


def _heading_gap(robots):
    """Widest gap between the bearings of rays and of antipodes of rays."""
    headings = []
    for robot in robots:
        turn = 0.0
        while isinstance(robot, AntipodalOf):
            robot, turn = robot.inner, math.pi - turn
        headings.append(robot.angle + turn)
    a = np.sort(np.mod(headings, 2.0 * math.pi))
    return float(np.diff(np.append(a, a[0] + 2.0 * math.pi)).max())


def _oracle_cr(fleet, horizon, theta_steps, lo, hi):
    """Worst first-hit ratio over the grid directions, one direction at a time.

    Each robot's support is interpolated between its knots.  The events are
    every knot plus every time two robots' supports cross between knots.
    The lines are those just past lo and just past each value the running
    max takes at an event, each paying its exact first hit; the line just
    below each record value, first reached at its event; and the line at
    hi, where the running max passes it.  Only offsets in [lo, hi] count.
    """
    knots = [_knots(robot, horizon) for robot in fleet.robots]
    times = np.unique(np.concatenate([ts for ts, _ in knots] + [[horizon]]))
    times = times[times <= horizon]
    worst = -math.inf
    for theta in np.arange(theta_steps) * (2.0 * math.pi / theta_steps):
        u = np.array([math.cos(theta), math.sin(theta)])
        s = [np.interp(times, ts, ps @ u) for ts, ps in knots]
        events = [times]
        for a in range(len(s)):
            for b in range(a):
                d = s[a] - s[b]
                k = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
                events.append(times[k] + d[k] / (d[k] - d[k + 1])
                              * (times[k + 1] - times[k]))
        ev = np.sort(np.concatenate(events))
        h = np.max([np.interp(ev, ts, ps @ u) for ts, ps in knots], axis=0)
        run = np.maximum.accumulate(h)
        for delta in [lo, *np.unique(run[(run >= lo) & (run <= hi)])]:
            hit = _first_hit(fleet, theta, delta * (1.0 + 1e-12), horizon)
            if hit <= horizon:
                worst = max(worst, hit / delta)
        rec = (h[1:] > run[:-1] * (1.0 + 1e-9)) & (h[1:] >= lo) & (h[1:] <= hi)
        worst = max(worst, *(ev[1:][rec] / h[1:][rec]), -math.inf)
        if run[-1] > hi:
            worst = max(worst, _first_hit(fleet, theta, hi, horizon) / hi)
    return worst


@given(anchor=_anchor, extra=st.lists(_robot, max_size=3),
       window=st.sampled_from([None, WINDOW]))
@settings(max_examples=100, deadline=None)
def test_piecewise_linear_fleets_match_an_exact_oracle(anchor, extra, window):
    # without a spiral the sweep samples every event, so its estimate is the
    # exact worst ratio over the grid directions, whatever the time grid
    fleet = Fleet(anchor + tuple(extra))
    horizon, steps = 12.0, 8
    rep = evaluate_cr(fleet, horizon, theta_steps=steps, t_steps=64, window=window)
    lo, hi = window or (0.0, math.inf)
    want = _oracle_cr(fleet, horizon, steps, max(lo, rep.epsilon), hi)
    if all(isinstance(robot, Ray) for robot in fleet.robots):
        # a ray fleet is exact over every direction, not only the grid's;
        # the oracle pays each line 1e-12 past its offset
        assert rep.cr_estimate == pytest.approx(
            1.0 / math.cos(0.5 * _heading_gap(fleet.robots)), rel=1e-12)
        assert want <= rep.cr_estimate * (1.0 + 2e-12)
    else:
        assert rep.cr_estimate == pytest.approx(want, rel=1e-9)


@given(anchor=_anchor, extra=st.lists(_robot, max_size=3),
       window=st.sampled_from([None, WINDOW]))
@settings(max_examples=25, deadline=None)
def test_piecewise_linear_fleets_ignore_the_time_grid(anchor, extra, window):
    fleet = Fleet(anchor + tuple(extra))
    kwargs = {"horizon": 12.0, "theta_steps": 24, "window": window}
    want = evaluate_cr(fleet, t_steps=4096, **kwargs)
    for grid in ({"t_steps": 2}, {"t_start": 0.5}):
        rep = evaluate_cr(fleet, **grid, **kwargs)
        assert replace(rep, t_steps=want.t_steps) == want


def test_t_start_changes_nothing_on_a_spiral_already_past_epsilon():
    # the spiral points along theta = 0 at t = 1, its support there already
    # past epsilon.  No fleet is sampled on the time grid, so a grid from
    # t_start = 1 leaves the report as it is, offsets below that support
    # included, and the ratio is the closed form's
    b = 0.3
    r1 = b / math.sqrt(1.0 + b * b)
    spiral = Fleet((LogSpiral(growth=b, start_phase=-math.log(r1) / b),))
    kwargs = {"horizon": 200.0, "theta_steps": 1, "t_steps": 4096, "epsilon": 0.01}
    rep = evaluate_cr(spiral, t_start=1.0, **kwargs)
    assert rep == evaluate_cr(spiral, **kwargs)
    assert rep.witness.delta < r1
    assert rep.cr_estimate == pytest.approx(steady_state_cr(1, b), rel=1e-12)


def test_t_start_changes_nothing_on_a_six_direction_spiral():
    # at t = 1 the spiral's support in some of the six directions has fallen
    # below offsets it passed earlier; those offsets are measured whatever
    # t_start says
    spiral = Fleet((LogSpiral(growth=0.3),))
    kwargs = {"horizon": 200.0, "theta_steps": 6, "t_steps": 4096, "epsilon": 0.01}
    rep = evaluate_cr(spiral, t_start=1.0, **kwargs)
    assert rep == evaluate_cr(spiral, **kwargs)
    assert rep.cr_estimate == pytest.approx(steady_state_cr(1, 0.3), rel=1e-12)


def test_the_line_just_below_a_direction_coverage_is_measured():
    # the diamond's support along theta = 10 * 2pi / 64 rises 0.5556 ->
    # 0.8315 over t in [1, 1 + sqrt 2] and never passes 0.8315 again: the
    # line just below it is first reached at 1 + sqrt 2, a ratio of 2.9036,
    # while every line from epsilon up pays at most 1.80 before it.  The
    # diamond is turned so that this direction is theta = 0.
    theta = 10.0 * 2.0 * math.pi / 64.0
    c, s = math.cos(theta), math.sin(theta)
    turned = Polyline(tuple((c * x + s * y, c * y - s * x) for x, y in DIAMOND.vertices))
    rep = one_direction(turned, horizon=12.0)
    assert rep.cr_estimate == pytest.approx((1.0 + math.sqrt(2.0)) / s, rel=1e-12)
    assert rep.witness.delta == pytest.approx(s, rel=1e-12)
    assert rep.witness_time == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)


def test_the_worst_line_can_be_paid_at_a_crossing():
    # along theta = 0, a reaches x = 1 at t = 1 and creeps on at x-speed
    # 0.1, while b runs back to x = -1 first and out at full speed from
    # there: b overtakes a at t = 29/9, x = 11/9, strictly inside the cell
    # [1, 11] between their turns.  T(L) / L rises along a up to that
    # crossing and falls along b after it, so the worst line is the one just
    # above 11/9, paid at 29/9: 29/11, where the lines at the events pay at
    # most 11/9
    a = path((1.0, 0.0), (2.0, 10.0 * math.sqrt(0.99)))
    b = path((-1.0, 0.0), (10.0, 0.0))
    fleet = Fleet((a, b))
    rep = one_direction(a, b, horizon=12.0)
    assert rep.cr_estimate == pytest.approx(29.0 / 11.0, rel=1e-12)
    assert rep.witness.delta == pytest.approx(11.0 / 9.0, rel=1e-12)
    assert rep.cr_estimate == pytest.approx(
        max(_scalar_oracle(fleet, 12.0, 1, rep.epsilon, math.inf)), rel=1e-12)
    hit = min(first_hit_time(robot, rep.witness, 12.0, tol=0.0) for robot in fleet.robots)
    assert hit == pytest.approx(rep.witness_time, rel=1e-12)


@pytest.mark.parametrize("fleet, horizons", [
    # x = 7 lies inside the window and no robot ever reaches it: the polyline
    # parks at x = 6 and the rays head away from it
    (Fleet((path((6.0, 0.0)), Ray(2.0 * math.pi / 3.0), Ray(4.0 * math.pi / 3.0))),
     (10.0, 100.0)),
    # two robots that park within 1.6 of the origin
    (Fleet((Polyline(tuple((1.6 * x, 1.6 * y) for x, y in DIAMOND.vertices)),
            path((0.5, 0.5), (-0.2, 1.1)))), (60.0, 600.0)),
])
def test_a_window_the_horizon_does_not_cover_is_refused(fleet, horizons):
    # the lines of the window beyond the coverage stay unhit however long
    # the fleet runs: no ratio measured within a horizon bounds its CR
    for horizon in horizons:
        with pytest.raises(UncoveredDirectionError, match="upper end 20 within") as err:
            evaluate_cr(fleet, horizon, epsilon=1.0, window=(1.0, 20.0))
        assert err.value.theta == 0.0


@pytest.mark.parametrize("fleet", [
    Fleet(tuple(Ray(k * math.pi / 2.0) for k in range(4))),
    # climbs in unit steps, so every record lies above the window's upper end
    Fleet((path(*((float(k), 0.0) for k in range(1, 8))),)),
], ids=["rays", "polyline"])
def test_an_epsilon_above_the_window_is_refused(fleet):
    # lines below epsilon are never measured, so [max(epsilon, lo), hi] would
    # be empty: the default 1e-3 * 4000 = 4 once reported a witness at 4, and
    # the polyline an uncovered window
    with pytest.raises(ValueError, match=r"^epsilon 4 \(the default, 1e-3 of the horizon\) "
                                         r"exceeds the window's upper end 2, "):
        evaluate_cr(fleet, 4000.0, theta_steps=1, window=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"^epsilon 5 exceeds the window's upper end 2, "):
        evaluate_cr(fleet, 4000.0, theta_steps=1, epsilon=5.0, window=(1.0, 2.0))
    rep = evaluate_cr(fleet, 4000.0, theta_steps=1, epsilon=2.0, window=(1.0, 2.0))
    assert rep.witness.delta == 2.0


@pytest.mark.parametrize("window,where", [
    (None, "at offsets of epsilon 1 or more"),
    ((1.0, 1.0 + 1e-13), "inside the measurement window (1.0, 1.0000000000001)"),
])
def test_a_direction_without_records_names_its_offsets(window, where):
    # the rise from 1 - 1e-13 to 1 + 1e-13 is a tie up to rounding, not a
    # record, and the first rise ends below 1
    fleet = Fleet((path((1.0 - 1e-13, 0.0), (0.0, 0.0), (1.0 + 1e-13, 0.0)),))
    with pytest.raises(UncoveredDirectionError) as err:
        evaluate_cr(fleet, 10.0, theta_steps=1, epsilon=1.0, window=window)
    assert str(err.value) == f"direction theta=0.000000 has no records {where}"


# --------------------------------------------------------- ray fleets


def _antipodes(robot, depth):
    for _ in range(depth):
        robot = AntipodalOf(robot)
    return robot


# rays at arbitrary bearings, some wrapped once or twice in AntipodalOf
_ray_fleet = st.lists(
    st.builds(_antipodes, st.floats(-20.0, 20.0).map(Ray),
              st.sampled_from([0, 0, 1, 2])),
    min_size=1, max_size=64)
_ray_window = st.one_of(
    st.none(),
    st.tuples(st.floats(1e-3, 1.0), st.floats(1.01, 100.0)).map(lambda w: (w[0], w[0] * w[1])))


def _ray_outcome(robots, horizon, window):
    """The CR of a ray fleet, or the message of the error it raises: uncovered,
    or an epsilon above the window's upper end."""
    try:
        return evaluate_cr(Fleet(tuple(robots)), horizon, theta_steps=16,
                           window=window).cr_estimate
    except ValueError as err:
        return str(err)


@given(robots=_ray_fleet, horizon=st.floats(0.1, 1e3), window=_ray_window)
@settings(max_examples=150, deadline=None)
def test_ray_fleets_are_the_closed_form(robots, horizon, window):
    # the widest gap g between headings sets the ratio, 1/cos(g/2), and the
    # fleet is uncovered exactly where horizon * cos(g/2) falls short of lo,
    # the larger of epsilon and the window's lower end, or of the window's
    # upper end; only a shortfall below epsilon is an error without a window.
    # A default epsilon above the window's upper end is refused first
    fleet, steps = Fleet(tuple(robots)), 8
    g = _heading_gap(robots)
    epsilon = DEFAULT_EPSILON_FACTOR * horizon
    if window and epsilon > window[1]:
        with pytest.raises(ValueError, match="exceeds the window's upper end"):
            evaluate_cr(fleet, horizon, theta_steps=steps, window=window)
        return
    lo = max(epsilon, window[0]) if window else epsilon
    reach = horizon * math.cos(0.5 * g) if g < math.pi else 0.0
    if reach < (max(lo, window[1]) if window else lo):
        with pytest.raises(UncoveredDirectionError,
                           match=None if reach < epsilon else "measurement window"):
            evaluate_cr(fleet, horizon, theta_steps=steps, window=window)
        return
    rep = evaluate_cr(fleet, horizon, theta_steps=steps, window=window)
    assert rep.cr_estimate == pytest.approx(1.0 / math.cos(0.5 * g), rel=1e-12)
    assert rep.cr_estimate == rep.witness_time / rep.witness.delta
    assert rep.witness.delta == lo
    assert rep.coverage_radius == pytest.approx(reach, rel=1e-12)
    if len(robots) <= 8:  # at least every grid direction's exact ratio
        want = _oracle_cr(fleet, horizon, steps, lo, window[1] if window else math.inf)
        assert want <= rep.cr_estimate * (1.0 + 2e-12)


@given(robots=_ray_fleet, turn=st.floats(-10.0, 10.0), horizon=st.floats(0.1, 1e3),
       window=_ray_window)
@settings(max_examples=100, deadline=None)
def test_a_ray_fleet_turned_by_any_angle_keeps_its_ratio(robots, turn, horizon, window):
    # not only by a multiple of the grid step
    def turned(robot):
        if isinstance(robot, AntipodalOf):
            return AntipodalOf(turned(robot.inner))
        return Ray(robot.angle + turn)

    before = _ray_outcome(robots, horizon, window)
    after = _ray_outcome([turned(robot) for robot in robots], horizon, window)
    if isinstance(before, str) != isinstance(after, str):
        # only a fleet within rounding of its coverage threshold may flip: the
        # largest of epsilon and the window's ends
        need = max(DEFAULT_EPSILON_FACTOR * horizon, *(window or ()))
        assert horizon * math.cos(0.5 * _heading_gap(robots)) == pytest.approx(need, rel=1e-12)
    elif not isinstance(before, str):
        assert after == pytest.approx(before, rel=1e-12)


@given(robots=_ray_fleet, extra=st.floats(-20.0, 20.0), horizon=st.floats(0.1, 1e3),
       window=_ray_window)
@settings(max_examples=100, deadline=None)
def test_adding_a_ray_never_raises_the_ratio(robots, extra, horizon, window):
    # a new heading can only split a gap; the slack is rounding of the gaps
    before = _ray_outcome(robots, horizon, window)
    after = _ray_outcome(robots + [Ray(extra)], horizon, window)
    if isinstance(before, str):
        return
    assert not isinstance(after, str)
    assert after <= before * (1.0 + 1e-12)


def test_a_large_ray_fleet_holds_no_pairwise_arrays():
    # 128 rays: no direction grid and no crossing of every pair of robots
    fleet = Fleet(tuple(Ray(0.1 + 2.0 * math.pi * k / 128) for k in range(128)))
    tracemalloc.start()
    try:
        rep = evaluate_cr(fleet, horizon=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cr_estimate == pytest.approx(1.0 / math.cos(math.pi / 128), rel=1e-12)
    assert peak < 1 << 20


# ------------------------------------------------------------------- spirals


def test_a_nearly_circular_spiral_is_refused_not_swept():
    # growth 1e-7 turns some 4e7 times between radius epsilon = 1e-9 and
    # the horizon: too many events to hold, so the input is refused
    fleet = Fleet((LogSpiral(growth=1e-7), Ray(0.0), Ray(2.1), Ray(4.2)))
    with pytest.raises(ValueError, match="turns 43976140 times"):
        evaluate_cr(fleet, horizon=1e4, theta_steps=8, epsilon=1e-9)


def test_a_spiral_sweep_stays_small():
    # events, not a 200 000-step time grid: a few dozen samples per direction
    fleet, horizon, kwargs = _shipped("spiral-1")
    tracemalloc.start()
    try:
        evaluate_cr(fleet, horizon, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _spiral_support(spiral, theta, t):
    """Support of a LogSpiral in direction theta, from its closed form."""
    b = spiral.growth
    r = b * t / math.hypot(1.0, b)
    turn = math.log(r) / b if r > 0.0 else 0.0
    phi = spiral.start_phase + (turn if spiral.chirality == "ccw" else -turn)
    return r * math.cos(phi - theta)


def _track(robot, theta, lo, horizon):
    """(times, support, straight): the robot's support in direction theta,
    monotone between consecutive times and below lo before the first."""
    if isinstance(robot, AntipodalOf):
        ts, f, straight = _track(robot.inner, theta, lo, horizon)
        return ts, (lambda t: -f(t)), straight
    if isinstance(robot, LogSpiral):
        # peaks and troughs where phi - theta is +alpha (ccw) or -alpha (cw)
        # modulo pi, alpha = arctan b: log r = b (alpha +- (theta - phi0) + k pi)
        b, c = robot.growth, math.hypot(1.0, robot.growth)
        sign = 1.0 if robot.chirality == "ccw" else -1.0
        x0 = math.atan(b) + sign * (theta - robot.start_phase)
        start = min(c * lo / b, horizon)  # radius lo
        ts = [start]
        k = math.floor((math.log(b * start / c) / b - x0) / math.pi)
        while (t := c / b * math.exp(b * (x0 + k * math.pi))) < horizon:
            if t > start:
                ts.append(t)
            k += 1
        ts.append(horizon)
        return ts, (lambda t: _spiral_support(robot, theta, t)), False
    knots, pts = _knots(robot, horizon)
    s = pts @ np.array([math.cos(theta), math.sin(theta)])
    return list(knots), (lambda t: float(np.interp(t, knots, s))), True


def _bisect(g, t0, t1):
    """The later end once no float lies between: g(t0) <= 0 < g(t1)."""
    while t0 < (mid := 0.5 * (t0 + t1)) < t1:
        t0, t1 = (t0, mid) if g(mid) > 0.0 else (mid, t1)
    return t1


def _pass(track, level):
    """Exact first time a robot's support exceeds level, inf if never."""
    ts, f, straight = track
    for t0, t1 in zip(ts, ts[1:]):
        f0, f1 = f(t0), f(t1)
        if f1 > level:
            if straight:
                return t0 + (level - f0) / (f1 - f0) * (t1 - t0)
            return _bisect(lambda t: f(t) - level, t0, t1)
    return math.inf


def _scalar_oracle(fleet, horizon, theta_steps, lo, hi):
    """Each grid direction's worst ratio, -inf without a line, one robot at a time.

    Events are every robot's knots and support extrema, and every time two
    robots' supports change order between events: sign changes of their
    difference at nine points per interval, bisected.  The lines are those
    just past lo and just past each running-max value at an event, and the
    line at hi, each paying the minimum over robots of their exact first
    hits; and the line just below each record value, reached at its event.
    """
    worst = []
    for theta in np.arange(theta_steps) * (2.0 * math.pi / theta_steps):
        tracks = [_track(robot, float(theta), lo, horizon) for robot in fleet.robots]
        events = {0.0, horizon}.union(*(ts for ts, _, _ in tracks))
        for (ta, fa, _), (tb, fb, _) in itertools.combinations(tracks, 2):
            cuts = sorted(set(ta) | set(tb))
            for u, v in zip(cuts, cuts[1:]):
                grid = np.linspace(u, v, 9)
                d = [fa(t) - fb(t) for t in grid]
                for k in range(8):
                    if (d[k] < 0.0) != (d[k + 1] < 0.0):
                        sign = 1.0 if d[k] < 0.0 else -1.0
                        events.add(_bisect(lambda t: sign * (fa(t) - fb(t)),
                                           grid[k], grid[k + 1]))
        events = sorted(events)
        h = [max(f(t) for _, f, _ in tracks) for t in events]
        run = np.maximum.accumulate(h)

        def first(level):
            return min(_pass(track, level) for track in tracks)

        lines = [(lo, first(lo * (1.0 + 1e-12)))]
        lines += [(m, first(m * (1.0 + 1e-12))) for m in set(run) if lo <= m <= hi]
        lines += [(v, t) for t, v, m in zip(events[1:], h[1:], run[:-1])
                  if v > m * (1.0 + 1e-9) and lo <= v <= hi]
        if run[-1] > hi:
            lines.append((hi, first(hi)))
        worst.append(max([-math.inf] + [t / level for level, t in lines if t <= horizon]))
    return worst


_spiral = st.builds(LogSpiral, growth=st.floats(0.2, 1.0),
                    start_phase=st.floats(0.0, 2.0 * math.pi),
                    chirality=st.sampled_from(["ccw", "cw"]))


@given(spiral=_spiral,
       partner=st.one_of(st.just(()), st.just("antipode"), _spiral.map(lambda s: (s,))),
       extra=st.lists(_robot, max_size=3), window=st.sampled_from([None, (0.3, 2.0)]))
# uncovered at theta = pi/2 with coverage 1.696 at the horizon, though the
# walk's last vertex, reached after it, lies 3 out
@example(spiral=LogSpiral(1.0, 0.0, "cw"), partner=(),
         extra=[path((3.0, -4.0), (-2.0, 3.0))], window=(0.3, 2.0))
@settings(max_examples=30, deadline=None)
def test_mixed_fleets_match_a_scalar_oracle(spiral, partner, extra, window):
    # a spiral (its own anchor: it turns through every direction), maybe
    # its antipode or a second spiral, plus rays, walks and antipodal walks
    partner = (AntipodalOf(spiral),) if partner == "antipode" else partner
    fleet = Fleet((spiral,) + partner + tuple(extra))
    horizon, steps = 12.0, 4
    lo, hi = window or (0.0, math.inf)
    want = _scalar_oracle(fleet, horizon, steps, max(lo, 1e-3 * horizon), hi)
    try:
        rep = evaluate_cr(fleet, horizon, theta_steps=steps, window=window)
    except UncoveredDirectionError as err:
        # a direction with no line inside, or whose coverage stays below hi
        j = round(err.theta / (2.0 * math.pi / steps))
        tracks = [_track(robot, err.theta, max(lo, 1e-3 * horizon), horizon)
                  for robot in fleet.robots]
        reach = max(f(min(t, horizon)) for ts, f, _ in tracks for t in ts)
        assert want[j] == -math.inf or reach < hi * (1.0 + 1e-12)
        return
    assert rep.cr_estimate == pytest.approx(max(want), rel=1e-9)


def test_a_spiral_and_a_walk_swapping_places_in_one_cell():
    # along theta = 0 the spiral and the walk out to (0.8, 3.73) both rise
    # through the running max inside one cell and change places there; the
    # sweep must sample the swap, or it reports 4.77 instead of 6.60
    fleet = Fleet((LogSpiral(growth=0.44, start_phase=3.06),
                   path((-1.0, -3.6)), path((0.8, 3.73), (1.04, -0.73))))
    rep = evaluate_cr(fleet, 12.0, theta_steps=4)
    want = _scalar_oracle(fleet, 12.0, 4, rep.epsilon, math.inf)
    assert rep.cr_estimate == pytest.approx(max(want), rel=1e-9)
    assert rep.cr_estimate == pytest.approx(6.6014, abs=1e-4)



# ------------------------------------------------------------ spiral roots


def test_a_spiral_and_its_antipode_share_one_root_search(monkeypatch):
    # double-spiral-2's 15 record columns per robot, searched as one
    calls, rise = [], evaluator._rise_time
    monkeypatch.setattr(evaluator, "_rise_time", lambda *a: calls.append(a) or rise(*a))
    fleet, horizon, kwargs = _shipped("double-spiral-2")
    evaluate_cr(fleet, horizon, **kwargs)
    ((robot, u, level, t0, t1),) = calls
    assert robot == fleet.robots[0] and len(level) == 30


def test_a_spiral_and_its_antipodes_share_one_extrema_call(monkeypatch):
    # an antipode turns when its inner spiral does, so its event rows would
    # repeat the spiral's and add only zero-length cells
    calls, extrema = [], evaluator.support_extrema
    monkeypatch.setattr(evaluator, "support_extrema",
                        lambda robot, *a: calls.append(robot) or extrema(robot, *a))
    fleet, horizon, kwargs = _shipped("double-spiral-2")
    spiral = fleet.robots[0]
    tripled = Fleet((*fleet.robots, AntipodalOf(AntipodalOf(spiral))))
    want, got = evaluate_cr(fleet, horizon, **kwargs), evaluate_cr(tripled, horizon, **kwargs)
    assert calls == [spiral, spiral]  # once per evaluation
    assert (got.cr_estimate, got.witness, got.witness_time) == (
        want.cr_estimate, want.witness, want.witness_time)


def test_extrema_errors_name_the_first_robot_with_the_spiral():
    # a phase so large that floats cannot number its turns
    spiral = LogSpiral(0.3, start_phase=1e308)
    fleet = Fleet((Ray(0.0), AntipodalOf(spiral), spiral))
    with pytest.raises(ValueError, match=r"^robots\[1\]: log spiral"):
        evaluate_cr(fleet, 1000.0, theta_steps=8)


@given(growth=st.floats(0.05, 2.0), phase=st.floats(-10.0, 10.0),
       chirality=st.sampled_from(["ccw", "cw"]), nesting=st.integers(1, 2),
       thetas=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=6),
       times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_an_antipode_has_its_twins_support_in_the_opposite_direction(
        growth, phase, chirality, nesting, thetas, times):
    # bit for bit, so one root search can serve both
    twin = spec = LogSpiral(growth, phase, chirality)
    for _ in range(nesting):
        spec = AntipodalOf(spec)
    sign = -1.0 if nesting % 2 else 1.0
    u = np.stack((np.cos(thetas), np.sin(thetas)))
    ts = np.broadcast_to(np.array(times)[:, None], (len(times), len(thetas)))
    assert np.array_equal(evaluator._support(spec, ts, u),
                          evaluator._support(twin, ts, sign * u))


def test_a_spiral_evaluation_calls_positions_a_dozen_times(monkeypatch):
    # double-spiral-2: one call per robot for the sweep, then one root search
    # of 30 columns, which took 54 calls when it bisected each cell whole
    calls, real = [], evaluator.positions
    monkeypatch.setattr(evaluator, "positions", lambda *a: calls.append(a) or real(*a))
    fleet, horizon, kwargs = _shipped("double-spiral-2")
    evaluate_cr(fleet, horizon, **kwargs)
    assert len(calls) <= 12


def _rising_cells(spiral, u, start):
    """(t0, t1, u, s0, s1) of each cell between support extrema over three
    turns from time `start` in which the support rises to a positive value,
    s0 and s1 the support at its ends."""
    thetas = np.arctan2(u[1], u[0])
    radius = spiral.growth / math.hypot(1.0, spiral.growth) * start
    horizon = start * math.exp(6.0 * math.pi * spiral.growth)
    ts = support_extrema(spiral, thetas, radius, horizon)
    t0, t1, j = ts[:, :-1].ravel(), ts[:, 1:].ravel(), np.repeat(np.arange(len(thetas)),
                                                                 ts.shape[1] - 1)
    s0, s1 = (evaluator._support(spiral, t, u[:, j]) for t in (t0, t1))
    keep = (t0 < t1) & (s1 > np.maximum(s0, 0.0))
    return t0[keep], t1[keep], u[:, j[keep]], s0[keep], s1[keep]


@given(growth=st.floats(0.05, 4.0), phase=st.floats(-10.0, 10.0),
       chirality=st.sampled_from(["ccw", "cw"]),
       thetas=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4),
       flip=st.booleans(), start=st.floats(1e-3, 1e6),
       frac=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-12, 1e-6, 1.0 - 1e-9])))
@settings(max_examples=80, deadline=None)
def test_spiral_rise_times_keep_the_bisection_contract(growth, phase, chirality, thetas,
                                                       flip, start, frac):
    # a float t in (t0, t1] above level whose predecessor is not or lies at
    # or before t0; where it is not bisection's float, the computed support
    # crosses level more than once between the two
    spiral = LogSpiral(growth, phase, chirality)
    u = (-1.0 if flip else 1.0) * np.stack((np.cos(thetas), np.sin(thetas)))
    t0, t1, u, s0, s1 = _rising_cells(spiral, u, start)
    base = np.maximum(s0, 0.0)
    level = base + frac * (s1 - base)
    keep = (level > base) & (level < s1)
    t0, t1, u, level = t0[keep], t1[keep], u[:, keep], level[keep]
    if not len(level):
        return
    t = evaluator._rise_time(spiral, u, level, t0, t1)
    before = np.nextafter(t, -np.inf)
    assert ((t0 < t) & (t <= t1)).all()
    assert (evaluator._support(spiral, t, u) > level).all()
    assert ((before <= t0) | (evaluator._support(spiral, before, u) <= level)).all()
    ref = rise_time_bisection(spiral, u, level, t0, t1)
    for j in np.flatnonzero(t != ref):
        # both pass level from below, so it is crossed down between them; a
        # nearly tangent level may leave too many floats to walk
        lo, hi = sorted((t[j], ref[j]))
        lo = np.nextafter(lo, -np.inf)
        if hi.view(np.int64) - lo.view(np.int64) < 1 << 20:
            bits = np.arange(lo.view(np.int64), hi.view(np.int64) + 1)
            up = evaluator._support(spiral, bits.view(float), u[:, [j]].repeat(len(bits), 1))
            assert np.count_nonzero(np.diff(up > level[j])) > 1
