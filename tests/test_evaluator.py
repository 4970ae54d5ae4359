import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from shoreline.trajectory import AntipodalOf, Fleet, LogSpiral, Polyline, Ray

# all four vertices visited by t = 1 + 3 sqrt(2), so every direction covered
DIAMOND = Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                    (1.0, 0.0)))
_point = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


def one_direction(*robots, **kwargs):
    """evaluate_cr along theta = 0 only, where a robot's support is its x."""
    return evaluate_cr(Fleet(robots), theta_steps=1, **kwargs)


def path(*turns):
    """Polyline from the origin through the given vertices."""
    return Polyline(((0.0, 0.0),) + turns)


# ------------------------------------------------------ single directions


def test_profile_single_ray_own_direction():
    # support equals elapsed time along the ray's own bearing, so every
    # line is hit at exactly its offset
    rep = one_direction(Ray(0.0), horizon=10.0, t_steps=512)
    assert rep.coverage_radius == pytest.approx(10.0)
    assert rep.cr_estimate == pytest.approx(1.0, rel=1e-12)
    assert rep.witness_time == pytest.approx(rep.witness.delta, rel=1e-12)


def test_profile_oblique_direction_break_times():
    phi = math.pi / 5
    rep = one_direction(Ray(-phi), horizon=10.0, t_steps=512)
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


def test_profile_geometric_spacing_requires_start():
    with pytest.raises(ValueError):
        one_direction(Ray(0.0), horizon=5.0, spacing="geometric", t_start=0.0)
    rep = one_direction(Ray(0.0), horizon=5.0, t_steps=256, spacing="geometric",
                        t_start=0.01)
    assert rep.coverage_radius == pytest.approx(5.0)


def test_profile_unknown_spacing():
    with pytest.raises(ValueError, match="spacing"):
        one_direction(Ray(0.0), horizon=5.0, spacing="log")


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
    # a spiral on two grid samples, x = 0 and then about 9.7: the record
    # leaps from below the window to above it, so no record value and no
    # pair offset lies inside, and a secant across the leap measures nothing
    with pytest.raises(UncoveredDirectionError, match="measurement window"):
        one_direction(LogSpiral(growth=10.0), horizon=10.0, t_steps=2, epsilon=0.1,
                      window=(1.0, 5.0))
    # a ray's support is linear between its events, so the line at the
    # window's lower end is measured exactly, however coarse the grid
    rep = one_direction(Ray(0.0), horizon=10.0, t_steps=2, epsilon=0.1,
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
    assert report.spacing == "uniform"
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
# every shipped config at its own grid (rays: 720 directions, sampled at
# their events, so every witness is the boundary line at epsilon), and of
# four ray fleets turned by half a theta step; a bare float is the theta of
# an UncoveredDirectionError.
PINNED = {
    "all-at-origin": 0.0,
    "double-spiral-2": (
        5.2644286496457315, 2.0943951023931953, 273.8358061710916,
        1441.5890633059298, 469617.6186364259,
    ),
    "rays-10": (
        1.0514622242382674, 0.3141592653589793, 0.01,
        0.010514622242382672, 9.510565162951535,
    ),
    "rays-11": (
        1.0422171162264056, 3.141592653589793, 0.01,
        0.010422171162264054, 9.594929736144975,
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
        1.1099162641747424, 3.141592653589793, 0.01,
        0.011099162641747424, 9.009688679024192,
    ),
    "rays-8": (
        1.082392200292394, 0.39269908169872414, 0.01,
        0.010823922002923939, 9.238795325112868,
    ),
    "rays-9": (
        1.0641777724759123, 1.0471975511965976, 0.01,
        0.010641777724759122, 9.396926207859083,
    ),
    "single-ray": 1.5707963267948966,
    "spiral-1": (
        13.811135403376294, 1.0471975511965976, 18.454245017291985,
        254.8740767009019, 170.81638857155338,
    ),
    "rays-3-half-step": (
        1.9850171814445097, 5.235987755982989, 0.01,
        0.01985017181444509, 5.037739770455256,
    ),
    "rays-4-half-step": (
        1.408083064400422, 5.497787143782138, 0.01,
        0.014080830644004217, 7.1018537562328525,
    ),
    "rays-7-half-step": (
        1.1095834041110373, 5.838126347921032, 0.01,
        0.011095834041110371, 9.012391464174504,
    ),
    "rays-12-half-step": (
        1.0340770378737818, 4.4505895925855405, 0.01,
        0.010340770378737816, 9.67045938913943,
    ),
}


def _shipped(name):
    fleet, _, ev = load_fleet_config(str(FLEETS / f"{name}.json"))
    kwargs = {k: ev[k] for k in ("theta_steps", "t_steps", "epsilon", "spacing",
                                "t_start") if k in ev}
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


@pytest.mark.parametrize("n", range(3, 13))
def test_shipped_ray_fleets_match_the_closed_form(n):
    # break times are exact on rays, and the shipped grids hold the worst
    # direction, so only rounding separates the estimate from 1/cos(pi/n)
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
    window=st.sampled_from([None, (0.3, 2.0)]),
)
@settings(max_examples=15, deadline=None)
def test_tile_size_never_changes_the_report(walks, window):
    # a diamond anchor covers every direction; random walks add ties, flat
    # stretches, support crossings and records that straddle tile edges.  An
    # event tile holds TILE_CELLS // (24 directions x (2 pairs + 1)) cells,
    # at least one: here 1 to 125 of them
    robots = (DIAMOND,) + tuple(path(*w) for w in walks)
    with pytest.MonkeyPatch.context() as mp:
        _assert_tile_invariant(mp, Fleet(robots), (1, 100, 300, 1000, 3000),
                               horizon=12.0, theta_steps=24, window=window)


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
    # a spiral takes the time grid, whose tiles hold TILE_CELLS // 6 samples
    fleet = Fleet((LogSpiral(growth=0.3),))
    _assert_tile_invariant(monkeypatch, fleet, (5, 64, 1000, 3000), t_steps=3001,
                           horizon=2000.0, theta_steps=6, epsilon=5.0,
                           window=(5.0, 300.0), spacing="geometric", t_start=0.05)


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
       window=st.sampled_from([None, (0.3, 2.0)]))
@settings(max_examples=100, deadline=None)
def test_witness_replays(anchor, extra, window):
    # the fleet reaches a line just past the witness at the reported time:
    # the estimate is a ratio the fleet really pays, not a grid artefact
    fleet = Fleet(anchor + tuple(extra))
    horizon = 12.0
    rep = evaluate_cr(fleet, horizon, theta_steps=24, t_steps=97, window=window)
    hit = _first_hit(fleet, rep.witness.theta, rep.witness.delta * (1.0 + 1e-12),
                     horizon)
    assert hit == pytest.approx(rep.witness_time, rel=0.0, abs=1e-9 * horizon)


# ----------------------------------------------------------- exact events


def _oracle_cr(fleet, horizon, theta_steps, lo, hi):
    """Worst first-hit ratio over the grid directions, one direction at a time.

    Each robot's support is interpolated between its knots.  The events are
    every knot plus every time two robots' supports cross between knots;
    the offsets are lo and each value the running max of the support takes
    at an event, inside [lo, hi].  Each offset pays its exact first hit.
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
    return worst


@given(anchor=_anchor, extra=st.lists(_robot, max_size=3),
       window=st.sampled_from([None, (0.3, 2.0)]))
@settings(max_examples=100, deadline=None)
def test_piecewise_linear_fleets_match_an_exact_oracle(anchor, extra, window):
    # without a spiral the sweep samples every event, so its estimate is the
    # exact worst ratio over the grid directions, whatever the time grid
    fleet = Fleet(anchor + tuple(extra))
    horizon, steps = 12.0, 8
    rep = evaluate_cr(fleet, horizon, theta_steps=steps, t_steps=64, window=window)
    lo, hi = window or (0.0, math.inf)
    want = _oracle_cr(fleet, horizon, steps, max(lo, rep.epsilon), hi)
    assert rep.cr_estimate == pytest.approx(want, rel=1e-9)


@given(anchor=_anchor, extra=st.lists(_robot, max_size=3),
       window=st.sampled_from([None, (0.3, 2.0)]))
@settings(max_examples=25, deadline=None)
def test_piecewise_linear_fleets_ignore_the_time_grid(anchor, extra, window):
    fleet = Fleet(anchor + tuple(extra))
    kwargs = {"horizon": 12.0, "theta_steps": 24, "window": window}
    want = evaluate_cr(fleet, t_steps=4096, **kwargs)
    for grid in ({"t_steps": 2}, {"spacing": "geometric", "t_start": 0.5}):
        rep = evaluate_cr(fleet, **grid, **kwargs)
        assert replace(rep, t_steps=want.t_steps, spacing=want.spacing) == want


def test_t_start_leaves_offsets_below_its_support_unmeasured():
    # the spiral points along theta = 0 at t = 1, its support there already
    # past epsilon: nothing is known before the first sample, so the
    # offsets below it go unmeasured instead of paying t_start / epsilon
    b = 0.3
    r1 = b / math.sqrt(1.0 + b * b)
    spiral = Fleet((LogSpiral(growth=b, start_phase=-math.log(r1) / b),))
    rep = evaluate_cr(spiral, horizon=200.0, theta_steps=1, t_steps=4096,
                      epsilon=0.01, t_start=1.0)
    assert rep.witness.delta >= r1 and rep.witness_time > 1.0
    assert rep.cr_estimate == pytest.approx(steady_state_cr(1, b), rel=1e-3)


def test_t_start_leaves_offsets_at_or_below_it_unmeasured():
    # at t = 1 the spiral's support in some of the six directions has fallen
    # below offsets it passed earlier; a line beyond t_start cannot have been
    # reached before it at unit speed, so the grid measures only those
    spiral = Fleet((LogSpiral(growth=0.3),))
    rep = evaluate_cr(spiral, horizon=200.0, theta_steps=6, t_steps=4096,
                      epsilon=0.01, t_start=1.0)
    assert rep.witness.delta >= 1.0
    assert rep.cr_estimate == pytest.approx(steady_state_cr(1, 0.3), rel=1e-3)
