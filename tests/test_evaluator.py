import dataclasses
import math
import warnings
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
    DirectionProfile,
    UncoveredDirectionError,
    direction_profile,
    evaluate_cr,
    records_to_ratio,
)
from shoreline.trajectory import Fleet, LogSpiral, Polyline, Ray


def make_profile(records):
    ts = np.array([t for t, _ in records], dtype=float)
    vs = np.array([v for _, v in records], dtype=float)
    cov = float(vs[-1]) if len(records) else 0.0
    return DirectionProfile(theta=0.0, times=ts, values=vs, coverage=cov)


# ---------------------------------------------------------------- profiles


def test_profile_single_ray_own_direction():
    fleet = Fleet((Ray(0.0),))
    prof = direction_profile(fleet, 0.0, horizon=10.0, t_steps=512)
    assert prof.coverage == pytest.approx(10.0)
    # support equals elapsed time along the ray's own bearing, so each
    # record's break time matches the previous record's value
    assert prof.times[0] < 1e-6
    np.testing.assert_allclose(prof.times[1:], prof.values[:-1], atol=1e-7)


def test_profile_oblique_direction_break_times():
    phi = math.pi / 5
    fleet = Fleet((Ray(0.0),))
    prof = direction_profile(fleet, phi, horizon=10.0, t_steps=512)
    assert prof.coverage == pytest.approx(10.0 * math.cos(phi), rel=1e-12)
    # each record time is the instant the previous record value was beaten
    lhs = prof.times[1:] * math.cos(phi)
    np.testing.assert_allclose(lhs, prof.values[:-1], atol=1e-7)


def test_profile_values_strictly_increase():
    fleet = Fleet((Ray(0.0), Ray(2.0)))
    prof = direction_profile(fleet, 1.0, horizon=8.0, t_steps=777)
    assert np.all(np.diff(prof.values) > 0)
    assert np.all(np.diff(prof.times) >= -1e-12)
    assert prof.coverage == pytest.approx(float(prof.values[-1]))


def test_profile_records_property():
    prof = make_profile([(1.0, 0.5), (3.0, 2.0)])
    assert prof.records == [(1.0, 0.5), (3.0, 2.0)]


@given(
    a=st.floats(0.0, 6.28),
    b=st.floats(0.1, 1.5),
    theta=st.floats(0.0, 6.28),
)
@settings(max_examples=30, deadline=None)
def test_profile_invariants_mixed_fleet(a, b, theta):
    fleet = Fleet((Ray(a), LogSpiral(growth=b, start_radius=0.05)))
    prof = direction_profile(fleet, theta, horizon=6.0, t_steps=512)
    assert prof.values.size > 0
    assert np.all(np.diff(prof.values) > 0)
    assert np.all(prof.times >= -1e-12)
    assert np.all(prof.times <= 6.0 + 1e-9)
    # at each break time the support equals the level being broken, and a
    # unit-speed robot starting within 0.05 of the origin cannot project
    # farther than elapsed time plus that start offset
    assert np.all(prof.values[:-1] <= prof.times[1:] + 0.05 + 1e-6)


def test_profile_geometric_spacing_requires_start():
    fleet = Fleet((Ray(0.0),))
    with pytest.raises(ValueError):
        direction_profile(fleet, 0.0, horizon=5.0, spacing="geometric", t_start=0.0)
    prof = direction_profile(
        fleet, 0.0, horizon=5.0, t_steps=256, spacing="geometric", t_start=0.01
    )
    assert prof.coverage == pytest.approx(5.0)


def test_profile_unknown_spacing():
    with pytest.raises(ValueError, match="spacing"):
        direction_profile(Fleet((Ray(0.0),)), 0.0, horizon=5.0, spacing="log")


# ------------------------------------------------------------ ratio logic


def test_records_to_ratio_worked_example():
    prof = make_profile([(1.0, 0.5), (3.0, 2.0)])
    ratio, delta, time = records_to_ratio(prof, epsilon=0.5)
    assert ratio == pytest.approx(6.0)
    assert delta == pytest.approx(0.5)
    assert time == pytest.approx(3.0)


def test_records_to_ratio_single_record_boundary():
    prof = make_profile([(1.0, 0.5)])
    ratio, delta, time = records_to_ratio(prof, epsilon=0.5)
    # only the boundary line just above epsilon is payable
    assert ratio == pytest.approx(2.0)
    assert delta == pytest.approx(0.5)
    assert time == pytest.approx(1.0)


def test_records_to_ratio_boundary_uses_preceding_value():
    # first eligible record is not the first record; the adversary places
    # the line just above the last value below the cutoff
    prof = make_profile([(1.0, 0.9), (2.0, 1.5), (5.0, 4.0)])
    ratio, delta, time = records_to_ratio(prof, epsilon=1.0)
    # candidates: boundary 2.0/1.0 = 2.0, pair 5.0/1.5 = 3.33..
    assert ratio == pytest.approx(5.0 / 1.5)
    assert delta == pytest.approx(1.5)
    assert time == pytest.approx(5.0)


def test_records_to_ratio_window_filters():
    prof = make_profile([(1.0, 0.5), (3.0, 2.0), (10.0, 8.0)])
    ratio, delta, _ = records_to_ratio(prof, epsilon=0.1, window=(1.0, 5.0))
    # only the record value 2.0 sits inside the window; boundary level is
    # max(1.0, 0.5) = 1.0 paid at its break time 3.0
    assert delta == pytest.approx(2.0)
    assert ratio == pytest.approx(10.0 / 2.0)


def test_records_to_ratio_uncovered():
    prof = make_profile([(1.0, 0.5)])
    with pytest.raises(UncoveredDirectionError) as err:
        records_to_ratio(prof, epsilon=0.8)
    assert err.value.theta == 0.0


def test_records_to_ratio_record_jumping_over_window():
    # 0.5 -> 6.0 leaps from below the window to above it: no record value
    # and no pair offset lies inside, so there is no line to measure
    prof = make_profile([(1.0, 0.5), (2.0, 6.0)])
    with pytest.raises(UncoveredDirectionError):
        records_to_ratio(prof, epsilon=0.1, window=(1.0, 5.0))


def test_records_to_ratio_rejects_bad_epsilon():
    prof = make_profile([(1.0, 0.5)])
    with pytest.raises(ValueError):
        records_to_ratio(prof, epsilon=0.0)


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
    assert report.profiles is None
    # worst direction over the grid determines the coverage radius
    assert report.coverage_radius == pytest.approx(8.0 * math.cos(math.pi / 4), rel=1e-3)


def test_evaluate_cr_keep_profiles(ray_fleet):
    report = evaluate_cr(
        ray_fleet(4), horizon=6.0, theta_steps=64, t_steps=256, keep_profiles=True
    )
    assert report.profiles is not None
    assert len(report.profiles) == 64
    assert all(p.coverage >= report.epsilon for p in report.profiles)


def test_evaluate_cr_rotation_by_grid_step(ray_fleet):
    # rotating the fleet by exactly one theta-grid step relabels directions
    # without changing the measured ratio; the window keeps witness offsets
    # >= 1 so bisection jitter on break times stays below 1e-8
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_records_to_ratio_rejects_non_finite_epsilon(bad):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        records_to_ratio(make_profile([(1.0, 0.5)]), epsilon=bad)


def test_evaluate_cr_refinement_stability(ray_fleet):
    # the bisection polish makes the estimate insensitive to time-grid
    # density for piecewise-linear supports (offsets >= 1 keep the residual
    # break-time jitter out of the ratio)
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
# every shipped config at its own grid (rays: 720 x 4096), and of four ray
# fleets turned by half a theta step, as the per-direction record loop
# computed them; a bare float is the theta of an UncoveredDirectionError.
PINNED = {
    "all-at-origin": 0.0,
    "double-spiral-2": (
        5.264424804975618, 4.1887902047863905, 469617.61832814285,
        2472266.6387802474, 27282427.400904503,
    ),
    "rays-10": (
        1.0514630264402818, 0.3141592653589793, 0.0116124116763755,
        0.01221002152551225, 9.510565162951535,
    ),
    "rays-11": (
        1.0422171347182323, 3.141592653589793, 0.5037630996999193,
        0.5250305343460251, 9.594929736144975,
    ),
    "rays-12": (
        1.0352769702631262, 1.3089969389957472, 0.011793966132955656,
        0.01221002152551225, 9.659258262890683,
    ),
    "rays-3": (
        2.000000847710503, 1.0471975511965976, 0.01098901098901099,
        0.021978031293522014, 5.000000000000001,
    ),
    "rays-4": (
        1.4142142367226713, 2.356194490192345, 0.013814051891312283,
        0.019536028851519574, 7.0710678118654755,
    ),
    "rays-5": (
        1.2360682548659743, 0.6283185307179586, 0.033585565090046655,
        0.04151405082954156, 8.090169943749475,
    ),
    "rays-6": (
        1.1547014193458487, 0.5235987755982988, 0.010574180754388752,
        0.01221002152551225, 8.660254037844386,
    ),
    "rays-7": (
        1.109916869031105, 3.141592653589793, 0.015401177229101183,
        0.017094026409517134, 9.009688679024192,
    ),
    "rays-8": (
        1.0823930260921075, 0.39269908169872414, 0.011280580372543184,
        0.01221002152551225, 9.238795325112868,
    ),
    "rays-9": (
        1.06417858437912, 2.443460952792061, 0.011473658373454314,
        0.01221002152551225, 9.396926207859083,
    ),
    "single-ray": 1.5707963267948966,
    "spiral-1": (
        13.809885932571087, 1.0471975511965976, 3850.6680984396794,
        53177.28720364239, 6009.284100055886,
    ),
    "rays-3-half-step": (
        1.9850179386684712, 5.235987755982989, 0.012302172821624553,
        0.02442003373552446, 5.037739770455256,
    ),
    "rays-4-half-step": (
        1.4080838317447955, 5.497787143782138, 0.01213992095082539,
        0.017094026409517134, 7.1018537562328525,
    ),
    "rays-7-half-step": (
        1.10958360566936, 5.838126347921032, 0.04621739212397181,
        0.05128206059755132, 9.012391464174504,
    ),
    "rays-12-half-step": (
        1.0340772454890896, 6.021385919380437, 0.04486904234277146,
        0.04639805571354644, 9.67045938913943,
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


def _outcome(fleet, **kwargs):
    """Every CRReport field (profiles as arrays), or the uncovered error."""
    try:
        rep = evaluate_cr(fleet, keep_profiles=True, **kwargs)
    except UncoveredDirectionError as exc:
        return ("uncovered", exc.theta, str(exc))
    fields = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    fields["profiles"] = [(p.theta, p.times.tolist(), p.values.tolist(), p.coverage)
                          for p in fields["profiles"]]
    return fields


def _assert_tile_invariant(monkeypatch, fleet, t_steps, **kwargs):
    want = _outcome(fleet, t_steps=t_steps, **kwargs)
    assert isinstance(want, dict), want  # every fleet here is covered
    for cells in (5, 64, 1000, t_steps - 1):
        monkeypatch.setattr(evaluator, "TILE_CELLS", cells)
        assert _outcome(fleet, t_steps=t_steps, **kwargs) == want, cells
    monkeypatch.undo()


_point = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@given(
    walks=st.lists(st.lists(_point, min_size=1, max_size=5), min_size=0, max_size=3),
    window=st.sampled_from([None, (0.3, 2.0)]),
)
@settings(max_examples=15, deadline=None)
def test_tile_size_never_changes_the_report(walks, window):
    # a diamond anchor covers every direction; random walks add ties, flat
    # stretches and records that straddle tile edges
    diamond = Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                        (0.0, -1.0), (1.0, 0.0)))
    robots = (diamond,) + tuple(Polyline(((0.0, 0.0),) + tuple(w)) for w in walks)
    with pytest.MonkeyPatch.context() as mp:
        _assert_tile_invariant(mp, Fleet(robots), 97, horizon=12.0, theta_steps=24,
                               window=window)


def test_record_sweep_overflow_stays_silent():
    # a robot drifting 5e-324 sideways makes the support step between two
    # samples subnormal in some directions, so an off-record secant fraction
    # overflows; no sink reads it and no warning may escape
    diamond = Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                        (0.0, -1.0), (1.0, 0.0)))
    fleet = Fleet((diamond, Polyline(((0.0, 0.0), (5e-324, 3.0)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = evaluate_cr(fleet, horizon=12.0, theta_steps=24, t_steps=97)
    assert math.isfinite(rep.cr_estimate)


def test_tile_size_never_changes_windowed_spiral(monkeypatch):
    fleet = Fleet((LogSpiral(growth=0.3, start_radius=1.0),))
    _assert_tile_invariant(monkeypatch, fleet, 3001, horizon=2000.0, theta_steps=6,
                           epsilon=5.0, window=(5.0, 300.0), spacing="geometric",
                           t_start=0.05)


def test_tile_size_never_changes_tied_ratios(monkeypatch):
    # along a ray's own heading every pair ratio is exactly 1: the first of
    # the tied maxima must win whichever tile it falls in
    _assert_tile_invariant(monkeypatch, Fleet((Ray(0.0),)), 257, horizon=10.0,
                           theta_steps=1)
