import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoreline import trajectory
from shoreline.geometry import Line
from shoreline.trajectory import (
    AntipodalOf,
    Fleet,
    LogSpiral,
    Polyline,
    Ray,
    breakpoints,
    positions,
    spec_from_dict,
    spec_to_dict,
    support_extrema,
)

from reference import first_hit_time, position, speed_check, support


def test_ray_position():
    r = Ray(math.pi / 2)
    p = position(r, 3.0)
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bearings_rejected(bad):
    with pytest.raises(ValueError, match="angle must be finite"):
        Ray(bad)
    with pytest.raises(ValueError, match="start_phase must be finite"):
        LogSpiral(growth=0.3, start_phase=bad)


def test_ray_negative_time_rejected():
    with pytest.raises(ValueError):
        position(Ray(0.0), -0.5)


def test_log_spiral_closed_form():
    # with b=1 the radius grows linearly from the origin at rate 1/sqrt(2);
    # at t = sqrt(2)*e the radius is e and the phase is ln(e) = 1 radian
    # past the bearing of radius 1
    s = LogSpiral(growth=1.0, start_phase=0.0)
    p = position(s, math.sqrt(2.0) * math.e)
    assert p.norm() == pytest.approx(math.e, rel=1e-12)
    assert math.atan2(p.y, p.x) == pytest.approx(1.0, abs=1e-12)


def test_log_spiral_cw_mirrors_ccw():
    ccw = LogSpiral(growth=0.5, start_phase=0.0, chirality="ccw")
    cw = LogSpiral(growth=0.5, start_phase=0.0, chirality="cw")
    p, q = position(ccw, 1.7), position(cw, 1.7)
    assert p.x == pytest.approx(q.x)
    assert p.y == pytest.approx(-q.y)


def test_log_spiral_rejects_bad_params():
    with pytest.raises(ValueError):
        LogSpiral(growth=0.0)
    with pytest.raises(ValueError):
        LogSpiral(growth=math.nan)
    with pytest.raises(ValueError):
        LogSpiral(growth=0.3, chirality="up")


def test_antipodal_reflects_through_origin():
    inner = LogSpiral(growth=0.6465)
    outer = AntipodalOf(inner)
    for t in (0.0, 0.3, 2.0, 11.0):
        p, q = position(inner, t), position(outer, t)
        assert q.x == pytest.approx(-p.x)
        assert q.y == pytest.approx(-p.y)


def test_polyline_must_start_at_origin():
    with pytest.raises(ValueError):
        Polyline(((0.1, 0.0), (1.0, 0.0)))


@pytest.mark.parametrize("vertices,message", [
    (((0.0, 0.0),), "at least two vertices"),
    (((0.0, 0.0), (math.inf, 1.0)), "must be finite"),
    (((0.0, 0.0), (1.0, math.nan)), "must be finite"),
])
def test_polyline_needs_two_finite_vertices(vertices, message):
    with pytest.raises(ValueError, match=message):
        Polyline(vertices)


def test_times_must_be_a_row_of_non_negative_numbers():
    with pytest.raises(ValueError, match="one-dimensional"):
        trajectory.positions(Ray(0.0), np.zeros((2, 2)))
    for spec in (Ray(0.0), Polyline(((0.0, 0.0), (1.0, 0.0)))):
        with pytest.raises(ValueError, match="negative time"):
            trajectory.position(spec, -1.0)


def test_polyline_parks_at_end():
    p = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    end = position(p, 50.0)
    assert end.x == pytest.approx(1.0)
    assert end.y == pytest.approx(1.0)


def test_polyline_traversal():
    p = Polyline(((0.0, 0.0), (3.0, 0.0), (3.0, 4.0)))
    mid = position(p, 5.0)  # 3 along x then 2 up
    assert mid.x == pytest.approx(3.0)
    assert mid.y == pytest.approx(2.0)


def test_path_start_at_origin_variants():
    assert position(Ray(1.0), 0.0).norm() == 0.0
    assert position(Polyline(((0.0, 0.0), (1.0, 1.0))), 0.0).norm() == 0.0


_angle = st.floats(0.0, 2.0 * math.pi)
_spiral = st.builds(LogSpiral, growth=st.floats(0.05, 2.0), start_phase=_angle,
                    chirality=st.sampled_from(["ccw", "cw"]))


def _walk(legs):
    """Polyline from the origin along (length, bearing) legs."""
    steps = [(0.0, 0.0)] + [(r * math.cos(a), r * math.sin(a)) for r, a in legs]
    return Polyline(tuple(map(tuple, np.cumsum(steps, axis=0))))


# every leg is longer than a speed_check sample step, so some chord lies on
# a straight leg and measures the speed exactly
_polyline = st.builds(_walk, st.lists(st.tuples(st.floats(0.1, 2.0), _angle),
                                      min_size=1, max_size=5))
_base = st.one_of(st.builds(Ray, _angle), _spiral, _polyline)


@given(spec=st.one_of(_base, st.builds(AntipodalOf, _base)), t=st.floats(0.0, 20.0))
@settings(max_examples=80, deadline=None)
def test_every_trajectory_obeys_the_model(spec, t):
    # the model's rules: start exactly at the origin at t = 0, unit speed
    start = position(spec, 0.0)
    assert (start.x, start.y) == (0.0, 0.0)
    assert speed_check(spec, horizon=5.0, samples=1024) == pytest.approx(1.0, abs=1e-4)
    base = spec.inner if isinstance(spec, AntipodalOf) else spec
    if isinstance(base, LogSpiral):
        c = math.hypot(1.0, base.growth)
        assert position(spec, t).norm() == pytest.approx(base.growth * t / c, rel=1e-12)


def test_speed_check_polyline_is_unit():
    p = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (-1.0, 2.0)))
    # within the path, before parking
    assert speed_check(p, horizon=5.0, samples=2001) == pytest.approx(1.0, abs=1e-9)


@given(b=st.floats(0.05, 2.0), phi=st.floats(0.0, 6.2))
@settings(max_examples=40)
def test_speed_check_spiral_is_unit(b, phi):
    s = LogSpiral(growth=b, start_phase=phi)
    v = speed_check(s, horizon=5.0, samples=1024)
    assert v == pytest.approx(1.0, abs=1e-4)


def test_positions_vectorized_matches_scalar():
    fleet = Fleet((Ray(0.0), LogSpiral(growth=0.3)))
    ts = np.linspace(0.0, 4.0, 17)
    for spec in fleet.robots:
        arr = positions(spec, ts)
        assert arr.shape == (17, 2)
        for i, t in enumerate(ts):
            p = position(spec, float(t))
            assert arr[i, 0] == pytest.approx(p.x, abs=1e-12)
            assert arr[i, 1] == pytest.approx(p.y, abs=1e-12)


def _stuttering_walk(steps):
    """Polyline from the origin through the points, each flagged one repeated."""
    verts = [(0.0, 0.0)]
    for point, repeat in steps:
        verts += [point] * (2 if repeat else 1)
    return Polyline(tuple(verts))


_coordinate = st.one_of(st.integers(-4, 4).map(float), st.floats(-1e3, 1e3))
_stutter = st.builds(_stuttering_walk, st.lists(
    st.tuples(st.tuples(_coordinate, _coordinate), st.booleans()), min_size=1, max_size=6))
_one_time_spec = st.recursive(
    st.one_of(st.builds(Ray, st.floats(-10.0, 10.0)), _stutter, _spiral),
    lambda inner: st.builds(AntipodalOf, inner), max_leaves=3)


@given(spec=_one_time_spec, data=st.data())
@settings(max_examples=150, deadline=None)
def test_position_is_positions_at_one_time_bit_for_bit(spec, data):
    # at t = 0, at every vertex time, inside a segment and past the end;
    # compared as bytes, so a signed zero counts too
    knots = breakpoints(spec).tolist()
    end = knots[-1] if knots else 10.0
    times = [0.0, *knots, data.draw(st.floats(0.0, end)), 2.0 * end + 1.0]
    for t in times:
        want = positions(spec, np.array([t]))[0]
        assert np.array(trajectory.position(spec, t)).tobytes() == want.tobytes(), t


def test_position_returns_the_vertex_itself_at_its_time():
    # as np.interp does: interpolating there would turn its -0.0 into 0.0
    spec = Polyline(((0.0, 0.0), (-0.0, 1.0), (1.0, 1.0)))
    for x, _ in (trajectory.position(spec, 1.0), positions(spec, np.array([1.0]))[0]):
        assert math.copysign(1.0, x) == -1.0


@given(verts=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=8))
@example(verts=[(-0.78, 0.62)])  # math.hypot is one ulp above np.hypot here
@settings(max_examples=100, deadline=None)
def test_breakpoints_are_the_cumulative_hypot_lengths(verts):
    # bit for bit: np.hypot of each step in order, repeated vertices
    # dropped, summed one after another (math.hypot rounds differently); a
    # path that never moves parks at t = 0
    spec = Polyline(((0.0, 0.0), *verts))
    steps = np.diff(np.array(spec.vertices), axis=0)
    lengths = np.hypot(steps[:, 0], steps[:, 1])
    want = np.cumsum(lengths[lengths > 0.0]).tolist() or [0.0]
    assert breakpoints(spec).tolist() == want


def test_positions_rejects_negative_times():
    with pytest.raises(ValueError):
        positions(Ray(0.0), np.array([0.0, -1.0]))


@pytest.mark.parametrize("spec", [Line(0.0, 1.0), AntipodalOf(Line(0.0, 1.0))],
                         ids=["line", "antipode-of-line"])
def test_positions_rejects_an_unknown_spec(spec):
    with pytest.raises(TypeError, match="unknown trajectory spec Line"):
        positions(spec, np.array([0.0, 1.0]))


def test_first_hit_time_diagonal():
    # ray along pi/4 reaches the vertical line x = 1 at t = sqrt(2)
    t = first_hit_time(Ray(math.pi / 4), Line(0.0, 1.0), horizon=10.0)
    assert t == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_first_hit_time_miss_returns_none():
    assert first_hit_time(Ray(math.pi), Line(0.0, 1.0), horizon=100.0) is None


def test_first_hit_time_already_beyond():
    p = Polyline(((0.0, 0.0), (5.0, 0.0)))
    # at t=0 the path starts at the origin which lies ON delta=0 lines
    assert first_hit_time(p, Line(0.0, 0.0), horizon=1.0) == 0.0


def test_first_hit_time_stops_at_the_float_spacing():
    # near 5e19 adjacent floats lie 8192 apart, far above tol: the bisection
    # must stop once no float is left between its ends
    t = first_hit_time(Ray(0.0), Line(0.0, 5e19), horizon=1e20)
    assert t == pytest.approx(5e19, rel=1e-12)


@given(n=st.integers(2, 10), d=st.floats(0.5, 5.0), theta=st.floats(0.0, 6.28))
@settings(max_examples=40, deadline=None)
def test_ray_fleet_hits_within_projection_bound(n, d, theta):
    # one of n evenly spread rays is within pi/n of the line normal, so
    # some robot reaches delta = d*cos(pi/n) lines by time d
    rays = [Ray(2.0 * math.pi * k / n) for k in range(n)]
    delta = d * math.cos(math.pi / n) * 0.999
    line = Line(theta, delta)
    hits = [first_hit_time(r, line, horizon=d * 1.01) for r in rays]
    assert any(h is not None and h <= d + 1e-6 for h in hits)


def test_fleet_requires_robots():
    with pytest.raises(ValueError):
        Fleet(())


def test_fleet_len():
    assert len(Fleet((Ray(0.0), Ray(1.0)))) == 2


def test_spec_dict_round_trip():
    robots = (
        Ray(0.7),
        LogSpiral(growth=0.2125, start_phase=1.0, chirality="cw"),
        AntipodalOf(LogSpiral(growth=0.6465)),
        Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    )
    for r in robots:
        d = spec_to_dict(r)
        back = spec_from_dict(d)
        assert back == r
        assert spec_to_dict(back) == d


def test_spec_from_dict_unknown_kind_names_slot():
    with pytest.raises(ValueError, match="unknown kind"):
        spec_from_dict({"kind": "zigzag"})


def test_spec_from_dict_error_paths():
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "ray"})  # missing angle
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "log_spiral", "growth": -1.0})


@pytest.mark.parametrize("inner,message", [
    ({"kind": "log_spiral", "growth": -0.3}, "growth must be positive and finite"),
    ({"kind": "ray"}, "'angle'"),
    (None, "descriptor must be a mapping"),
], ids=["bad-value", "missing-key", "missing-inner"])
def test_spec_from_dict_names_a_nested_slot_once(inner, message):
    doc = {"kind": "antipodal_of"} if inner is None else {"kind": "antipodal_of",
                                                         "inner": inner}
    with pytest.raises(ValueError) as err:
        spec_from_dict(doc, "robots[0]")
    assert str(err.value) == f"robots[0].inner: {message}"


@pytest.mark.parametrize("doc,key", [
    ({"kind": "ray", "angle": 0.0, "angel": 1.0}, "angel"),
    ({"kind": "log_spiral", "growth": 0.3, "start_radius": 1.0}, "start_radius"),
    ({"kind": "polyline", "vertices": [[0, 0], [1, 0]], "speed": 2}, "speed"),
], ids=["ray", "log_spiral", "polyline"])
def test_spec_from_dict_rejects_unknown_keys(doc, key):
    with pytest.raises(ValueError, match=f"robot: unknown key '{key}'"):
        spec_from_dict(doc)


def test_support_lipschitz_along_path():
    # support along any unit-speed trajectory changes at most at rate 1
    s = LogSpiral(growth=0.4)
    ts = np.linspace(0.0, 6.0, 4001)
    pts = positions(s, ts)
    theta = 1.234
    h = pts[:, 0] * math.cos(theta) + pts[:, 1] * math.sin(theta)
    dt = ts[1] - ts[0]
    assert np.max(np.abs(np.diff(h))) <= dt * (1.0 + 1e-9)


def test_support_consistency_with_geometry_helper():
    s = LogSpiral(growth=0.3)
    p = position(s, 2.5)
    assert support(p, 0.9) == pytest.approx(
        p.x * math.cos(0.9) + p.y * math.sin(0.9), abs=1e-15
    )


@given(spec=st.one_of(_spiral, st.builds(AntipodalOf, _spiral)),
       radius=st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_support_extrema_split_the_support_into_monotone_pieces(spec, radius):
    # between two consecutive times the support in each direction is
    # monotone, and it turns at every time strictly inside the range
    horizon = 40.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    turns = support_extrema(spec, thetas, radius, horizon)
    base = spec.inner if isinstance(spec, AntipodalOf) else spec
    start = min(math.hypot(1.0, base.growth) / base.growth * radius, horizon)
    assert turns.min() == pytest.approx(start, rel=1e-15) and turns.max() == horizon
    for theta, row in zip(thetas, turns):
        u = np.array([math.cos(theta), math.sin(theta)])
        assert np.all(np.diff(row) >= 0.0)
        for t0, t1 in zip(row, row[1:]):
            if t1 == t0:
                continue
            ts = np.linspace(t0, t1, 257)
            step = np.diff(positions(spec, ts) @ u)
            slack = 1e-9 * t1 * (ts[1] - ts[0])
            assert np.all(step >= -slack) or np.all(step <= slack)
        inner = row[(row > start) & (row < horizon)]
        s = positions(spec, np.concatenate((inner * (1 - 1e-4), inner, inner * (1 + 1e-4))))
        before, at, after = (s @ u).reshape(3, -1)
        assert np.all(np.sign(at - before) == np.sign(at - after))


def test_support_extrema_of_a_spiral_inside_radius_until_the_horizon_are_empty():
    # growth 1e-300 reaches radius 1 after some 1e300 time units
    thetas = np.linspace(0.0, 1.0, 3)
    assert support_extrema(LogSpiral(growth=1e-300), thetas, 1.0, 1e3).shape == (3, 0)
    assert support_extrema(LogSpiral(growth=0.5), thetas, 1.0, 2.0).shape == (3, 0)


def test_support_extrema_refuse_turn_numbers_floats_cannot_count():
    spec = LogSpiral(growth=0.3, start_phase=1e308)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        support_extrema(spec, np.linspace(0.0, 1.0, 8), 1.0, 1e3)


def test_support_extrema_of_straight_paths_are_empty():
    thetas = np.linspace(0.0, 1.0, 3)
    for spec in (Ray(0.3), Polyline(((0.0, 0.0), (1.0, 2.0))), AntipodalOf(Ray(1.0))):
        assert support_extrema(spec, thetas, 0.1, 10.0).shape == (3, 0)


def test_a_polyline_builds_its_tables_once():
    # the arc-length tables are built on first use and kept, read-only;
    # equality and hashing still look at the vertices alone
    a = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 2.0)))
    b = Polyline(a.vertices)
    tables = a._tables
    assert positions(a, np.array([2.0]))[0].tolist() == [1.0, 1.0]
    assert a._tables is tables
    assert tables[0].tolist() == [0.0, 1.0, 3.0] and not tables[0].flags.writeable
    assert a == b and hash(a) == hash(b) and a in {b}
