import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoreline.geometry import Line, support
from shoreline.trajectory import (
    AntipodalOf,
    Fleet,
    LogSpiral,
    Polyline,
    Ray,
    first_hit_time,
    position,
    positions,
    spec_from_dict,
    spec_to_dict,
    speed_check,
)


def test_ray_position():
    r = Ray(math.pi / 2)
    p = position(r, 3.0)
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(3.0)


def test_ray_negative_time_rejected():
    with pytest.raises(ValueError):
        position(Ray(0.0), -0.5)


def test_log_spiral_closed_form():
    # with b=1 the radius grows linearly at rate 1/sqrt(2); after
    # t = 0.1*sqrt(2)*(e-1) the radius is 0.1*e and the phase advanced
    # by ln(e) = 1 radian
    b, r0 = 1.0, 0.1
    s = LogSpiral(growth=b, start_radius=r0, start_phase=0.0)
    t = r0 * math.sqrt(2.0) * (math.e - 1.0)
    p = position(s, t)
    assert p.norm() == pytest.approx(r0 * math.e, rel=1e-12)
    assert math.atan2(p.y, p.x) == pytest.approx(1.0, abs=1e-12)


def test_log_spiral_cw_mirrors_ccw():
    ccw = LogSpiral(growth=0.5, start_radius=0.2, start_phase=0.0, chirality="ccw")
    cw = LogSpiral(growth=0.5, start_radius=0.2, start_phase=0.0, chirality="cw")
    p, q = position(ccw, 1.7), position(cw, 1.7)
    assert p.x == pytest.approx(q.x)
    assert p.y == pytest.approx(-q.y)


def test_log_spiral_rejects_bad_params():
    with pytest.raises(ValueError):
        LogSpiral(growth=0.0, start_radius=0.1)
    with pytest.raises(ValueError):
        LogSpiral(growth=0.3, start_radius=-1.0)
    with pytest.raises(ValueError):
        LogSpiral(growth=0.3, start_radius=0.1, chirality="up")


def test_antipodal_reflects_through_origin():
    inner = LogSpiral(growth=0.6465, start_radius=0.05)
    outer = AntipodalOf(inner)
    for t in (0.0, 0.3, 2.0, 11.0):
        p, q = position(inner, t), position(outer, t)
        assert q.x == pytest.approx(-p.x)
        assert q.y == pytest.approx(-p.y)


def test_polyline_must_start_at_origin():
    with pytest.raises(ValueError):
        Polyline(((0.1, 0.0), (1.0, 0.0)))


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
    s = LogSpiral(growth=0.2, start_radius=0.05)
    assert position(s, 0.0).norm() == pytest.approx(0.05)


@given(
    b=st.floats(0.05, 2.0),
    r0=st.floats(0.01, 1.0),
    phi=st.floats(0.0, 6.2),
    t=st.floats(0.0, 20.0),
)
@settings(max_examples=60)
def test_spiral_start_within_radius(b, r0, phi, t):
    s = LogSpiral(growth=b, start_radius=r0, start_phase=phi)
    assert position(s, 0.0).norm() <= r0 + 1e-12
    # radius never shrinks below r0
    assert position(s, t).norm() >= r0 - 1e-9


def test_speed_check_polyline_is_unit():
    p = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (-1.0, 2.0)))
    # within the path, before parking
    assert speed_check(p, horizon=5.0, samples=2001) == pytest.approx(1.0, abs=1e-9)


@given(b=st.floats(0.05, 2.0), r0=st.floats(0.01, 0.5))
@settings(max_examples=40)
def test_speed_check_spiral_is_unit(b, r0):
    s = LogSpiral(growth=b, start_radius=r0)
    v = speed_check(s, horizon=5.0, samples=1024)
    assert v == pytest.approx(1.0, abs=1e-4)


def test_positions_vectorized_matches_scalar():
    fleet = Fleet((Ray(0.0), LogSpiral(growth=0.3, start_radius=0.1)))
    ts = np.linspace(0.0, 4.0, 17)
    for spec in fleet.robots:
        arr = positions(spec, ts)
        assert arr.shape == (17, 2)
        for i, t in enumerate(ts):
            p = position(spec, float(t))
            assert arr[i, 0] == pytest.approx(p.x, abs=1e-12)
            assert arr[i, 1] == pytest.approx(p.y, abs=1e-12)


def test_positions_rejects_negative_times():
    with pytest.raises(ValueError):
        positions(Ray(0.0), np.array([0.0, -1.0]))


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
        LogSpiral(growth=0.2125, start_radius=0.05, start_phase=1.0, chirality="cw"),
        AntipodalOf(LogSpiral(growth=0.6465, start_radius=0.01)),
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
        spec_from_dict({"kind": "log_spiral", "growth": -1.0, "start_radius": 0.1})


def test_support_lipschitz_along_path():
    # support along any unit-speed trajectory changes at most at rate 1
    s = LogSpiral(growth=0.4, start_radius=0.1)
    ts = np.linspace(0.0, 6.0, 4001)
    pts = positions(s, ts)
    theta = 1.234
    h = pts[:, 0] * math.cos(theta) + pts[:, 1] * math.sin(theta)
    dt = ts[1] - ts[0]
    assert np.max(np.abs(np.diff(h))) <= dt * (1.0 + 1e-9)


def test_support_consistency_with_geometry_helper():
    s = LogSpiral(growth=0.3, start_radius=0.2)
    p = position(s, 2.5)
    assert support(p, 0.9) == pytest.approx(
        p.x * math.cos(0.9) + p.y * math.sin(0.9), abs=1e-15
    )
