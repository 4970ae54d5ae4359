import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shoreline.geometry import (
    Cone,
    Line,
    Point2,
    max_angular_gap,
    normalize_angle,
)

from reference import distance_point_line, support

TWO_PI = 2.0 * math.pi

finite_angles = st.floats(-50.0, 50.0, allow_nan=False)


def test_support_345_triangle():
    # 3-4-5 point projected onto its own bearing gives its norm
    p = Point2(0.3, 0.4)
    assert support(p, math.atan2(0.4, 0.3)) == pytest.approx(0.5, abs=1e-15)


@given(theta=finite_angles)
def test_support_origin_is_zero(theta):
    assert support(Point2(0.0, 0.0), theta) == 0.0


@given(x=st.floats(-10, 10), y=st.floats(-10, 10), theta=finite_angles)
def test_support_bounded_by_norm(x, y, theta):
    p = Point2(x, y)
    assert support(p, theta) <= p.norm() + 1e-12


def test_line_folds_negative_offset():
    l = Line(0.0, -1.0)
    assert l.delta == 1.0
    assert l.theta == pytest.approx(math.pi)


def test_line_normalizes_angle():
    l = Line(5.0 * math.pi, 2.0)
    assert 0.0 <= l.theta < TWO_PI
    assert l.theta == pytest.approx(math.pi)


@given(theta=finite_angles, delta=st.floats(-20, 20, allow_nan=False))
def test_line_canonical_form(theta, delta):
    l = Line(theta, delta)
    assert l.delta >= 0.0
    assert 0.0 <= l.theta < TWO_PI
    # the foot of the perpendicular always lies on the line
    foot = Point2(l.delta * math.cos(l.theta), l.delta * math.sin(l.theta))
    assert distance_point_line(foot, l) <= 1e-9 * max(1.0, abs(delta))


def test_line_rejects_non_finite():
    with pytest.raises(ValueError):
        Line(math.nan, 1.0)
    with pytest.raises(ValueError):
        Line(0.0, math.inf)


def test_distance_point_line_scaling_frame():
    # foot-of-altitude point against the hypotenuse of the normalized
    # right triangle with apex angle 60 degrees
    l = Line(math.pi / 3.0, math.sqrt(3.0) / 4.0)
    k = Point2(math.sqrt(3.0) / 6.0, 0.0)
    assert distance_point_line(k, l) == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-15)


def test_cone_rejects_bad_half_angle():
    with pytest.raises(ValueError):
        Cone(0.0, 0.0)
    with pytest.raises(ValueError):
        Cone(0.0, 3.5)


def test_max_angular_gap_compass():
    gap, bis = max_angular_gap([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert gap == pytest.approx(math.pi / 2)
    # four tied gaps; smallest bisector wins
    assert bis == pytest.approx(math.pi / 4)


def test_max_angular_gap_single_direction():
    gap, bis = max_angular_gap([1.0])
    assert gap == pytest.approx(TWO_PI)
    assert bis == pytest.approx(1.0 + math.pi)


def test_max_angular_gap_empty():
    with pytest.raises(ValueError):
        max_angular_gap([])


def test_max_angular_gap_antipodal_tie():
    gap, bis = max_angular_gap([0.0, math.pi])
    assert gap == pytest.approx(math.pi)
    assert bis == pytest.approx(math.pi / 2)


@given(st.lists(finite_angles, min_size=1, max_size=12))
def test_max_angular_gap_pigeonhole(angles):
    gap, bis = max_angular_gap(angles)
    n = len(angles)
    assert gap >= TWO_PI / n - 1e-9
    assert gap <= TWO_PI + 1e-9
    # the bisector keeps at least gap/2 clear of every direction
    for a in angles:
        d = abs(normalize_angle(a) - bis)
        d = min(d, TWO_PI - d)
        assert d >= gap / 2.0 - 1e-9


@given(theta=finite_angles)
def test_normalize_angle_range(theta):
    a = normalize_angle(theta)
    assert 0.0 <= a < TWO_PI
    # same direction up to full turns
    assert math.cos(a) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(a) == pytest.approx(math.sin(theta), abs=1e-9)
