import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoreline.certifier import (
    ConeCertificate,
    EllipseRegion,
    cone_exit_objective,
    discriminant,
    discriminant_sweep,
    ellipse_boundary,
    ellipse_q,
    ellipse_q_grid,
    empty_cone,
    lemma_suite,
    min_cone_exit,
    omb_excess,
    omb_oracle,
    reach_oracle,
    snapshot_lower_bound,
)
from shoreline.geometry import Point2, support
from shoreline.trajectory import Fleet, LogSpiral, Polyline, Ray, position

SQRT3 = math.sqrt(3.0)


# -------------------------------------------------------- triangle lemma


def test_omb_excess_zero_at_far_corner():
    # K = L = B collapses the detour, the bound is tight there
    phi = math.pi / 8
    assert omb_excess(phi, np.array([1.0]), np.array([1.0]))[0] == pytest.approx(
        0.0, abs=1e-12
    )


def test_omb_excess_positive_inside():
    phi = math.pi / 8
    s = np.linspace(0.0, 0.9, 50)
    v = np.linspace(0.0, 0.9, 50)
    e = omb_excess(phi, s, v)
    assert e.shape == (50, 50)
    assert np.min(e) > 0.0


@pytest.mark.parametrize("phi", [math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4])
def test_omb_oracle_nonnegative_up_to_quarter_turn(phi):
    m, (k, l) = omb_oracle(phi, grid=300)
    assert m >= -1e-9
    # the minimum sits at the corner K = L = B
    assert k.x == pytest.approx(math.cos(phi), abs=1e-9)
    assert k.y == pytest.approx(math.sin(phi), abs=1e-9)
    assert (k.x, k.y) == (l.x, l.y)


def test_omb_oracle_rejects_wide_apex():
    with pytest.raises(ValueError, match="hypothesis"):
        omb_oracle(0.3 * math.pi)


def test_omb_oracle_negative_control():
    # beyond pi/4 the inequality genuinely fails; frozen magnitude
    m, _ = omb_oracle(0.3 * math.pi, grid=400, allow_beyond_hypothesis=True)
    assert m == pytest.approx(-0.0489431815, abs=1e-6)


def test_omb_oracle_domain_checks():
    with pytest.raises(ValueError):
        omb_oracle(0.0)
    with pytest.raises(ValueError):
        omb_oracle(math.pi / 2)
    with pytest.raises(ValueError):
        omb_oracle(math.pi / 8, grid=1)


# ------------------------------------------------------- cone exit lemma


def test_cone_exit_objective_endpoints():
    assert cone_exit_objective(0.0) == pytest.approx(0.5 + SQRT3 / 4.0)
    assert cone_exit_objective(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cone_exit_objective(1.5)


def test_min_cone_exit_closed_form():
    lam, val = min_cone_exit()
    # stationary point of 0.5*sqrt(3 l^2 + 1) + (sqrt3/4)(1 - l)
    assert lam == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert val == pytest.approx(SQRT3 / 2.0, abs=1e-12)
    # the escape detour costs strictly less than going straight sideways
    assert val < cone_exit_objective(0.0)


def test_min_cone_exit_rejects_tiny_grid():
    with pytest.raises(ValueError):
        min_cone_exit(grid=2)


# ------------------------------------------------------------ empty cone


def test_empty_cone_four_spread_rays(ray_fleet):
    cone = empty_cone(ray_fleet(4), d=2.0, target_half_angle=math.pi / 4, gamma=0.0)
    assert cone is not None
    assert cone.half_angle == pytest.approx(math.pi / 4)
    # no robot direction strictly inside the cone (exact fits touch the rim)
    for r in ray_fleet(4).robots:
        p = position(r, 2.0)
        sep = abs(math.atan2(p.y, p.x) - cone.bisector)
        sep = min(sep, 2.0 * math.pi - sep)
        assert sep >= cone.half_angle - 1e-9


def test_empty_cone_too_wide_returns_none(ray_fleet):
    # four evenly spread robots leave gaps of pi/2 only
    assert empty_cone(ray_fleet(4), d=2.0, target_half_angle=math.pi / 3,
                      gamma=0.0) is None


def test_empty_cone_margin_shrinks_the_fit(ray_fleet):
    # exact fit passes with gamma = 0 but fails once a margin is demanded
    assert empty_cone(ray_fleet(4), d=2.0, target_half_angle=math.pi / 4,
                      gamma=0.0) is not None
    assert empty_cone(ray_fleet(4), d=2.0, target_half_angle=math.pi / 4,
                      gamma=1e-3) is None


def test_empty_cone_all_at_origin():
    fleet = Fleet((Polyline(((0.0, 0.0), (1.0, 0.0))),))
    # at d the robot is parked at (1, 0), but sample the start instead:
    # a fleet that has not moved yields the full plane
    parked = Fleet((Polyline(((0.0, 0.0), (0.0, 0.0), (1e-12, 0.0))),))
    cone = empty_cone(parked, d=1.0, target_half_angle=1.0, gamma=0.0,
                      origin_tol=1e-3)
    assert cone is not None
    assert cone.half_angle == pytest.approx(math.pi)


# ------------------------------------------------------ snapshot bounds


def test_snapshot_bound_n4(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(4), d=1.0, n=4)
    assert isinstance(cert, ConeCertificate)
    assert cert.bound == pytest.approx(math.sqrt(2.0), abs=1e-5)
    assert cert.bound_limit == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert cert.bound <= cert.bound_limit
    assert not cert.degenerate


@pytest.mark.parametrize("n", [5, 6, 8, 12])
def test_snapshot_bound_large_n(n, ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(n), d=3.0, n=n)
    assert cert.bound == pytest.approx(1.0 / math.cos(math.pi / n), abs=1e-5)
    assert cert.bound_limit == pytest.approx(1.0 / math.cos(math.pi / n), rel=1e-15)


def test_snapshot_bound_n3(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(3), d=1.0, n=3)
    assert cert.bound == pytest.approx(SQRT3, abs=1e-5)
    assert cert.bound_limit == pytest.approx(SQRT3, rel=1e-15)
    assert cert.cone.half_angle == pytest.approx(math.pi / 3)


def test_snapshot_bound_n2(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(2), d=1.0, n=2)
    assert cert.bound == pytest.approx(3.0, abs=1e-5)
    assert cert.bound_limit == 3.0
    assert cert.cone.half_angle == pytest.approx(math.pi / 2)


def test_snapshot_bound_n1():
    cert = snapshot_lower_bound(Fleet((Ray(0.7),)), d=2.0, n=1)
    assert cert.bound == pytest.approx(3.0, abs=1e-5)
    assert cert.bound_limit == 3.0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_snapshot_witness_clears_all_robots(n, ray_fleet):
    # soundness: at the snapshot instant no robot has reached the witness
    # line, so the adversary could still have hidden it there
    fleet = ray_fleet(n, offset=0.37)
    d = 1.7
    cert = snapshot_lower_bound(fleet, d=d, n=n)
    for r in fleet.robots:
        p = position(r, d)
        assert support(p, cert.witness_line.theta) < cert.witness_line.delta - 1e-12


def test_snapshot_scale_invariance(ray_fleet):
    a = snapshot_lower_bound(ray_fleet(4, offset=0.2), d=1.0, n=4)
    b = snapshot_lower_bound(ray_fleet(4, offset=0.2), d=3.0, n=4)
    assert a.bound == pytest.approx(b.bound, rel=1e-12)
    assert a.cone.bisector == pytest.approx(b.cone.bisector, abs=1e-9)
    assert b.witness_line.delta == pytest.approx(3.0 * a.witness_line.delta, rel=1e-9)


def test_snapshot_degenerate_all_at_origin():
    fleet = Fleet((Polyline(((0.0, 0.0), (0.0, 0.0), (1e-15, 0.0))),))
    cert = snapshot_lower_bound(fleet, d=1.0, n=1, origin_tol=1e-6)
    assert cert.degenerate
    assert math.isinf(cert.bound)
    assert cert.witness_line.delta == pytest.approx(1.0)


def test_snapshot_eps_controls_gap_to_limit(ray_fleet):
    tight = snapshot_lower_bound(ray_fleet(3), d=1.0, n=3, eps=1e-9)
    loose = snapshot_lower_bound(ray_fleet(3), d=1.0, n=3, eps=1e-3)
    assert tight.bound > loose.bound
    assert tight.bound < tight.bound_limit


def test_snapshot_validates_inputs(ray_fleet):
    with pytest.raises(ValueError):
        snapshot_lower_bound(ray_fleet(4), d=0.0, n=4)
    with pytest.raises(ValueError, match="expected n"):
        snapshot_lower_bound(ray_fleet(4), d=1.0, n=5)
    with pytest.raises(ValueError):
        snapshot_lower_bound(ray_fleet(4), d=1.0, n=4, gamma=math.pi)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kwargs", [
    {"d": math.inf}, {"d": math.nan}, {"d": -1.0},
    {"gamma": -1.0}, {"gamma": math.nan}, {"gamma": math.inf},
    {"eps": -0.1}, {"eps": math.nan}, {"eps": math.inf},
    {"zeta": -0.4}, {"zeta": -0.5}, {"zeta": math.nan}, {"zeta": math.inf},
])
def test_snapshot_rejects_unsound_parameters(ray_fleet, n, kwargs):
    # a negative offset moves the witness line inside the visited region and
    # would certify more than the fleet's own CR (2 for 3 rays, 5.26 for the
    # spiral pair); non-finite values have no certificate at all
    args = {"d": 1.0, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be finite"):
            snapshot_lower_bound(ray_fleet(n), n=n, **args)


def test_snapshot_zero_offsets_give_the_limits(ray_fleet):
    assert snapshot_lower_bound(ray_fleet(3), 1.0, 3, eps=0.0).bound == pytest.approx(SQRT3)
    assert snapshot_lower_bound(ray_fleet(2), 1.0, 2, zeta=0.0).bound == 3.0


# --------------------------------------------------------------- ellipses


def test_ellipse_region_axes():
    r = EllipseRegion(0.6, 0.3)
    assert r.h == pytest.approx(0.3)
    assert r.b == pytest.approx(math.sqrt(1.0 - 0.36) / 2.0)
    with pytest.raises(ValueError):
        EllipseRegion(1.5, 0.0)
    with pytest.raises(ValueError):
        EllipseRegion(0.5, 4.0)


def test_ellipse_q_center_and_far():
    r = EllipseRegion(0.6, 0.3)
    cx, cy = r.h * math.cos(0.3), r.h * math.sin(0.3)
    assert ellipse_q(cx, cy, r) == pytest.approx(-1.0)
    assert ellipse_q(10.0, 10.0, r) > 0.0


def test_ellipse_q_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        ellipse_q(0.0, 0.0, EllipseRegion(1.0, 0.0))


@pytest.mark.parametrize("delta,theta", [(0.0, 0.0), (0.3, 1.1), (0.9, 2.9)])
def test_ellipse_boundary_lies_on_q_zero(delta, theta):
    pts = ellipse_boundary(delta, theta, samples=256)
    q = ellipse_q_grid(pts[:, 0], pts[:, 1], np.array(delta), np.array(theta))
    assert np.max(np.abs(q)) < 1e-6


def test_ellipse_boundary_first_point_is_far_vertex():
    r = EllipseRegion(0.5, 0.0)
    pts = ellipse_boundary(r.delta, r.theta, samples=128)
    assert pts[0, 0] == pytest.approx(r.h + 0.5)
    assert pts[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_ellipse_matches_reach_oracle():
    # the quadratic-form sign agrees with the travel-budget test everywhere
    # it is decisive
    rng = np.random.default_rng(7)
    for _ in range(500):
        delta = rng.uniform(0.0, 0.999)
        theta = rng.uniform(0.0, math.pi)
        x, y = rng.uniform(-1.3, 1.3, size=2)
        region = EllipseRegion(delta, theta)
        q = ellipse_q(x, y, region)
        if abs(q) < 1e-6:
            continue
        robot = Point2(delta * math.cos(theta), delta * math.sin(theta))
        assert reach_oracle(Point2(x, y), robot, 1.0) == (q < 0.0)


def test_ellipse_stays_above_witness_level():
    # minimum y over boundaries never dips to -1/2 for any robot placement
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        delta, theta = rng.uniform(0.0, 0.999), rng.uniform(0.0, math.pi)
        worst = min(worst, float(np.min(ellipse_boundary(delta, theta, 512)[:, 1])))
    assert worst >= -0.5 - 1e-9


def test_reach_oracle_examples():
    assert reach_oracle(Point2(0.0, 0.0), Point2(1.0, 0.0), 1.0)
    assert not reach_oracle(Point2(0.0, -0.6), Point2(1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        reach_oracle(Point2(0.0, 0.0), Point2(0.0, 0.0), 0.0)


# ------------------------------------------------------------ discriminant


def test_discriminant_frozen_values():
    assert discriminant(0.9, 0.0, 1e-6) == pytest.approx(-68.2108631582316, rel=1e-12)
    # hand-expanded rational case: -16(0.25 + 1.2 + 0.44)/0.75
    assert discriminant(0.5, math.pi / 2, 0.1) == pytest.approx(-40.32, rel=1e-12)


def test_discriminant_tangency_at_zero_offset():
    # with zeta = 0 the line y = -1/2 is tangent to the worst ellipse
    # (theta = pi puts sin at its most negative reachable value... delta = 0)
    assert discriminant(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_discriminant_strictly_negative_for_positive_offset():
    assert discriminant(0.0, 0.0, 1e-6) < 0.0
    assert discriminant(0.999, math.pi, 1e-6) < 0.0


def test_discriminant_domain():
    with pytest.raises(ValueError):
        discriminant(1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        discriminant(-0.1, 0.0, 1e-6)
    with pytest.raises(ValueError):
        discriminant(0.5, 4.0, 1e-6)
    with pytest.raises(ValueError):
        discriminant(0.5, 0.0, -1e-6)


def test_discriminant_sweep_certifies():
    deltas = np.linspace(0.0, 1.0 - 1e-6, 101)
    thetas = np.linspace(0.0, math.pi, 101)
    worst = discriminant_sweep(deltas, thetas, [1e-6, 1e-3, 0.1])
    assert worst < 0.0


def test_discriminant_sweep_zero_offset_touches():
    deltas = np.linspace(0.0, 0.9, 31)
    thetas = np.linspace(0.0, math.pi, 31)
    worst = discriminant_sweep(deltas, thetas, [0.0])
    assert worst == pytest.approx(0.0, abs=1e-12)


def test_discriminant_sweep_validates():
    with pytest.raises(ValueError):
        discriminant_sweep(np.array([]), np.array([0.0]), [1e-6])


@given(
    delta=st.floats(0.0, 0.99),
    theta=st.floats(0.0, math.pi),
    zeta=st.floats(0.0, 1.0),
)
@settings(max_examples=200)
def test_discriminant_matches_quadratic_expansion(delta, theta, zeta):
    # the closed form is cross-checked internally against B^2 - 4AC on
    # every call; surviving the call is the assertion
    val = discriminant(delta, theta, zeta)
    assert math.isfinite(val)
    assert val <= 1e-9


# ------------------------------------------------------- mixed snapshots


def test_snapshot_with_spiral_fleet():
    fleet = Fleet((LogSpiral(growth=0.6465),
                   LogSpiral(growth=0.6465, start_phase=math.pi)))
    cert = snapshot_lower_bound(fleet, d=4.0, n=2)
    assert cert.bound == pytest.approx(3.0, abs=1e-5)
    for (px, py) in cert.robot_positions:
        assert support(Point2(px, py), cert.witness_line.theta) < cert.witness_line.delta


# ------------------------------------------------------------ lemma suite


def test_lemma_suite_runs_in_fixed_order():
    results = lemma_suite(grid=50, samples=500, suites=("discriminant", "omb"),
                          negative_control=True)
    assert [r["suite"] for r in results] == [
        "omb", "discriminant", "omb-negative-control", "discriminant-zeta-zero"]
    assert all(r["passed"] for r in results)
    assert results[2]["extremal"] < 0.0  # the control really is violated


@pytest.mark.parametrize("kwargs", [
    {"samples": 0}, {"samples": -5}, {"suites": ("omb", "nope")}, {"grid": 2},
])
def test_lemma_suite_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        lemma_suite(**kwargs)
