import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoreline import certifier
from shoreline.certifier import (
    ConeCertificate,
    OMB_PHIS,
    _cone_in_gap,
    _discriminant_closed,
    cone_exit_objective,
    discriminant_max,
    ellipse_boundary,
    ellipse_q_grid,
    lemma_suite,
    min_cone_exit,
    omb_minimum,
    snapshot_lower_bound,
)
from shoreline.cli import load_fleet_config
from shoreline.geometry import Point2
from shoreline.trajectory import Fleet, LogSpiral, Polyline, Ray

from reference import EllipseRegion, discriminant, ellipse_q, position, reach_oracle, support

SQRT3 = math.sqrt(3.0)
FLEETS = Path(__file__).resolve().parents[1] / "fleets"


# -------------------------------------------------------- triangle lemma


def omb_excess(phi: float, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """OK + KL - OB on the full (s, v) grid, the reference omb_minimum must beat.

    O is the origin, M = (cos phi, 0) the foot of the altitude, B = (cos phi,
    sin phi).  K = M + s(B - M) runs along MB and L = vB along OB; s down the
    rows, v across the columns of the result.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    cphi, sphi = math.cos(phi), math.sin(phi)
    kx = cphi
    ky = s * sphi
    ok = np.hypot(kx, ky)
    dx = kx - v[None, :] * cphi
    dy = ky[:, None] - v[None, :] * sphi
    kl = np.hypot(dx, dy)
    return ok[:, None] + kl - 1.0


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
    m, slope, (k, l) = omb_minimum(phi)
    assert m >= -1e-9 and slope <= 1e-12
    # the minimum sits at the corner K = L = B
    assert k.x == pytest.approx(math.cos(phi), abs=1e-9)
    assert k.y == pytest.approx(math.sin(phi), abs=1e-9)
    assert (k.x, k.y) == (l.x, l.y)


@pytest.mark.parametrize("phi", [*OMB_PHIS, 0.3 * math.pi])
def test_omb_oracle_matches_the_2d_grid(phi):
    # the closed-form minimum is at or below every sampled (K, L) pair
    s = np.linspace(0.0, 1.0, 300)
    reference = float(np.min(omb_excess(phi, s, s)))
    m, _, (k, l) = omb_minimum(phi, allow_beyond_hypothesis=True)
    assert m <= reference + 1e-15
    assert m == pytest.approx(reference, abs=1e-5)
    b = Point2(math.cos(phi), math.sin(phi))
    v = l.x / b.x
    assert 0.0 <= v <= 1.0 and l.y == pytest.approx(v * b.y, abs=1e-15)
    s_k = k.y / b.y
    kl = math.hypot(k.x - l.x, k.y - l.y)
    assert kl == pytest.approx(b.x * b.y * (1.0 - s_k), abs=1e-12)


def test_omb_oracle_memory_is_linear_in_the_grid():
    # the closed forms build no array, let alone a (K, L) grid of 20 MB
    tracemalloc.start()
    try:
        lemma_suite(suites=("omb",), negative_control=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_omb_oracle_rejects_wide_apex():
    with pytest.raises(ValueError, match="hypothesis"):
        omb_minimum(0.3 * math.pi)


def test_omb_oracle_negative_control():
    # beyond pi/4 the inequality genuinely fails; the exact minimum, at
    # s* = cot^2 phi where the slope vanishes
    m, slope, _ = omb_minimum(0.3 * math.pi, allow_beyond_hypothesis=True)
    assert m == -0.04894348370484636
    assert abs(slope) <= 1e-15


def test_omb_oracle_domain_checks():
    # the hypothesis check comes first; beyond it, phi must still lie in (0, pi/2)
    for phi in (0.0, math.pi / 2):
        with pytest.raises(ValueError, match="hypothesis"):
            omb_minimum(phi)
        with pytest.raises(ValueError, match=r"phi must lie in \(0, pi/2\)"):
            omb_minimum(phi, allow_beyond_hypothesis=True)


@given(phi=st.floats(0.0, 0.49 * math.pi, exclude_min=True), s=st.floats(0.0, 1.0))
@settings(max_examples=300)
def test_omb_minimum_is_at_most_every_excess(phi, s):
    # g(s) = OK + KL - OB with the exact nearest L, in the same arithmetic
    m, _, _ = omb_minimum(phi, allow_beyond_hypothesis=True)
    c, sn = math.cos(phi), math.sin(phi)
    assert m <= math.hypot(c, s * sn) + c * sn * (1.0 - s) - 1.0 + 1e-15


def test_omb_suite_fails_beyond_a_quarter_turn(monkeypatch):
    # negative control: an apex angle past pi/4 breaks the inequality, and
    # the suite must say so
    monkeypatch.setattr(certifier, "OMB_PHIS", (math.pi / 8, 0.3 * math.pi))
    [res] = lemma_suite(suites=("omb",))
    assert res["passed"] is False
    assert res["extremal"] == -0.04894348370484636
    assert res["at"]["phi"] == 0.3 * math.pi


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


def test_cone_exit_suite_fails_on_a_shifted_slope(monkeypatch):
    # negative control: a slope whose zero moved off 1/3 keeps one sign across
    # the bracket, and the suite must say so
    slope = certifier._cone_exit_slope
    monkeypatch.setattr(certifier, "_cone_exit_slope", lambda lam: slope(lam) + 1e-6)
    [res] = lemma_suite(suites=("cone-exit",))
    assert res["passed"] is False
    assert res["at"]["slopes"][0] > 0.0


# ------------------------------------------------------------ empty cone


def directions(fleet: Fleet, d: float) -> list[float]:
    return [math.atan2(p.y, p.x) for p in (position(r, d) for r in fleet.robots)]


def test_empty_cone_four_spread_rays(ray_fleet):
    cone = _cone_in_gap(directions(ray_fleet(4), 2.0), math.pi / 4, 0.0)
    assert cone is not None
    assert cone.half_angle == pytest.approx(math.pi / 4)
    # no robot direction strictly inside the cone (exact fits touch the rim)
    for angle in directions(ray_fleet(4), 2.0):
        sep = abs(angle - cone.bisector)
        sep = min(sep, 2.0 * math.pi - sep)
        assert sep >= cone.half_angle - 1e-9


def test_empty_cone_too_wide_returns_none(ray_fleet):
    # four evenly spread robots leave gaps of pi/2 only
    assert _cone_in_gap(directions(ray_fleet(4), 2.0), math.pi / 3, 0.0) is None


def test_empty_cone_margin_shrinks_the_fit(ray_fleet):
    # exact fit passes with gamma = 0 but fails once a margin is demanded
    angles = directions(ray_fleet(4), 2.0)
    assert _cone_in_gap(angles, math.pi / 4, 0.0) is not None
    assert _cone_in_gap(angles, math.pi / 4, 1e-3) is None


def test_empty_cone_all_at_origin():
    # a fleet that has not left the origin gives no direction: the
    # certificate's empty cone is the full plane
    fleet, _, _ = load_fleet_config(str(FLEETS / "all-at-origin.json"))
    cert = snapshot_lower_bound(fleet, d=1.0)
    assert cert.degenerate
    assert cert.cone.half_angle == pytest.approx(math.pi)
    assert math.isinf(cert.bound)


# ------------------------------------------------------ snapshot bounds


def test_snapshot_bound_n4(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(4), d=1.0)
    assert isinstance(cert, ConeCertificate)
    assert cert.bound == pytest.approx(math.sqrt(2.0), abs=1e-5)
    assert cert.bound_limit == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert cert.bound <= cert.bound_limit
    assert not cert.degenerate


@pytest.mark.parametrize("n", [5, 6, 8, 12])
def test_snapshot_bound_large_n(n, ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(n), d=3.0)
    assert cert.bound == pytest.approx(1.0 / math.cos(math.pi / n), abs=1e-5)
    assert cert.bound_limit == pytest.approx(1.0 / math.cos(math.pi / n), rel=1e-15)


def test_snapshot_bound_n3(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(3), d=1.0)
    assert cert.bound == pytest.approx(SQRT3, abs=1e-5)
    assert cert.bound_limit == pytest.approx(SQRT3, rel=1e-15)
    assert cert.cone.half_angle == pytest.approx(math.pi / 3)


def test_snapshot_bound_n2(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(2), d=1.0)
    assert cert.bound == pytest.approx(3.0, abs=1e-5)
    assert cert.bound_limit == 3.0
    assert cert.cone.half_angle == pytest.approx(math.pi / 2)


def test_snapshot_bound_n1():
    cert = snapshot_lower_bound(Fleet((Ray(0.7),)), d=2.0)
    assert cert.bound == pytest.approx(3.0, abs=1e-5)
    assert cert.bound_limit == 3.0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_snapshot_witness_clears_all_robots(n, ray_fleet):
    # soundness: at the snapshot instant no robot has reached the witness
    # line, so the adversary could still have hidden it there
    fleet = ray_fleet(n, offset=0.37)
    d = 1.7
    cert = snapshot_lower_bound(fleet, d=d)
    for r in fleet.robots:
        p = position(r, d)
        assert support(p, cert.witness_line.theta) < cert.witness_line.delta - 1e-12


def test_snapshot_scale_invariance(ray_fleet):
    a = snapshot_lower_bound(ray_fleet(4, offset=0.2), d=1.0)
    b = snapshot_lower_bound(ray_fleet(4, offset=0.2), d=3.0)
    assert a.bound == pytest.approx(b.bound, rel=1e-12)
    assert a.cone.bisector == pytest.approx(b.cone.bisector, abs=1e-9)
    assert b.witness_line.delta == pytest.approx(3.0 * a.witness_line.delta, rel=1e-9)


def test_snapshot_degenerate_all_at_origin():
    fleet = Fleet((Polyline(((0.0, 0.0), (0.0, 0.0), (1e-15, 0.0))),))
    cert = snapshot_lower_bound(fleet, d=1.0, origin_tol=1e-6)
    assert cert.degenerate
    assert math.isinf(cert.bound)
    assert cert.witness_line.delta == pytest.approx(1.0)


def test_snapshot_eps_controls_gap_to_limit(ray_fleet):
    tight = snapshot_lower_bound(ray_fleet(3), d=1.0, eps=1e-9)
    loose = snapshot_lower_bound(ray_fleet(3), d=1.0, eps=1e-3)
    assert tight.bound > loose.bound
    assert tight.bound < tight.bound_limit


def test_snapshot_validates_inputs(ray_fleet):
    with pytest.raises(ValueError):
        snapshot_lower_bound(ray_fleet(4), d=0.0)
    with pytest.raises(ValueError):
        snapshot_lower_bound(ray_fleet(4), d=1.0, gamma=math.pi)


def test_snapshot_rejects_a_subnormal_d(ray_fleet):
    for d in (1e-320, 5e-324, math.nextafter(sys.float_info.min, 0.0)):
        with pytest.raises(ValueError, match="below the least normal float"):
            snapshot_lower_bound(ray_fleet(4), d=d)


def test_snapshot_at_the_least_normal_d_leaves_the_witness_unhit():
    # at d = 1e-320 the witness's offset kept too few bits, and it lay up to
    # 4.94e-4 d inside a ray's reach; at the least normal d the eps margin holds
    d = sys.float_info.min
    for k in range(200):
        headings = [2.0 * math.pi * k / 200 + 0.5 * math.pi * j for j in range(4)]
        line = snapshot_lower_bound(Fleet(tuple(map(Ray, headings))), d).witness_line
        assert max(d * math.cos(a - line.theta) for a in headings) < line.delta


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
            snapshot_lower_bound(ray_fleet(n), **args)


def test_snapshot_zero_offsets_give_the_limits(ray_fleet):
    assert snapshot_lower_bound(ray_fleet(3), 1.0, eps=0.0).bound == pytest.approx(SQRT3)
    assert snapshot_lower_bound(ray_fleet(2), 1.0, zeta=0.0).bound == 3.0


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


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6), st.floats(0.0, 0.999),
       st.floats(0.0, 2.0 * math.pi))
def test_focal_identity_holds_everywhere(x, y, delta, theta):
    # q (1 - delta^2) = (s^2 - 1)(1 - t^2) with s, t the sum and difference
    # of the focal distances: the ellipse suite's claim, at arbitrary points
    near = math.hypot(x, y)
    far = math.hypot(x - delta * math.cos(theta), y - delta * math.sin(theta))
    s, t = near + far, near - far
    q = float(ellipse_q_grid(x, y, delta, theta))
    assert abs(t) <= delta + 1e-15
    assert q * (1.0 - delta * delta) == pytest.approx((s * s - 1.0) * (1.0 - t * t),
                                                      rel=1e-9, abs=1e-12)


def test_ellipse_suite_is_fixed_and_passes():
    [first] = lemma_suite(suites=("ellipses",))
    assert lemma_suite(suites=("ellipses",)) == [first]  # no random draw
    assert first["passed"] and first["extremal"] == 0
    assert 0 < first["checked"] < first["points"]  # the outline itself is q = 0
    assert first["at"]["residual"] <= certifier.ELLIPSE_RESIDUAL


@pytest.mark.parametrize("wrong,flips_signs", [
    (lambda q, x, y, delta, theta: 1.01 * q, False),  # only the residual shows
    (lambda q, x, y, delta, theta: q - 0.3 * x * x, True),  # a fatter ellipse
], ids=["scaled", "fatter"])
def test_ellipse_suite_catches_a_wrong_quadratic_form(monkeypatch, wrong, flips_signs):
    q_grid = certifier.ellipse_q_grid
    monkeypatch.setattr(certifier, "ellipse_q_grid",
                        lambda x, y, d, th: wrong(q_grid(x, y, d, th), x, y, d, th))
    [res] = lemma_suite(suites=("ellipses",))
    assert not res["passed"]
    assert res["at"]["residual"] > certifier.ELLIPSE_RESIDUAL
    assert (res["extremal"] > 0) == flips_signs


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
    # the supremum -64 zeta (zeta + 1), attained at delta = 0
    for zeta in (1e-6, 1e-3, 0.1):
        worst = discriminant_max(zeta)
        assert worst < 0.0
        assert worst == pytest.approx(-64.0 * zeta * (zeta + 1.0), rel=1e-15)
        assert worst == _discriminant_closed(0.0, 1.0, zeta)


def test_discriminant_sweep_zero_offset_touches():
    assert discriminant_max(0.0) == 0.0


def test_discriminant_sweep_validates():
    with pytest.raises(ValueError):
        discriminant_max(-1e-6)


@given(
    delta=st.floats(0.0, 0.999),
    theta=st.floats(0.0, math.pi),
    zeta=st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_discriminant_max_bounds_every_ellipse(delta, theta, zeta):
    assert discriminant_max(zeta) >= _discriminant_closed(delta, theta, zeta)


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
    cert = snapshot_lower_bound(fleet, d=4.0)
    assert cert.bound == pytest.approx(3.0, abs=1e-5)
    for (px, py) in cert.robot_positions:
        assert support(Point2(px, py), cert.witness_line.theta) < cert.witness_line.delta


# ------------------------------------------------------------ lemma suite


def test_lemma_suite_runs_in_fixed_order():
    results = lemma_suite(suites=("discriminant", "omb"), negative_control=True)
    assert [r["suite"] for r in results] == [
        "omb", "discriminant", "omb-negative-control", "discriminant-zeta-zero"]
    assert all(r["passed"] for r in results)
    assert results[2]["extremal"] < 0.0  # the control really is violated


@pytest.mark.parametrize("kwargs", [
    {"suites": ("ellipse",)}, {"suites": ("",)}, {"suites": ("omb", "nope")},
])
def test_lemma_suite_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        lemma_suite(**kwargs)
