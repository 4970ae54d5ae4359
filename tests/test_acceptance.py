"""End-to-end checks for the headline numbers, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s) carrying the
measured extremal value and, where budgeted, the wall time.  Grids are pinned
so the whole file stays deterministic.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shoreline.certifier import (
    discriminant_max,
    ellipse_q_grid,
    lemma_suite,
    snapshot_lower_bound,
)
from shoreline.cli import load_fleet_config
from shoreline.evaluator import evaluate_cr
from shoreline.geometry import Point2
from shoreline.optimizer import optimize_spiral
from shoreline.trajectory import Fleet, LogSpiral, Polyline, Ray

from reference import EllipseRegion, ellipse_q, reach_oracle

SQRT3 = math.sqrt(3.0)
FLEETS = Path(__file__).resolve().parents[1] / "fleets"


def record(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def rays(n: int) -> Fleet:
    return Fleet(tuple(Ray(2.0 * math.pi * k / n) for k in range(n)))


def test_criterion_01_ray_upper_bounds():
    # symmetric ray fleets: measured CR hits 1/cos(pi/n) at default grids
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6, 8, 12):
        rep = evaluate_cr(rays(n), horizon=10.0)
        worst = max(worst, abs(rep.cr_estimate - 1.0 / math.cos(math.pi / n)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 5.0
    record(1, ok, f"max |cr - 1/cos(pi/n)| = {worst:.3g} over n in "
                  f"{{3,4,5,6,8,12}} ({elapsed:.2f} s < 5 s)")


def test_criterion_02_lower_bounds_meet_upper_for_n_ge_4():
    # certificate and evaluator coincide for n >= 4, and the evaluator's
    # ray fleets are exact off any theta grid: 4 rays turned by 0.1 rad,
    # whose worst lines lie between the default grid's directions, pay
    # sqrt(2)
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(4, 13):
        cert = snapshot_lower_bound(rays(n), d=1.0, gamma=1e-6)
        rep = evaluate_cr(rays(n), horizon=10.0, theta_steps=4 * n, t_steps=512)
        worst = max(worst, abs(cert.bound - rep.cr_estimate))
    turned = Fleet(tuple(Ray(0.1 + 0.5 * math.pi * k) for k in range(4)))
    off_grid = abs(evaluate_cr(turned, horizon=10.0).cr_estimate - math.sqrt(2.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and off_grid <= 1e-12 and elapsed < 2.0
    record(2, ok, f"max |bound - cr| = {worst:.3g} over n in 4..12, 4 rays "
                  f"turned by 0.1 rad off sqrt(2) by {off_grid:.3g} "
                  f"({elapsed:.2f} s < 2 s)")


def test_criterion_03_three_robot_gap():
    cert = snapshot_lower_bound(rays(3), d=1.0, eps=1e-6)
    rep = evaluate_cr(rays(3), horizon=10.0)
    lower_err = abs(cert.bound - SQRT3)
    upper_err = abs(rep.cr_estimate - 2.0)
    ok = lower_err <= 1e-5 and upper_err <= 1e-3 and cert.bound < rep.cr_estimate
    record(3, ok, f"lower bound sqrt(3) err {lower_err:.3g}, ray upper bound 2 "
                  f"err {upper_err:.3g}; gap [1.732, 2] reported, not closed")


def test_criterion_04_two_robot_bound_and_discriminant():
    t0 = time.perf_counter()
    cert = snapshot_lower_bound(rays(2), d=1.0, zeta=1e-6)
    bound_err = abs(cert.bound - 3.0)
    worst_disc = max(discriminant_max(zeta) for zeta in (1e-6, 1e-3, 0.1))
    elapsed = time.perf_counter() - t0
    ok = bound_err <= 1e-5 and worst_disc < 0.0 and elapsed < 5.0
    record(4, ok, f"bound 3 err {bound_err:.3g}, discriminant max "
                  f"{worst_disc:.3g} < 0 ({elapsed:.2f} s < 5 s)")


def test_criterion_05_single_spiral():
    t0 = time.perf_counter()
    res = optimize_spiral(1)
    elapsed = time.perf_counter() - t0
    ok = 13.76 <= res.value <= 13.86 and res.converged and elapsed < 120.0
    record(5, ok, f"cr* = {res.value:.5f} in [13.76, 13.86] at b = "
                  f"{res.parameter:.5f} ({elapsed:.1f} s < 120 s)")


def test_criterion_06_antipodal_spiral_pair():
    t0 = time.perf_counter()
    res = optimize_spiral(2)
    elapsed = time.perf_counter() - t0
    ok = 5.21 <= res.value <= 5.32 and res.converged and elapsed < 120.0
    record(6, ok, f"cr* = {res.value:.5f} in [5.21, 5.32] at b = "
                  f"{res.parameter:.5f} ({elapsed:.1f} s < 120 s)")


def suite_result(results: list[dict], suite: str) -> dict:
    return next(r for r in results if r["suite"] == suite)


def test_criterion_07_triangle_inequality_sweep():
    results = lemma_suite(suites=("omb",), negative_control=True)
    worst = suite_result(results, "omb")["extremal"]
    control = suite_result(results, "omb-negative-control")["extremal"]
    ok = worst >= -1e-9 and control < 0.0
    record(7, ok, f"min excess {worst:.3g} >= -1e-9 with the exact nearest L; "
                  f"negative control at 0.3 pi gives {control:.3g} < 0")


def test_criterion_08_cone_exit_minimum():
    res = suite_result(lemma_suite(suites=("cone-exit",)), "cone-exit")
    lam, val = res["at"]["lambda"], res["extremal"]
    resid = abs(3.0 * lam / (2.0 * math.sqrt(3.0 * lam * lam + 1.0)) - SQRT3 / 4.0)
    lam_err = abs(lam - 1.0 / 3.0)
    val_err = abs(val - SQRT3 / 2.0)
    ok = lam_err <= 1e-8 and val_err <= 1e-12 and resid < 1e-8
    record(8, ok, f"lambda* err {lam_err:.3g}, value err {val_err:.3g}, "
                  f"slope residual {resid:.3g}")


def test_criterion_09_ellipse_oracle_equivalence():
    res = suite_result(lemma_suite(suites=("ellipses",)), "ellipses")
    disagreements = res["extremal"]
    # the vectorized form must mirror the scalar API pair exactly, on a
    # seeded draw of the range the suite's points span
    m = 200
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.3, 1.3, size=(m, 2))
    deltas = rng.uniform(0.0, 0.999, size=m)
    thetas = rng.uniform(0.0, math.pi, size=m)
    q = ellipse_q_grid(pts[:, 0], pts[:, 1], deltas, thetas)
    scalar_ok = True
    for i in range(m):
        region = EllipseRegion(float(deltas[i]), float(thetas[i]))
        qs = ellipse_q(float(pts[i, 0]), float(pts[i, 1]), region)
        if abs(qs - q[i]) > 1e-9:
            scalar_ok = False
        if abs(qs) > 1e-6:
            robot = Point2(deltas[i] * math.cos(thetas[i]),
                           deltas[i] * math.sin(thetas[i]))
            if reach_oracle(Point2(*pts[i]), robot, 1.0) != (qs < 0.0):
                scalar_ok = False
    residual = res["at"]["residual"]
    ok = disagreements == 0 and res["checked"] > 0 and residual <= 1e-12 and scalar_ok
    record(9, ok, f"{res['checked']} decisive of {res['points']} fixed points, "
                  f"{disagreements} sign disagreements, focal identity residual "
                  f"{residual:.3g}")


def random_polyline_fleet(rng: np.random.Generator) -> Fleet:
    """One diamond-circuit anchor (guarantees coverage) plus random walks."""
    n = int(rng.integers(2, 7))
    s = float(rng.uniform(0.5, 1.5))
    rot = float(rng.uniform(0.0, 2.0 * math.pi))
    c, si = math.cos(rot), math.sin(rot)

    def turn(x: float, y: float) -> tuple[float, float]:
        return (c * x - si * y, si * x + c * y)

    diamond = [(0.0, 0.0), (s, 0.0), (0.0, s), (-s, 0.0), (0.0, -s), (s, 0.0)]
    robots = [Polyline(tuple(turn(x, y) for x, y in diamond))]
    for _ in range(n - 1):
        steps = int(rng.integers(3, 8))
        pts = np.concatenate(
            [np.zeros((1, 2)), np.cumsum(rng.uniform(-0.8, 0.8, (steps, 2)), axis=0)]
        )
        pts[0] = (0.0, 0.0)
        robots.append(Polyline(tuple((float(x), float(y)) for x, y in pts)))
    return Fleet(tuple(robots))


def criterion_10_draws():
    """Criterion 10's 50 fleets, each with its three snapshot times."""
    rng = np.random.default_rng(2026)
    for _ in range(50):
        fleet = random_polyline_fleet(rng)
        yield fleet, rng.uniform(0.2, 2.0, size=3)


def test_criterion_10_certificates_never_exceed_measured_cr():
    worst_margin = math.inf
    checks = 0
    for fleet, ds in criterion_10_draws():
        rep = evaluate_cr(fleet, horizon=16.0, theta_steps=180, t_steps=1024)
        for d in ds:
            cert = snapshot_lower_bound(fleet, float(d))
            assert not cert.degenerate  # the anchor is always off-origin
            worst_margin = min(worst_margin, rep.cr_estimate - cert.bound)
            checks += 1
    ok = worst_margin >= -1e-6
    record(10, ok, f"min(cr - bound) = {worst_margin:.3g} >= -1e-6 over "
                   f"{checks} snapshots of 50 random polyline fleets")


def test_criterion_10_holds_on_k_spiral_fleets():
    # k spirals of growth b at phases 2 pi i / k repeat, scaled by
    # exp(2 pi b / k), each time they turn by 2 pi / k, so a window spanning
    # that period meets every line shape.  Neighbours swap places above the
    # running max, and those swaps carry the ratio: without them 4 spirals
    # at b = 2.5 measure 1.376, below the certificate's sqrt(2).  The
    # horizon covers the window in every direction
    worst_margin, checks = math.inf, 0
    for k in (2, 3, 4):
        for b in (0.3, 1.0, 2.5):
            fleet = Fleet(tuple(LogSpiral(b, 2.0 * math.pi * i / k) for i in range(k)))
            period = math.exp(2.0 * math.pi * b / k)
            window = (1.0, 2.0 * period)
            horizon = math.hypot(1.0, b) / b * 4.0 * window[1] * period
            rep = evaluate_cr(fleet, horizon, theta_steps=6, epsilon=1.0, window=window)
            for d in (0.3, 1.0, 3.0):
                cert = snapshot_lower_bound(fleet, d)
                worst_margin = min(worst_margin, rep.cr_estimate - cert.bound)
                checks += 1
    record(10, worst_margin >= -1e-6, f"min(cr - bound) = {worst_margin:.3g} >= -1e-6 over "
                                      f"{checks} snapshots of 9 k-spiral fleets")


def test_criterion_10_estimates_do_not_depend_on_the_t_grid():
    # every fleet is sampled at its events, not on the time grid, so the
    # measured CRs that criterion 10 compares against are the same to the
    # last bit when the grid gets 16 times finer; so are both shipped
    # spirals' reports, from 2 or 200 000 steps and from t_start 0.05 or 1
    worst, differ = 0.0, 0
    for fleet, _ in criterion_10_draws():
        coarse = evaluate_cr(fleet, horizon=16.0, theta_steps=180, t_steps=1024)
        fine = evaluate_cr(fleet, horizon=16.0, theta_steps=180, t_steps=16384)
        worst = max(worst, abs(coarse.cr_estimate / fine.cr_estimate - 1.0))
        differ += coarse.cr_estimate != fine.cr_estimate
    for name in ("spiral-1", "double-spiral-2"):
        fleet, _, ev = load_fleet_config(str(FLEETS / f"{name}.json"))
        kwargs = {k: ev[k] for k in ("horizon", "theta_steps", "epsilon")}
        kwargs["window"] = tuple(ev["window"])
        shipped = evaluate_cr(fleet, t_steps=200_000, t_start=0.05, **kwargs)
        for grid in ({"t_steps": 2, "t_start": 0.05}, {"t_steps": 200_000, "t_start": 1.0}):
            rep = evaluate_cr(fleet, **grid, **kwargs)
            differ += replace(rep, t_steps=shipped.t_steps) != shipped
    record(10, differ == 0, f"{differ} of 50 random polyline fleets and 2 shipped "
                            f"spirals change their report with the t grid (max "
                            f"relative change {worst:.3g} from 1024 to 16384 t-steps)")
