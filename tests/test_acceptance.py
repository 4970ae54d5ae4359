"""End-to-end checks for the headline numbers, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s) carrying the
measured extremal value and, where budgeted, the wall time.  Grids are pinned
so the whole file stays deterministic.
"""

import math
import time

import numpy as np
import pytest

from shoreline.certifier import (
    EllipseRegion,
    discriminant_sweep,
    ellipse_q,
    ellipse_q_grid,
    lemma_suite,
    reach_oracle,
    snapshot_lower_bound,
)
from shoreline.evaluator import evaluate_cr
from shoreline.geometry import Point2
from shoreline.optimizer import optimize_spiral
from shoreline.trajectory import Fleet, Polyline, Ray

SQRT3 = math.sqrt(3.0)


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
    # certificate and evaluator coincide for n >= 4; the theta grid is a
    # multiple of 4n so the bisector directions land exactly on it
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(4, 13):
        cert = snapshot_lower_bound(rays(n), d=1.0, n=n, gamma=1e-6)
        rep = evaluate_cr(rays(n), horizon=10.0, theta_steps=4 * n, t_steps=512)
        worst = max(worst, abs(cert.bound - rep.cr_estimate))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 2.0
    record(2, ok, f"max |bound - cr| = {worst:.3g} over n in 4..12 "
                  f"({elapsed:.2f} s < 2 s)")


def test_criterion_03_three_robot_gap():
    cert = snapshot_lower_bound(rays(3), d=1.0, n=3, eps=1e-6)
    rep = evaluate_cr(rays(3), horizon=10.0)
    lower_err = abs(cert.bound - SQRT3)
    upper_err = abs(rep.cr_estimate - 2.0)
    ok = lower_err <= 1e-5 and upper_err <= 1e-3 and cert.bound < rep.cr_estimate
    record(3, ok, f"lower bound sqrt(3) err {lower_err:.3g}, ray upper bound 2 "
                  f"err {upper_err:.3g}; gap [1.732, 2] reported, not closed")


def test_criterion_04_two_robot_bound_and_discriminant():
    t0 = time.perf_counter()
    cert = snapshot_lower_bound(rays(2), d=1.0, n=2, zeta=1e-6)
    bound_err = abs(cert.bound - 3.0)
    worst_disc = discriminant_sweep(
        np.linspace(0.0, 0.999, 100),
        np.linspace(0.0, math.pi, 256),
        [1e-6, 1e-3, 0.1],
    )
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
    results = lemma_suite(grid=1000, suites=("omb",), negative_control=True)
    worst = suite_result(results, "omb")["extremal"]
    control = suite_result(results, "omb-negative-control")["extremal"]
    ok = worst >= -1e-9 and control < 0.0
    record(7, ok, f"min excess {worst:.3g} >= -1e-9 on 1000^2 grids; negative "
                  f"control at 0.3 pi gives {control:.3g} < 0")


def test_criterion_08_cone_exit_minimum():
    res = suite_result(lemma_suite(grid=1000, suites=("cone-exit",)), "cone-exit")
    lam, val = res["at"]["lambda"], res["extremal"]
    resid = abs(3.0 * lam / (2.0 * math.sqrt(3.0 * lam * lam + 1.0)) - SQRT3 / 4.0)
    lam_err = abs(lam - 1.0 / 3.0)
    val_err = abs(val - SQRT3 / 2.0)
    ok = lam_err <= 1e-8 and val_err <= 1e-12 and resid < 1e-8
    record(8, ok, f"lambda* err {lam_err:.3g}, value err {val_err:.3g}, "
                  f"slope residual {resid:.3g}")


def test_criterion_09_ellipse_oracle_equivalence():
    m = 100_000
    res = suite_result(lemma_suite(samples=m, seed=0, suites=("ellipses",)),
                       "ellipses")
    disagreements = res["extremal"]
    # the vectorized sweep must mirror the scalar API pair exactly, on the
    # suite's own first samples
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.3, 1.3, size=(m, 2))
    deltas = rng.uniform(0.0, 0.999, size=m)
    thetas = rng.uniform(0.0, math.pi, size=m)
    q = ellipse_q_grid(pts[:200, 0], pts[:200, 1], deltas[:200], thetas[:200])
    scalar_ok = True
    for i in range(200):
        region = EllipseRegion(float(deltas[i]), float(thetas[i]))
        qs = ellipse_q(float(pts[i, 0]), float(pts[i, 1]), region)
        if abs(qs - q[i]) > 1e-9:
            scalar_ok = False
        if abs(qs) > 1e-6:
            robot = Point2(deltas[i] * math.cos(thetas[i]),
                           deltas[i] * math.sin(thetas[i]))
            if reach_oracle(Point2(*pts[i]), robot, 1.0) != (qs < 0.0):
                scalar_ok = False
    ok = disagreements == 0 and res["checked"] > 0.99 * m and scalar_ok
    record(9, ok, f"{res['checked']} decisive of {m} samples, "
                  f"{disagreements} sign disagreements")


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
            cert = snapshot_lower_bound(fleet, float(d), len(fleet))
            assert not cert.degenerate  # the anchor is always off-origin
            worst_margin = min(worst_margin, rep.cr_estimate - cert.bound)
            checks += 1
    ok = worst_margin >= -1e-6
    record(10, ok, f"min(cr - bound) = {worst_margin:.3g} >= -1e-6 over "
                   f"{checks} snapshots of 50 random polyline fleets")


def test_criterion_10_estimates_do_not_depend_on_the_t_grid():
    # every polyline vertex is a grid time and the leading break times are
    # exact, so the measured CRs that criterion 10 compares against barely
    # move when the grid gets 16 times finer
    worst = 0.0
    for fleet, _ in criterion_10_draws():
        coarse = evaluate_cr(fleet, horizon=16.0, theta_steps=180, t_steps=1024)
        fine = evaluate_cr(fleet, horizon=16.0, theta_steps=180, t_steps=16384)
        worst = max(worst, abs(coarse.cr_estimate / fine.cr_estimate - 1.0))
    record(10, worst <= 1e-3, f"max |cr(1024 t) / cr(16384 t) - 1| = {worst:.3g} "
                              f"<= 1e-3 over 50 random polyline fleets")
