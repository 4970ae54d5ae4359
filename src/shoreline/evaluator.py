"""Adversarial competitive-ratio sweep.

The worst-case line for a fleet can be found direction by direction.  Fix a
direction theta and let h(t) be the running maximum, over robots and over
time, of the support reached in that direction.  A line at offset delta in
direction theta is first hit when h crosses delta, so along each direction
the adversary's best offsets sit just past the values where h set a new
record: place the line at delta = m + 0 for a record value m and the fleet
pays the time of the *next* record divided by m.

The time grid holds every robot's breakpoints (``trajectory.breakpoints``),
so on a fleet of rays, polylines and their antipodes each robot's support is
linear on every grid cell and the running maximum at the samples is the true
one.  Every grid cell i carries h[i] and prev[i], the running maximum before
i; it is a record when h[i] beats prev[i] by more than rounding
(TIE_MARGIN).  Offsets below epsilon are excluded (any start inside radius
epsilon trivializes the ratio), so a record pays against the level
L = max(prev[i], epsilon): the line at L + 0 is first crossed inside cell i,
and the record's ratio is that break time over L.  The sweep takes the break
time where the secant of h over the cell reaches L.  That is exact while one
robot leads and early where robots take turns (h is convex on the cell), so
the leading candidates are finished in closed form: the earliest time any
one robot's support, linear on the cell, exceeds L.

``evaluate_cr`` finds all of this in one sweep, in t order, over tiles that
hold every direction for a run of time samples; the running maximum, the
previous sample and the best line so far carry from tile to tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Line
from .trajectory import Fleet, breakpoints, positions

DEFAULT_THETA_STEPS = 720
DEFAULT_T_STEPS = 4096
# Fraction of the horizon below which adversary offsets are ignored.
DEFAULT_EPSILON_FACTOR = 1e-3
# How many leading sweep candidates get their break time in closed form.
POLISH_TOP = 8
# A rise of at most this fraction above the running max is a tie up to
# rounding, not a record: supports that are equal in exact arithmetic (two
# robots at mirror points, a parked robot) can differ in the last bits.
TIE_MARGIN = 2e-12
# Most cells in one (theta, t) tile of the record sweep, unless two time
# samples of every direction need more: small enough that a tile's
# temporaries stay in cache on 200k-step spiral grids.
TILE_CELLS = 1 << 15


class UncoveredDirectionError(ValueError):
    """A direction whose coverage never reached the required offset."""

    def __init__(self, message: str, theta: float):
        super().__init__(message)
        self.theta = theta


@dataclass
class CRReport:
    cr_estimate: float
    witness: Line
    witness_time: float
    coverage_radius: float
    horizon: float
    theta_steps: int
    t_steps: int
    epsilon: float
    window: tuple[float, float] | None = None
    spacing: str = "uniform"


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _time_grid(horizon: float, t_steps: int, spacing: str, t_start: float) -> np.ndarray:
    _check_positive("horizon", horizon)
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start!r}")
    if t_steps < 2:
        raise ValueError("t_steps must be at least 2")
    if spacing == "uniform":
        return np.linspace(t_start, horizon, t_steps)
    if spacing == "geometric":
        if t_start <= 0.0:
            raise ValueError("geometric spacing needs t_start > 0")
        return np.geomspace(t_start, horizon, t_steps)
    raise ValueError(f"unknown spacing {spacing!r}")


def _record_sweep(fleet: Fleet, normals: np.ndarray, ts: np.ndarray,
                  best: _BestLine) -> np.ndarray:
    """Sweep the support of every direction over the time grid into `best`.

    A tile is every direction over a run of at least two time samples, its
    support one product per robot: BLAS rounds products of other shapes (one
    sample, or fewer directions) differently, and the support must not
    depend on where tiles fall.  Returns each direction's coverage: its
    running max, which starts at 0.
    """
    paths = [positions(robot, ts) for robot in fleet.robots]
    ts_lo = np.concatenate((ts[:1], ts[:-1]))
    dt = ts - ts_lo  # 0 in the first column, whose break time is ts[0]
    n = normals.shape[1]
    cols = max(2, min(len(ts), TILE_CELLS // n))
    bounds = [*range(0, len(ts) - 1, cols), len(ts)]  # a lone last sample joins in
    # Column 0 of each buffer carries the previous tile's last column: the
    # sample before the tile and the running max before it (0 before the
    # first sample, so the running max is never negative).
    hbuf = np.zeros((n, cols + 2))
    rbuf = np.zeros((n, cols + 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c0, c1 in zip(bounds, bounds[1:]):
            w = c1 - c0
            h, h_lo = hbuf[:, 1:w + 1], hbuf[:, :w]
            run, prev = rbuf[:, 1:w + 1], rbuf[:, :w]
            support = paths[0][c0:c1] @ normals
            for path in paths[1:]:
                np.maximum(support, path[c0:c1] @ normals, out=support)
            h[...] = support.T
            np.fmax.accumulate(h, axis=1, out=run)  # = maximum on finite supports, faster
            np.maximum(run, prev[:, :1], out=run)
            rec = h > prev * (1.0 + TIE_MARGIN)
            best.add(c0, h, h_lo, prev, rec, ts_lo[c0:c1], dt[c0:c1])
            hbuf[:, 0] = h[:, -1]
            rbuf[:, 0] = run[:, -1]
    return rbuf[:, 0].copy()


class _BestLine:
    """Each direction's worst line so far, reduced tile by tile in t order.

    Candidates are the pair numerators (records whose prev lies in [lo, hi])
    and the boundary: the first record in [lo, hi], which, records being
    increasing, is the one whose prev lies below lo.  It pays against lo
    and precedes every pair, and the first maximum wins: within a tile by
    argmax, across tiles by a strict >.
    """

    def __init__(self, n: int, epsilon: float, window: tuple[float, float] | None):
        self.lo, self.hi = epsilon, math.inf
        if window is not None:
            self.lo, self.hi = max(epsilon, window[0]), window[1]
        self.ratio = np.full(n, -np.inf)  # stays -inf without a record in [lo, hi]
        self.cell = np.zeros(n, dtype=np.intp)  # grid index of the numerator
        self.time = np.zeros(n)
        self.level = np.zeros(n)  # max(prev, lo): the offset its break time beat

    def add(self, c0, h, h_lo, prev, rec, t_lo, dt) -> None:
        lo, hi = self.lo, self.hi
        cand = rec & (h >= lo)
        if hi < math.inf:
            cand &= (prev <= hi) & ((prev >= lo) | (h <= hi))
        level = np.maximum(prev, lo)
        # On a candidate h >= level >= prev >= h_lo and h > h_lo, so the
        # secant fraction lies in [0, 1]; elsewhere it is garbage (0/0, x/0
        # or overflow) that the mask drops.
        brk = np.subtract(level, h_lo)
        np.divide(brk, h - h_lo, out=brk)
        np.multiply(brk, dt, out=brk)
        np.add(brk, t_lo, out=brk)
        # the ratios overwrite the levels: one tile-sized temporary fewer
        ratio = np.where(cand, np.divide(brk, level, out=level), -np.inf)
        j = ratio.argmax(axis=1)
        k = np.arange(len(h))
        k = k[ratio[k, j] > self.ratio]
        j = j[k]
        self.ratio[k], self.cell[k] = ratio[k, j], c0 + j
        self.time[k], self.level[k] = brk[k, j], np.maximum(prev[k, j], lo)

    @property
    def found(self) -> np.ndarray:
        return self.ratio > -np.inf


def _first_crossing(fleet: Fleet, cell: np.ndarray, u: np.ndarray, level: float) -> float:
    """Earliest time in the cell [t0, t1] at which a robot's support exceeds level.

    Each support is taken as linear on the cell, which it is for rays,
    polylines and their antipodes; inf if no robot rises to above level.  A
    robot that starts the cell at the level only crosses it if it rises: one
    parked there set the level, whatever the last bit says.
    """
    t = math.inf
    for robot in fleet.robots:
        s_lo, s_hi = positions(robot, cell) @ u
        if s_hi > max(level, s_lo):
            frac = max(level - s_lo, 0.0) / (s_hi - s_lo)
            t = min(t, float(cell[0] + frac * (cell[1] - cell[0])))
    return t


def evaluate_cr(
    fleet: Fleet,
    horizon: float,
    theta_steps: int = DEFAULT_THETA_STEPS,
    t_steps: int = DEFAULT_T_STEPS,
    epsilon: float | None = None,
    window: tuple[float, float] | None = None,
    *,
    spacing: str = "uniform",
    t_start: float = 0.0,
) -> CRReport:
    """Competitive-ratio estimate: max adversary ratio over a theta grid.

    The time grid is the requested t_steps samples plus every robot's
    breakpoints in (t_start, horizon); the report's t_steps is the requested
    count.  The leading sweep candidates get their break time in closed form,
    and the reported witness satisfies cr_estimate = witness_time /
    witness.delta.

    Raises UncoveredDirectionError for the first direction, in grid order,
    whose coverage stays below epsilon (the fleet does not solve the problem
    within the horizon) or, failing that, whose records all fall outside
    the measurement window.
    """
    ts = _time_grid(horizon, t_steps, spacing, t_start)
    if theta_steps < 1:
        raise ValueError("theta_steps must be at least 1")
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_FACTOR * horizon
    _check_positive("epsilon", epsilon)
    if window is not None:
        w_lo, w_hi = float(window[0]), float(window[1])
        if not 0.0 < w_lo < w_hi:
            raise ValueError("window must satisfy 0 < lo < hi")
        window = (w_lo, w_hi)
    kinks = np.concatenate([breakpoints(robot) for robot in fleet.robots])
    kinks = kinks[(kinks > ts[0]) & (kinks < ts[-1])]
    if kinks.size:
        ts = np.sort(np.concatenate((ts, kinks)))
        ts = ts[np.diff(ts, prepend=-math.inf) > 0.0]  # one sample per time

    thetas = np.arange(theta_steps) * (2.0 * math.pi / theta_steps)
    normals = np.stack([np.cos(thetas), np.sin(thetas)])
    best = _BestLine(theta_steps, epsilon, window)
    coverage = _record_sweep(fleet, normals, ts, best)

    bad = (coverage < epsilon) | ~best.found
    if bad.any():
        j = int(np.argmax(bad))
        theta = float(thetas[j])
        if coverage[j] < epsilon:
            raise UncoveredDirectionError(
                f"direction theta={theta:.6f} uncovered: coverage "
                f"{float(coverage[j]):.6g} < epsilon {epsilon:.6g} within horizon",
                theta,
            )
        raise UncoveredDirectionError(
            f"direction theta={theta:.6f} has no records inside the "
            f"measurement window {window}",
            theta,
        )

    best_ratio, best_j, best_time = -math.inf, 0, 0.0
    # stable on -ratio: ties keep grid order, the first direction wins a tie
    for j in np.argsort(-best.ratio, kind="stable")[:POLISH_TOP]:
        time, g = float(best.time[j]), int(best.cell[j])
        if g > 0:
            hit = _first_crossing(fleet, ts[g - 1:g + 1], normals[:, j],
                                  float(best.level[j]))
            time = hit if hit < math.inf else time
        ratio = time / float(best.level[j])
        if ratio > best_ratio:
            best_ratio, best_j, best_time = ratio, j, time

    return CRReport(
        cr_estimate=best_ratio,
        witness=Line(float(thetas[best_j]), float(best.level[best_j])),
        witness_time=best_time,
        coverage_radius=float(coverage.min()),
        horizon=float(horizon),
        theta_steps=theta_steps,
        t_steps=t_steps,
        epsilon=float(epsilon),
        window=window,
        spacing=spacing,
    )
