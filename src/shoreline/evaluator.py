"""Adversarial competitive-ratio sweep.

The worst-case line for a fleet can be found direction by direction.  Fix a
direction theta and let h(t) be the running maximum, over robots and over
time, of the support reached in that direction.  A line at offset delta in
direction theta is first hit when h crosses delta, so along each direction
the adversary's best offsets sit just past the values where h set a new
record: place the line at delta = m + 0 for a record value m and the fleet
pays the time of the *next* record divided by m.

Each direction is sampled in t order.  Every sample i carries h[i] and
prev[i], the running maximum before i; it is a record when h[i] beats
prev[i] by more than rounding (TIE_MARGIN).  Offsets below epsilon are
excluded (any start inside radius epsilon trivializes the ratio), so a
record pays against the level L = max(prev[i], epsilon): the line at L + 0
is first crossed between samples i - 1 and i, and the record's ratio is the
time where the secant of h between them reaches L, over L.

On a fleet of rays, polylines and their antipodes (no spiral) every robot
moves in a straight line between its breakpoints (``trajectory.breakpoints``),
so its support is linear there, and the fleet's support gains extra kinks
only where two robots' supports cross.  Such a fleet is sampled at exactly
these events: t = 0, the horizon, every robot's breakpoints and, per
direction, every crossing of two robots' supports.  Between two events one
robot leads and h is linear, so every secant break time is exact and the
result does not depend on the time grid.

A fleet with a spiral is sampled on a time grid that also holds every
polyline breakpoint.  The secant is then early where robots take turns
inside a cell (h is convex there), so the leading candidates are finished
in closed form: the earliest time any one robot's support, taken as linear
on the cell, exceeds L.

``evaluate_cr`` runs either sweep in t order over tiles that hold every
direction for a run of samples; the running maximum, the previous sample and
the best line so far carry from tile to tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Line
from .trajectory import Fleet, breakpoints, piecewise_linear, positions

DEFAULT_THETA_STEPS = 720
DEFAULT_T_STEPS = 4096
# Fraction of the horizon below which adversary offsets are ignored.
DEFAULT_EPSILON_FACTOR = 1e-3
# How many leading grid-sweep candidates get their break time in closed form.
POLISH_TOP = 8
# A rise of at most this fraction above the running max is a tie up to
# rounding, not a record: supports that are equal in exact arithmetic (two
# robots at mirror points, a parked robot) can differ in the last bits.
TIE_MARGIN = 2e-12
# Most cells in one tile of either sweep: a grid tile holds every direction
# over a run of at least two time samples; an event tile holds every
# direction over a run of at least one cell between breakpoints, with one
# support difference per pair of robots and up to as many samples per cell.
# Small enough that a tile's temporaries stay in cache on 200k-step spiral
# grids, and that a long polyline never needs all its events at once.
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
    if not 0.0 <= t_start < horizon:
        raise ValueError(f"t_start must lie in [0, horizon), got {t_start!r}")
    if t_steps < 2:
        raise ValueError("t_steps must be at least 2")
    if spacing == "uniform":
        return np.linspace(t_start, horizon, t_steps)
    if spacing == "geometric":
        if t_start <= 0.0:
            raise ValueError("geometric spacing needs t_start > 0")
        return np.geomspace(t_start, horizon, t_steps)
    raise ValueError(f"unknown spacing {spacing!r}")


def _distinct(ts: np.ndarray) -> np.ndarray:
    """The times in increasing order, one sample per time."""
    ts = np.sort(ts)
    return ts[np.diff(ts, prepend=-math.inf) > 0.0]


def _grid_sweep(fleet: Fleet, normals: np.ndarray, ts: np.ndarray,
                best: _BestLine) -> None:
    """Sweep the support of every direction over the time grid into `best`.

    A tile is every direction over a run of at least two time samples, its
    support one product per robot: BLAS rounds products of other shapes (one
    sample, or fewer directions) differently, and the support must not
    depend on where tiles fall.
    """
    paths = [positions(robot, ts) for robot in fleet.robots]
    n = normals.shape[1]
    cols = max(2, min(len(ts), TILE_CELLS // n))
    bounds = [*range(0, len(ts) - 1, cols), len(ts)]  # a lone last sample joins in
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c0, c1 in zip(bounds, bounds[1:]):
            support = paths[0][c0:c1] @ normals
            for path in paths[1:]:
                np.maximum(support, path[c0:c1] @ normals, out=support)
            best.add(c0, support.T, ts[c0:c1])


def _event_sweep(fleet: Fleet, normals: np.ndarray, horizon: float,
                 best: _BestLine) -> None:
    """Sweep every direction over its events into `best`; exact, no time grid.

    A cell runs between two consecutive breakpoints of the fleet, where
    every robot's support is linear.  Two robots' supports cross inside it
    where their difference changes sign, at the fraction d0 / (d0 - d1) of
    its values d0, d1 at the cell's ends.  Each cell yields, per direction,
    as many samples as the direction in its tile with the most crossings
    there: its crossings in t order, then the cell's end.  Directions with
    fewer crossings repeat the cell's start, a sample that never sets a
    record.  A tile is every direction over a run of cells, its supports one
    product per robot over at least two breakpoints, as in the grid sweep.
    """
    ts = np.concatenate([np.array([0.0, horizon])]
                        + [breakpoints(robot) for robot in fleet.robots])
    ts = _distinct(ts[ts <= horizon])
    paths = [positions(robot, ts) for robot in fleet.robots]
    a, b = np.triu_indices(len(paths), 1)
    n = normals.shape[1]
    width = max(1, TILE_CELLS // (n * (2 * len(a) + 1)))
    sample = 1  # sample 0 is t = 0, where every support is 0: the start state
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k0 in range(0, len(ts) - 1, width):
            k1 = min(k0 + width, len(ts) - 1)
            s = np.stack([path[k0:k1 + 1] @ normals for path in paths])
            s_lo, ds = s[:, :-1], np.diff(s, axis=1)  # robot, cell, direction
            d = s[a] - s[b]
            d0, d1 = d[:, :-1], d[:, 1:]
            cross = (d0 < 0.0) & (d1 > 0.0) | (d0 > 0.0) & (d1 < 0.0)
            frac = np.where(cross, d0 / (d0 - d1), 0.0)
            frac.sort(axis=0)  # the crossings last, in t order
            most = int(np.count_nonzero(frac, axis=0).max(initial=0))
            frac = frac[len(frac) - most:]
            hx = s_lo[0] + frac * ds[0]  # the fleet's support at each crossing
            for r in range(1, len(paths)):
                np.maximum(hx, s_lo[r] + frac * ds[r], out=hx)
            tx = ts[k0:k1, None] + frac * np.diff(ts[k0:k1 + 1])[:, None]
            h = np.concatenate((hx, s[:, 1:].max(axis=0)[None]))
            t = np.concatenate((tx, np.broadcast_to(ts[k0 + 1:k1 + 1, None],
                                                    (1, k1 - k0, n))))
            # (sample in cell, cell, direction) -> direction, then t order
            h = h.transpose(2, 1, 0).reshape(n, -1)
            best.add(sample, h, t.transpose(2, 1, 0).reshape(n, -1))
            sample += h.shape[1]


class _BestLine:
    """Each direction's worst line so far, reduced tile by tile in t order.

    Candidates are the pair numerators (records whose prev lies in [lo, hi])
    and the boundary: the first record at or above lo, which, records being
    increasing, is the one whose prev lies below lo.  It pays against lo
    and precedes every pair, and the first maximum wins: within a tile by
    argmax, across tiles by a strict >.  On a time grid the boundary
    record's value must also lie at or below hi: there a secant across a
    cell that leaps over the whole window is no measurement.  The first
    sample is never a candidate: nothing is known before it.  On a grid
    starting at t0 > 0, lo is raised to t0, so offsets at or below t0 go
    unmeasured: each larger one, at unit speed, is first reached after t0.

    Column 0 of the buffers carries each direction's last sample and the
    running max up to it, which starts at 0 and ends as its coverage.
    """

    def __init__(self, n: int, epsilon: float, window: tuple[float, float] | None,
                 t0: np.ndarray, exact: bool):
        self.lo, self.hi = epsilon, math.inf
        if window is not None:
            self.lo, self.hi = max(epsilon, window[0]), window[1]
        if not exact:  # at unit speed no support exceeds t0 before the grid starts
            self.lo = max(self.lo, float(t0))
        self.exact = exact
        self.ratio = np.full(n, -np.inf)  # stays -inf without a record in [lo, hi]
        self.cell = np.zeros(n, dtype=np.intp)  # sample index of the numerator
        self.time = np.zeros(n)
        self.level = np.zeros(n)  # max(prev, lo): the offset its break time beat
        self.hbuf, self.rbuf, self.t_last = np.zeros((n, 1)), np.zeros((n, 1)), t0

    @property
    def coverage(self) -> np.ndarray:
        return self.rbuf[:, 0]

    def add(self, c0: int, h: np.ndarray, t: np.ndarray) -> None:
        """Reduce samples c0, c0 + 1, ... of every direction.

        h holds one row per direction; t is one row of times for every
        direction (a grid) or one row per direction (events).
        """
        lo, hi = self.lo, self.hi
        w = h.shape[1]
        if self.hbuf.shape[1] <= w:
            self.hbuf, self.rbuf = (np.concatenate((buf[:, :1], np.empty((len(h), w))),
                                                   axis=1) for buf in (self.hbuf, self.rbuf))
        self.hbuf[:, 1:w + 1] = h
        h, h_lo = self.hbuf[:, 1:w + 1], self.hbuf[:, :w]
        run, prev = self.rbuf[:, 1:w + 1], self.rbuf[:, :w]
        np.fmax.accumulate(h, axis=1, out=run)  # = maximum on finite supports, faster
        np.maximum(run, prev[:, :1], out=run)
        t_lo = np.concatenate((self.t_last[..., None], t[..., :-1]), axis=-1)
        self.t_last = t[..., -1]
        rec = h > prev * (1.0 + TIE_MARGIN)
        cand = rec & (h >= lo)
        if c0 == 0:
            cand[:, 0] = False
        if hi < math.inf:
            cand &= prev <= hi
            if not self.exact:
                cand &= (prev >= lo) | (h <= hi)
        level = np.maximum(prev, lo)
        # On a candidate h >= level >= prev >= h_lo and h > h_lo, so the
        # secant fraction lies in [0, 1]; elsewhere it is garbage (0/0, x/0
        # or overflow) that the mask drops.
        brk = np.subtract(level, h_lo)
        np.divide(brk, h - h_lo, out=brk)
        np.multiply(brk, t - t_lo, out=brk)
        np.add(brk, t_lo, out=brk)
        # the ratios overwrite the levels: one tile-sized temporary fewer
        ratio = np.where(cand, np.divide(brk, level, out=level), -np.inf)
        j = ratio.argmax(axis=1)
        k = np.arange(len(h))
        k = k[ratio[k, j] > self.ratio]
        j = j[k]
        self.ratio[k], self.cell[k] = ratio[k, j], c0 + j
        self.time[k], self.level[k] = brk[k, j], np.maximum(prev[k, j], lo)
        self.hbuf[:, 0], self.rbuf[:, 0] = h[:, -1], run[:, -1]

    @property
    def found(self) -> np.ndarray:
        return self.ratio > -np.inf


def _first_crossing(fleet: Fleet, cell: np.ndarray, u: np.ndarray, level: float) -> float:
    """Earliest time in the cell [t0, t1] at which a robot's support exceeds level.

    Each support is taken as linear on the cell: exact for rays, polylines
    and their antipodes, the chord for a spiral.  inf if no robot rises to
    above level.  A robot that starts the cell at the level only crosses it
    if it rises: one parked there set the level, whatever the last bit says.
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

    On a fleet without a spiral (rays, polylines and their antipodes) every
    direction is sampled at its events, so the ratio in each grid direction
    is exact; t_steps, spacing and t_start are validated but do not change
    the result.  A fleet with a spiral is sampled on the time grid of
    t_steps samples from t_start, plus every robot's breakpoints in
    (t_start, horizon), and its leading candidates get their break time in
    closed form; offsets at or below t_start go unmeasured.  The report's
    t_steps is the requested count, and the reported witness satisfies
    cr_estimate = witness_time / witness.delta.

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

    thetas = np.arange(theta_steps) * (2.0 * math.pi / theta_steps)
    normals = np.stack([np.cos(thetas), np.sin(thetas)])
    exact = all(piecewise_linear(robot) for robot in fleet.robots)
    if exact:
        best = _BestLine(theta_steps, epsilon, window, np.zeros(theta_steps), True)
        _event_sweep(fleet, normals, horizon, best)
    else:
        kinks = np.concatenate([breakpoints(robot) for robot in fleet.robots])
        kinks = kinks[(kinks > ts[0]) & (kinks < ts[-1])]
        if kinks.size:
            ts = _distinct(np.concatenate((ts, kinks)))
        best = _BestLine(theta_steps, epsilon, window, ts[0], False)
        _grid_sweep(fleet, normals, ts, best)
    coverage = best.coverage

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
    for j in np.argsort(-best.ratio, kind="stable")[:1 if exact else POLISH_TOP]:
        time, g = float(best.time[j]), int(best.cell[j])
        if not exact:
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
