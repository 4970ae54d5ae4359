"""Adversarial competitive-ratio sweep.

The worst-case line for a fleet can be found direction by direction.  Fix a
direction theta and let h(t) be the running maximum, over robots and over
time, of the support reached in that direction.  A line at offset delta in
direction theta is first hit when h crosses delta, so along each direction
the adversary's best offsets sit just past the values where h set a new
record: place the line at delta = m + 0 for a record value m and the fleet
pays the time of the *next* record divided by m.

Every grid cell i carries h[i], prev[i] (the running maximum before i) and a
secant break time: when, within one grid step, prev[i] was first exceeded.
Cell i is a record when h[i] > prev[i], and each pair ratio is attached to
its *numerator* record: on a record whose prev[i] is the preceding record's
value, the line at prev[i] + 0 pays break_time[i] / prev[i].  That ratio is
exact for piecewise-linear supports rather than inflated by one grid step,
which keeps ray fleets accurate at the default grids.  Offsets below epsilon
are excluded (any start inside radius epsilon trivializes the ratio); the
first eligible record also pays a boundary ratio against max(epsilon, prev).

``evaluate_cr`` finds all of this in one sweep, in t order, over tiles that
hold every direction for a run of time samples; the running maximum, the
previous sample and the best line so far carry from tile to tile.
``records_to_ratio`` runs the same reduction on a stored profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Line, normalize_angle
from .trajectory import Fleet, positions

DEFAULT_THETA_STEPS = 720
DEFAULT_T_STEPS = 4096
# Fraction of the horizon below which adversary offsets are ignored.
DEFAULT_EPSILON_FACTOR = 1e-3
RECORD_TIME_TOL_FACTOR = 1e-9
# How many leading sweep candidates get their numerator re-bisected.
POLISH_TOP = 8
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
class DirectionProfile:
    theta: float
    times: np.ndarray
    values: np.ndarray
    coverage: float

    @property
    def records(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.values.tolist()))


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
    profiles: list[DirectionProfile] | None = field(default=None, repr=False)


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


def _fleet_support_at(fleet: Fleet, ts: np.ndarray, theta: float) -> np.ndarray:
    u = np.array([math.cos(theta), math.sin(theta)])
    out: np.ndarray | None = None
    for robot in fleet.robots:
        s = positions(robot, ts) @ u
        out = s if out is None else np.maximum(out, s)
    return out


def _record_sweep(fleet: Fleet, thetas: np.ndarray, ts: np.ndarray, sinks) -> np.ndarray:
    """Sweep the support of every direction over the time grid, tile by tile.

    A tile is every direction over a run of at least two time samples, its
    support one product per robot: BLAS rounds products of other shapes (one
    sample, or fewer directions) differently, and the support must not
    depend on where tiles fall.  Each tile, in t order, goes to every sink
    as ``add(c0, h, prev, brk, rec)`` (first sample; support, running max
    before each cell, secant break time, record mask), valid only during
    the call.  Returns each direction's coverage: its last record value, or
    0 without records.
    """
    paths = [positions(robot, ts) for robot in fleet.robots]
    normals = np.stack([np.cos(thetas), np.sin(thetas)])
    ts_lo = np.concatenate((ts[:1], ts[:-1]))
    dt = ts - ts_lo  # 0 in the first column, whose break time is ts[0]
    cols = max(2, min(len(ts), TILE_CELLS // len(thetas)))
    bounds = [*range(0, len(ts) - 1, cols), len(ts)]  # a lone last sample joins in
    # Column 0 of each buffer carries the previous tile's last column: the
    # sample before the tile and the running max before it (0 before the
    # first sample, which only the first column sees).
    hbuf = np.zeros((len(thetas), cols + 2))
    rbuf = np.zeros((len(thetas), cols + 2))
    seen = np.zeros(len(thetas), dtype=bool)
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
            if c0:
                np.maximum(run, prev[:, :1], out=run)
            rec = h > prev
            # On a record h > prev >= h_lo, so the secant fraction lies in
            # [0, 1]; off the records it is garbage (0/0, x/0 or overflow)
            # that no sink reads.
            brk = np.subtract(prev, h_lo)
            np.divide(brk, h - h_lo, out=brk)
            np.multiply(brk, dt[c0:c1], out=brk)
            np.add(brk, ts_lo[c0:c1], out=brk)
            for sink in sinks:
                sink.add(c0, h, prev, brk, rec)
            seen |= rec.any(axis=1)
            hbuf[:, 0] = h[:, -1]
            rbuf[:, 0] = run[:, -1]
    return np.where(seen, rbuf[:, 0], 0.0)


class _RecordLog:
    """Record cells of each swept direction: grid index, value, prev, break time."""

    def __init__(self, n: int) -> None:
        self.parts: list[list[tuple]] = [[] for _ in range(n)]

    def add(self, c0, h, prev, brk, rec) -> None:
        for k, mask in enumerate(rec):
            i = np.nonzero(mask)[0]
            self.parts[k].append((c0 + i, h[k, i], prev[k, i], brk[k, i]))

    def row(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.concatenate(col) for col in zip(*self.parts[j]))


class _BestLine:
    """Each direction's worst line so far, reduced tile by tile in t order.

    Candidates are the pair numerators (records whose prev lies in [lo, hi])
    and the boundary: the first record in [lo, hi], which, records being
    increasing, is the one whose prev lies below lo.  It pays against
    max(lo, prev) and precedes every pair, and the first maximum wins:
    within a tile by argmax, across tiles by a strict >.
    """

    def __init__(self, n: int, epsilon: float, window: tuple[float, float] | None):
        self.lo, self.hi = epsilon, math.inf
        if window is not None:
            self.lo, self.hi = max(epsilon, window[0]), window[1]
        self.ratio = np.full(n, -np.inf)  # stays -inf without a record in [lo, hi]
        self.cell = np.zeros(n, dtype=np.intp)  # grid index of the numerator
        self.time = np.zeros(n)
        self.level = np.zeros(n)  # its prev: the level its break time beat

    def add(self, c0, h, prev, brk, rec) -> None:
        lo, hi = self.lo, self.hi
        cand = rec & (h >= lo)
        if hi < math.inf:
            cand &= (prev <= hi) & ((prev >= lo) | (h <= hi))
        ratio = np.where(cand, brk / np.maximum(prev, lo), -np.inf)
        j = ratio.argmax(axis=1)
        k = np.arange(len(h))
        k = k[ratio[k, j] > self.ratio]
        j = j[k]
        self.ratio[k], self.cell[k] = ratio[k, j], c0 + j
        self.time[k], self.level[k] = brk[k, j], prev[k, j]

    @property
    def found(self) -> np.ndarray:
        return self.ratio > -np.inf

    @property
    def delta(self) -> np.ndarray:
        return np.maximum(self.level, self.lo)


def _bisect_levels(
    fleet: Fleet,
    theta: float,
    lo: np.ndarray,
    hi: np.ndarray,
    levels: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Earliest times at which fleet support exceeds the given levels.

    Brackets must satisfy h(lo) <= level < h(hi); returns the hi ends after
    shrinking every bracket below tol.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    # 60 halvings would overshoot double precision; loop exits on width.
    for _ in range(64):
        width = hi - lo
        if not np.any(width > tol):
            break
        mid = 0.5 * (lo + hi)
        hm = _fleet_support_at(fleet, mid, theta)
        above = hm > levels
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return hi


def direction_profile(
    fleet: Fleet,
    theta: float,
    horizon: float,
    t_steps: int = DEFAULT_T_STEPS,
    *,
    spacing: str = "uniform",
    t_start: float = 0.0,
) -> DirectionProfile:
    """Running-max support records along one direction.

    Every record time is refined by bisection to within 1e-9 * horizon of
    the true instant the previous record value was exceeded.
    """
    theta = normalize_angle(theta)
    ts = _time_grid(horizon, t_steps, spacing, t_start)
    log = _RecordLog(1)
    coverage = _record_sweep(fleet, np.array([theta]), ts, [log])
    idx, vals, levels, times = log.row(0)
    inner = idx > 0
    ii = idx[inner]
    times[inner] = _bisect_levels(
        fleet, theta, ts[ii - 1], ts[ii], levels[inner],
        RECORD_TIME_TOL_FACTOR * horizon,
    )
    return DirectionProfile(theta=theta, times=times, values=vals,
                            coverage=float(coverage[0]))


def records_to_ratio(
    profile: DirectionProfile,
    epsilon: float,
    window: tuple[float, float] | None = None,
) -> tuple[float, float, float]:
    """Worst hit-time / offset ratio encoded by a profile.

    Considers each record value m at or above epsilon as a line offset m+0
    (paid at the next record's break time) plus the boundary line just above
    max(epsilon, value preceding the first eligible record).
    """
    _check_positive("epsilon", epsilon)
    best = _BestLine(1, epsilon, window)
    values = np.asarray(profile.values, dtype=float)
    if values.size:
        prev = np.concatenate(([0.0], values[:-1]))
        best.add(0, values[None], prev[None],
                 np.asarray(profile.times, dtype=float)[None],
                 np.ones((1, values.size), dtype=bool))
    if not best.found[0]:
        raise UncoveredDirectionError(
            f"direction uncovered: no record at or above epsilon={epsilon:g} "
            f"for theta={profile.theta:.6f}",
            profile.theta,
        )
    return float(best.ratio[0]), float(best.delta[0]), float(best.time[0])


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
    keep_profiles: bool = False,
) -> CRReport:
    """Competitive-ratio estimate: max adversary ratio over a theta grid.

    Record break times come from the tiled secant sweep; the leading
    candidates are then re-bisected against the true support before the
    final max, so the reported witness satisfies
    cr_estimate = witness_time / witness.delta to high precision.

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
    best = _BestLine(theta_steps, epsilon, window)
    log = _RecordLog(theta_steps) if keep_profiles else None
    coverage = _record_sweep(fleet, thetas, ts, [best] if log is None else [best, log])

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

    deltas = best.delta
    tol = RECORD_TIME_TOL_FACTOR * horizon
    best_ratio, best_theta, best_delta, best_time = -math.inf, 0.0, 0.0, 0.0
    # stable on -ratio: ties keep grid order, the first direction polishes first
    for j in np.argsort(-best.ratio, kind="stable")[:POLISH_TOP]:
        ratio, theta = float(best.ratio[j]), float(thetas[j])
        delta, time, g = float(deltas[j]), float(best.time[j]), int(best.cell[j])
        if g > 0 and ts[g] > ts[g - 1]:
            t_ref = _bisect_levels(
                fleet, theta, ts[g - 1:g], ts[g:g + 1], best.level[j:j + 1], tol
            )
            time = float(t_ref[0])
            ratio = time / delta
        if ratio > best_ratio:
            best_ratio, best_theta, best_delta, best_time = ratio, theta, delta, time

    profiles = None
    if log is not None:
        profiles = []
        for j, theta in enumerate(thetas):
            _, vals, _, brk = log.row(j)
            profiles.append(DirectionProfile(float(theta), brk, vals, float(coverage[j])))

    return CRReport(
        cr_estimate=best_ratio,
        witness=Line(best_theta, best_delta),
        witness_time=best_time,
        coverage_radius=float(coverage.min()),
        horizon=float(horizon),
        theta_steps=theta_steps,
        t_steps=t_steps,
        epsilon=float(epsilon),
        window=window,
        spacing=spacing,
        profiles=profiles,
    )
