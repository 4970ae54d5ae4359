"""Adversarial competitive-ratio sweep, and its closed form for ray fleets.

A fleet of rays (or antipodes of rays) reaches the line at offset d with
normal theta at time d / max_i cos(theta - heading_i), the same ratio for
every offset.  That maximum is least, cos(g/2), on the bisector of the
widest gap g between headings, so the fleet's ratio over every direction
is 1 / cos(g/2), in closed form with no grid; a gap of pi or more leaves
lines that are never hit.  Every other fleet is swept as follows.

The worst-case line for a fleet can be found direction by direction.  Fix a
direction theta and let h(t) be the running maximum, over robots and over
time, of the support reached in that direction.  A line at offset L is
first hit when h passes L, at T(L), and the adversary picks the worst
T(L) / L over [lo, hi]: lo is epsilon (a start inside it trivializes the
ratio) or a window's lower end, hi its upper end or infinity.

Such a fleet is sampled at its events, per direction: t = 0, the horizon,
every robot's breakpoints and spiral support extrema (``trajectory``), every
time two straight robots' supports cross and, in record cells only, every
time a spiral and another robot swap places above the running max.  Every
support is monotone between two samples, so the running max is exact at
each, and the robots that pass it keep their order.  A sample is a record
when it beats the running max prev before it by more than rounding
(TIE_MARGIN).  Along one robot's rising piece T(L) / L is monotone
(straight) or falls, then rises (spiral), so a record cell's worst line is
the one just above max(prev, lo) or the one just below min(h, hi).  Each is
paid when the first robot passes it: in closed form on a straight piece,
bisected to the float spacing on a spiral piece.  One sweep runs in t
order over tiles of every direction, carrying only the running maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Line, max_angular_gap
from .trajectory import (AntipodalOf, Fleet, Ray, breakpoints, piecewise_linear, positions,
                         support_extrema)

DEFAULT_THETA_STEPS = 720
DEFAULT_T_STEPS = 4096
# Fraction of the horizon below which adversary offsets are ignored.
DEFAULT_EPSILON_FACTOR = 1e-3
# A rise of at most this fraction above the running max is a tie up to
# rounding, not a record: supports that are equal in exact arithmetic (two
# robots at mirror points, a parked robot) can differ in the last bits.  The
# same fraction separates a cell's two lines, equal on a ray, and two robots
# that stay level with each other.
TIE_MARGIN = 2e-12
# Most cells in one tile of the sweep: a tile holds every direction over a
# run of at least one cell, a support difference per pair of straight robots
# and a support per row (see _sweep) at up to as many samples per cell.
TILE_CELLS = 1 << 15
# Most parts of one cell in which two robots are searched for a swap at once;
# only robots that run level to within a hair of each other need more.
SWAP_PARTS = 64


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


def _check_time_grid(horizon: float, t_steps: int, spacing: str, t_start: float) -> None:
    """Validate the time-grid arguments, which no longer change the result."""
    _check_positive("horizon", horizon)
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start!r}")
    if not 0.0 <= t_start < horizon:
        raise ValueError(f"t_start must lie in [0, horizon), got {t_start!r}")
    if t_steps < 2:
        raise ValueError("t_steps must be at least 2")
    if spacing not in ("uniform", "geometric"):
        raise ValueError(f"unknown spacing {spacing!r}")
    if spacing == "geometric" and t_start <= 0.0:
        raise ValueError("geometric spacing needs t_start > 0")


def _support(robot, ts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The robot's support at times ts, each in its own direction u = (cos, sin)."""
    p = positions(robot, ts.ravel())
    return p[:, 0].reshape(ts.shape) * u[0] + p[:, 1].reshape(ts.shape) * u[1]


def _rise_time(robot, u: np.ndarray, level: np.ndarray, t0: np.ndarray,
               t1: np.ndarray) -> np.ndarray:
    """When a support rising through each cell [t0, t1] passes level: the
    later end, once bisection leaves no float between the two."""
    t0, t1 = t0.copy(), t1.copy()
    while True:
        mid = 0.5 * (t0 + t1)
        live = (t0 < mid) & (mid < t1)
        if not live.any():
            return t1
        up = _support(robot, mid, u) > level
        t1 = np.where(live & up, mid, t1)
        t0 = np.where(live & ~up, mid, t0)


def _swaps(robots, normals: np.ndarray, s: np.ndarray, t: np.ndarray,
           floor: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Fractions of each cell at which robots ra[p] and rb[p] swap places above floor.

    floor is, per cell, the running max at its start or lo.  Only robots
    that both end a cell above it can change which passes a line there
    first; both then rise, so on a part [u, v] of the cell their difference
    lies in [a(u) - b(v), a(v) - b(u)].  A part is dropped once that
    excludes zero or one ends it at or below the floor; else it is halved
    until no float lies inside, the two tie at both ends (TIE_MARGIN of
    the floor) or its (pair, direction, cell) has more than SWAP_PARTS
    parts left, robots that close being level; a sign change then marks a
    swap at its end.  Returns (swap, cell, direction): each cell's swaps as
    fractions of it, 0 past the last.
    """
    end = s[:, 1:] > floor
    p, c0, j0 = np.nonzero(end[ra] & end[rb])
    ra, rb, j, lvl = ra[p], rb[p], j0, floor[c0, j0]
    u, v = t[c0, j0], t[c0 + 1, j0]
    au, av, bu, bv = s[ra, c0, j0], s[ra, c0 + 1, j0], s[rb, c0, j0], s[rb, c0 + 1, j0]
    e = np.arange(len(p))  # the (pair, direction, cell) each part belongs to
    hits, when = [e[:0]], [u[:0]]
    while len(e):
        flip = np.sign(au - bu) != np.sign(av - bv)
        tie = np.maximum(np.abs(au - bu), np.abs(av - bv)) <= TIE_MARGIN * lvl
        live = (au <= bv) & (bu <= av) & (np.minimum(av, bv) > lvl)
        mid = 0.5 * (u + v)
        split = live & ~tie & (u < mid) & (mid < v)
        split &= np.bincount(e[split], minlength=len(p))[e] <= SWAP_PARTS
        last = live & ~split & flip
        hits.append(e[last])
        when.append(v[last])
        e, ra, rb, j, lvl, u, v, mid, au, av, bu, bv = (
            x[split] for x in (e, ra, rb, j, lvl, u, v, mid, au, av, bu, bv))
        am, bm = np.empty_like(mid), np.empty_like(mid)
        for r in np.unique(np.concatenate((ra, rb))):
            for m, out in ((ra == r, am), (rb == r, bm)):
                out[m] = _support(robots[r], mid[m], normals[:, j[m]])
        e, ra, rb, j, lvl, u, v, au, av, bu, bv = (np.concatenate(x) for x in (
            (e, e), (ra, ra), (rb, rb), (j, j), (lvl, lvl), (u, mid), (mid, v),
            (au, am), (am, av), (bu, bm), (bm, bv)))
    hits, when = np.concatenate(hits), np.concatenate(when)
    c, j = c0[hits], j0[hits]
    frac = (when - t[c, j]) / (t[c + 1, j] - t[c, j])
    key = c * floor.shape[1] + j
    order = np.argsort(key)
    key, c, j, frac = key[order], c[order], j[order], frac[order]
    rank = np.arange(len(key)) - np.searchsorted(key, key)  # within its cell
    out = np.zeros((rank.max(initial=-1) + 1,) + floor.shape)
    out[rank, c, j] = frac
    return out


def _sweep(fleet: Fleet, normals: np.ndarray, ts: np.ndarray, epsilon: float,
           window: tuple[float, float] | None) -> _BestLine:
    """Sweep every direction over the cells between consecutive times.

    ts is one row of times for every direction, or one row per direction.
    A tile is every direction over a run of cells.  On one row the supports
    are one product per robot over at least two times: BLAS rounds products
    of other shapes (one time, or fewer directions) differently, and the
    support must not depend on where tiles fall.

    Two straight robots cross inside a cell where their difference changes
    sign, at the fraction d0 / (d0 - d1) of its values at the cell's ends;
    _swaps finds the rest.  A cell yields, per direction, as many samples
    as the direction in its tile with the most crossings there: its
    crossings in t order (fewer repeat the cell's start, never a record),
    then its end.  A straight robot's support at a crossing is interpolated.
    Lines are passed on a robot's own support only where it is a spiral: a
    fleet of straight robots hands over its upper envelope alone.
    """
    robots = fleet.robots
    straight = np.array([piecewise_linear(robot) for robot in robots])
    rows = 1 if straight.all() else len(robots)
    best = _BestLine(robots, straight[:rows], normals, epsilon, window)
    n = normals.shape[1]
    shared = ts.ndim == 1
    if shared:
        paths = [positions(robot, ts) for robot in robots]
        ts = ts[:, None]
    else:  # t, direction
        ts = ts.T
        s_all = np.array([_support(robot, ts, normals[:, None]) for robot in robots])
    a, b = np.triu_indices(len(robots), 1)
    bent = ~(straight[a] & straight[b])
    (a, b), (ca, cb) = (a[~bent], b[~bent]), (a[bent], b[bent])
    width = max(1, TILE_CELLS // (n * (2 * len(a) + rows)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k0 in range(0, len(ts) - 1, width):
            k1 = min(k0 + width, len(ts) - 1)
            t = ts[k0:k1 + 1]
            s = (np.array([path[k0:k1 + 1] @ normals for path in paths]) if shared
                 else s_all[:, k0:k1 + 1])  # robot, t, direction
            s_lo, ds, dt = s[:, :-1], np.diff(s, axis=1), np.diff(t, axis=0)
            d = s[a] - s[b]
            d0, d1 = d[:, :-1], d[:, 1:]
            cross = (d0 < 0.0) & (d1 > 0.0) | (d0 > 0.0) & (d1 < 0.0)
            frac = np.where(cross, d0 / (d0 - d1), 0.0)  # pair, cell, direction
            if len(ca):
                floor = np.fmax.accumulate(s.max(axis=0)[:-1], axis=0)
                floor = np.maximum(floor, np.maximum(best.coverage, best.lo))
                frac = np.concatenate((frac, _swaps(robots, normals, s, t, floor, ca, cb)))
            frac.sort(axis=0)  # the crossings last, in t order
            most = int(np.count_nonzero(frac, axis=0).max(initial=0))
            frac = frac[len(frac) - most:]
            tx = t[:-1] + frac * dt
            sx = (s_lo[r] + frac * ds[r] if straight[r]
                  else _support(robot, tx, normals[:, None, None])
                  for r, robot in enumerate(robots))
            if rows == 1:  # the envelope, one robot at a time
                hx = next(sx)
                for row in sx:
                    np.maximum(hx, row, out=hx)
                sx, s = hx[None], s.max(axis=0, keepdims=True)
            else:
                sx = np.array(list(sx))
            # (row, sample in cell, cell, direction) -> row, direction, then
            # t order: each cell's crossings, then its end, after the tile's
            # first time
            sx = np.concatenate((sx, s[:, None, 1:]), axis=1)
            tx = np.concatenate((tx, np.broadcast_to(t[None, 1:], (1, k1 - k0, n))))
            s = np.concatenate((s[:, :1].transpose(0, 2, 1),
                                sx.transpose(0, 3, 2, 1).reshape(rows, n, -1)), axis=-1)
            t = np.concatenate((np.broadcast_to(t[:1].T, (n, 1)),
                                tx.transpose(2, 1, 0).reshape(n, -1)), axis=1)
            best.add(s[..., :-1], s[..., 1:], t[:, :-1], t[:, 1:])
    best.finish()
    return best


class _BestLine:
    """Each direction's worst line so far, reduced tile by tile in t order.

    Every record offers the line just above max(prev, lo); the first
    maximum wins.  The line just below min(h, hi) of a record is beaten by
    the next record's, which waits at least as long for the same offset, so
    only each direction's last record offers it, once the sweep is done
    (finish), and it must beat the best line by more than TIE_MARGIN: on a
    ray the two are equal up to rounding.
    """

    def __init__(self, robots, straight: np.ndarray, normals: np.ndarray, epsilon: float,
                 window: tuple[float, float] | None):
        self.robots, self.straight, self.normals = robots, straight, normals
        self.lo, self.hi = epsilon, math.inf
        if window is not None:
            self.lo, self.hi = max(self.lo, window[0]), window[1]
        n = normals.shape[1]
        self.ratio = np.full(n, -np.inf)  # stays -inf without a record in [lo, hi]
        self.time = np.zeros(n)
        self.level = np.zeros(n)  # the witness offset
        self.coverage = np.zeros(n)  # the running max, carried from tile to tile
        self.high, self.high_time = np.ones(n), np.full(n, -np.inf)  # the last record's

    def _pass_time(self, s_lo, s, t_lo, t, level, k) -> np.ndarray:
        """Earliest time in each cell at which a row ending it above level passes it.

        s_lo and s hold each row's support at the cells' ends, one column
        per cell, t_lo and t their times, k their directions; the cell's
        end where no row ends above the level.
        """
        when = np.subtract(level, s_lo)  # straight: the closed form
        np.divide(when, s - s_lo, out=when)
        np.multiply(when, t - t_lo, out=when)
        np.add(when, t_lo, out=when)
        if self.straight.all():  # one row, the upper envelope: it rises
            return when[0]  # through every record, garbage elsewhere
        rise = s > level
        when = np.where(rise & self.straight[:, None], when, t).min(axis=0)
        # an antipode's support is its twin's in the opposite direction, so
        # one search serves a spiral and all of its antipodes
        twins = {}
        for r in np.flatnonzero(~self.straight):
            robot, sign = self.robots[r], 1.0
            while isinstance(robot, AntipodalOf):
                robot, sign = robot.inner, -sign
            m = np.flatnonzero(rise[r])
            twins.setdefault(robot, []).append((m, sign * self.normals[:, k[m]]))
        for robot, rows in twins.items():
            cols, dirs = zip(*rows)
            m = np.concatenate(cols)
            if len(m):
                bent = _rise_time(robot, np.concatenate(dirs, axis=1), level[m], t_lo[m], t[m])
                np.minimum.at(when, m, bent)
        return when

    def add(self, s_lo: np.ndarray, s: np.ndarray, t_lo: np.ndarray, t: np.ndarray) -> None:
        """Reduce the next samples s at times t, each after s_lo at t_lo: one
        support per row, one time per direction, each direction in t order."""
        lo, hi = self.lo, self.hi
        h_lo, h = (s_lo[0], s[0]) if len(s) == 1 else (s_lo.max(axis=0), s.max(axis=0))
        prev = np.fmax.accumulate(h_lo, axis=1)  # = maximum on finite supports, faster
        np.maximum(prev, self.coverage[:, None], out=prev)
        self.coverage = np.maximum(prev[:, -1], h[:, -1])
        cand = (h > prev * (1.0 + TIE_MARGIN)) & (h >= lo) & (prev <= hi)
        level = np.maximum(prev, lo)
        e = cand.shape[1] - 1 - cand[:, ::-1].argmax(axis=1)  # each direction's last
        d = np.flatnonzero(cand[np.arange(len(h)), e])        # record in the tile
        e = e[d]
        high, t_high = np.minimum(h[d, e], hi), t[d, e]
        cut = np.flatnonzero(h[d, e] > hi)  # it passes hi: a root there
        dc, ec = d[cut], e[cut]
        # the records' lines, every spiral bisected in one go
        k, i = np.nonzero(cand)
        kk, ii = np.concatenate((k, dc)), np.concatenate((i, ec))
        when = self._pass_time(s_lo[:, kk, ii], s[:, kk, ii], t_lo[kk, ii], t[kk, ii],
                               np.concatenate((level[k, i], high[cut])), kk)
        brk, ratio = np.zeros_like(level), np.full(level.shape, -np.inf)
        brk[k, i], t_high[cut] = when[:len(k)], when[len(k):]
        ratio[k, i] = brk[k, i] / level[k, i]
        self.high[d], self.high_time[d] = high, t_high
        j = ratio.argmax(axis=1)
        k = np.arange(len(h))
        k = k[ratio[k, j] > self.ratio]
        j = j[k]
        self.ratio[k], self.time[k] = ratio[k, j], brk[k, j]
        self.level[k] = np.maximum(prev[k, j], lo)

    def finish(self) -> None:
        """Offer each direction's line just below its last record."""
        ratio = self.high_time / self.high
        up = ratio > self.ratio * (1.0 + TIE_MARGIN)
        self.ratio[up], self.time[up], self.level[up] = ratio[up], self.high_time[up], self.high[up]


def _heading(robot) -> float | None:
    """A ray's bearing, or that of an antipode of one turned by pi; else None."""
    flip = False
    while isinstance(robot, AntipodalOf):
        robot, flip = robot.inner, not flip
    if not isinstance(robot, Ray):
        return None
    return robot.angle + math.pi if flip else robot.angle


def _uncovered(theta: float, coverage: float, epsilon: float,
               window: tuple[float, float] | None) -> UncoveredDirectionError:
    """The error for direction theta, whose coverage falls short of epsilon or
    of the window."""
    if coverage < epsilon:
        return UncoveredDirectionError(
            f"direction theta={theta:.6f} uncovered: coverage "
            f"{coverage:.6g} < epsilon {epsilon:.6g} within horizon",
            theta,
        )
    return UncoveredDirectionError(
        f"direction theta={theta:.6f} has no records inside the "
        f"measurement window {window}",
        theta,
    )


def _ray_fleet_cr(headings: list[float], horizon: float, thetas: np.ndarray, epsilon: float,
                  window: tuple[float, float] | None) -> tuple[Line, float, float]:
    """(witness, witness_time, coverage_radius) of a ray fleet, in closed form.

    The witness is the line at lo = max(epsilon, window's lower end) on the
    bisector of the widest heading gap, the smallest bisector on a tie.  An
    uncovered fleet names the first grid direction thetas[j] whose reach,
    horizon * max(0, max_i cos(thetas[j] - heading_i)), falls short of lo,
    or the bisector where the shortfall lies between grid directions.
    """
    lo = epsilon if window is None else max(epsilon, window[0])
    gap, bisector = max_angular_gap(headings)
    cos_half = math.cos(0.5 * gap)
    coverage = horizon * cos_half
    if gap >= math.pi or coverage < lo:
        reach = horizon * np.maximum(
            np.cos(thetas[:, None] - np.array(headings)).max(axis=1), 0.0)
        bad = np.flatnonzero(reach < lo)
        theta, coverage = ((float(thetas[bad[0]]), float(reach[bad[0]])) if len(bad)
                           else (bisector, max(coverage, 0.0)))
        raise _uncovered(theta, coverage, epsilon, window)
    return Line(bisector, lo), lo / cos_half, coverage


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
    """Competitive-ratio estimate: the worst line over every direction for a
    ray fleet, over a theta grid for any other fleet.

    A fleet of rays and antipodes of rays is evaluated in closed form over
    every direction (see the module docstring): 1 / cos(g/2) from its widest
    heading gap g, exact up to rounding wherever its worst line lies, and
    theta_steps only names the direction an uncovered fleet reports.  Every
    other fleet is sampled at its events in each grid direction, so the
    ratio in each is exact up to rounding.  Either way the reported witness
    satisfies cr_estimate = witness_time / witness.delta.  No fleet is
    sampled on a time grid: t_steps, spacing and t_start are validated and
    echoed in the report, but do not change the result.

    Raises UncoveredDirectionError for the first direction, in grid order,
    whose coverage stays below epsilon (the fleet does not solve the problem
    within the horizon) or, failing that, whose records all fall outside
    the measurement window.
    """
    _check_time_grid(horizon, t_steps, spacing, t_start)
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
    headings = [_heading(robot) for robot in fleet.robots]
    if None in headings:
        witness, time, coverage = _sweep_cr(fleet, horizon, thetas, epsilon, window)
    else:
        witness, time, coverage = _ray_fleet_cr(headings, horizon, thetas, epsilon, window)
    return CRReport(
        cr_estimate=time / witness.delta,
        witness=witness,
        witness_time=time,
        coverage_radius=coverage,
        horizon=float(horizon),
        theta_steps=theta_steps,
        t_steps=t_steps,
        epsilon=float(epsilon),
        window=window,
        spacing=spacing,
    )


def _sweep_cr(fleet: Fleet, horizon: float, thetas: np.ndarray, epsilon: float,
              window: tuple[float, float] | None) -> tuple[Line, float, float]:
    """(witness, witness_time, coverage_radius) from the event sweep over thetas."""
    normals = np.stack([np.cos(thetas), np.sin(thetas)])
    kinks = np.concatenate([breakpoints(robot) for robot in fleet.robots])
    ts = np.unique(np.concatenate(([0.0, horizon], kinks[kinks < horizon])))
    turns = []
    for i, robot in enumerate(fleet.robots):
        try:
            turns.append(support_extrema(robot, thetas, epsilon, horizon))
        except ValueError as exc:
            raise ValueError(f"robots[{i}]: {exc}") from exc
    turns = np.concatenate(turns, axis=1)
    if turns.size:  # one row of times per direction
        ts = np.sort(np.concatenate((np.broadcast_to(ts, (len(thetas), len(ts))), turns),
                                    axis=1), axis=1)
    best = _sweep(fleet, normals, ts, epsilon, window)
    coverage = best.coverage

    bad = (coverage < epsilon) | (best.ratio == -np.inf)
    if bad.any():
        j = int(np.argmax(bad))
        raise _uncovered(float(thetas[j]), float(coverage[j]), epsilon, window)

    j = int(np.argmax(best.ratio))  # the first direction wins a tie
    return (Line(float(thetas[j]), float(best.level[j])), float(best.time[j]),
            float(coverage.min()))
