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
ratio) or a window's lower end, hi its upper end or infinity.  A direction
whose coverage at the horizon stays below hi is uncovered: lines of the
window beyond it are never hit, so no ratio measured within the horizon
bounds the fleet's.

Such a fleet is sampled at its events, per direction: t = 0, the horizon,
every robot's breakpoints and spiral support extrema (``trajectory``).
Every support is monotone between two events, so the running max is exact
at each.  A cell between two events is a record when its end beats the
running max prev at its start by more than rounding (TIE_MARGIN).  The
robots that end a record cell above its floor max(prev, lo) rise through
it, and the running max follows the highest of them, which changes only
where two of them cross above the floor: in closed form for two straight
robots, bisected where one is a spiral.  Along one robot's rising piece
T(L) / L is monotone (straight) or falls, then rises (spiral), so a record
cell's worst line is the one just above its floor or a crossing, or the
one just below min(h, hi).  Each is paid when its first robot passes it:
in closed form on a straight piece.  On a spiral piece ln s = ln(b/c) + ln t
+ ln cos w, w the phase off the direction, is concave and rising in ln t
where cos w > 0, so Newton steps place the crossing, and bisection of the
computed support within a few roundings of it settles its float: a float
whose support passes the level and whose predecessor's does not, that of
plain bisection wherever the computed support crosses once (_rise_time).
One sweep runs in t order over tiles of every direction, carrying only the
running maximum.
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
# Most supports in one tile of the sweep: a tile holds every robot's support
# in every direction over a run of at least one cell (see _sweep).
TILE_CELLS = 1 << 15
# Most parts of one cell in which two robots are searched for a swap at once;
# only robots that run level to within a hair of each other need more.
SWAP_PARTS = 64
# A float's relative spacing, at most: the unit of a spiral root's rounding.
ULP = 2.0 ** -52
NORMAL_MIN = float(np.finfo(float).tiny)  # sys.float_info.min: below it, bits are lost


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


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if value < NORMAL_MIN:
        raise ValueError(f"{name} {value!r} is below the least normal float {NORMAL_MIN!r}")


def _check_time_grid(horizon: float, t_steps: int, t_start: float) -> None:
    """Validate the time-grid arguments, which no longer change the result."""
    _check_positive("horizon", horizon)
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start!r}")
    if not 0.0 <= t_start < horizon:
        raise ValueError(f"t_start must lie in [0, horizon), got {t_start!r}")
    if t_steps < 2:
        raise ValueError("t_steps must be at least 2")


def _support(robot, ts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The robot's support at times ts, each in its own direction u = (cos, sin)."""
    p = positions(robot, ts.ravel())
    return p[:, 0].reshape(ts.shape) * u[0] + p[:, 1].reshape(ts.shape) * u[1]


def _rise_time(robot, u: np.ndarray, level: np.ndarray, t0: np.ndarray,
               t1: np.ndarray) -> np.ndarray:
    """When a log spiral's support, rising through each cell [t0, t1], passes
    level: a float t in (t0, t1] above level whose predecessor is not or lies
    at or before t0, the crossing's float where the computed support crosses
    level once.

    With d = sign (phi - theta) + pi/2 and x = ln t, the support is r sin d
    and d - d1 = (x - x1) / b from the cell's end.  So the root solves
    g(d) = b (d - d1) + ln sin d - ln(level / r1) = 0, concave and rising on
    the branch (0, pi/2 + arctan b): Newton steps from below the root, from
    the arcsin of a lower bound on sin d, rise to it without overshoot, and
    stop once g is within the computed log support's rounding, about |phi|
    ulps times |cot d|.  That only places the root.  _support decides the
    float: bisected in a window of a few roundings around it, an end clipped
    to the cell counting as bracketing as in plain bisection, or over the
    whole cell where the window's ends do not bracket the crossing.
    """
    b, sign = robot.growth, 1.0 if robot.chirality == "ccw" else -1.0
    alpha = math.atan(b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1 = b / math.sqrt(1.0 + b * b) * t1
        log_r1 = np.log(r1)
        base = alpha - 1.5 * math.pi  # d1 in [alpha - pi, alpha + pi), around the rising arc
        w1 = sign * (robot.start_phase - np.arctan2(u[1], u[0])) + log_r1 / b
        d1 = np.mod(w1 - base, 2.0 * math.pi) + (base + 0.5 * math.pi)
        lo = np.maximum(d1 - np.log(t1 / t0) / b, 0.0)
        hi = np.minimum(d1, 0.5 * math.pi + alpha)
        q = level / r1
        c = -b * d1 - np.log(q)
        ulps = abs(robot.start_phase) + np.abs(log_r1) / b + 8.0  # of the phase
        # sin d = q exp(b (d1 - d)) >= q exp(b (d1 - hi)) at the root
        d = np.clip(np.arcsin(np.minimum(q * np.exp(b * (d1 - hi)), 1.0)), lo, hi)
        for _ in range(64):  # about six steps reach the root to rounding
            g = b * d + np.log(np.sin(d)) + c
            cot = 1.0 / np.tan(d)
            tol = (8.0 + ulps * np.abs(cot)) * ULP
            if not ((g < -tol) & (d < hi)).any():
                break
            d = np.minimum(d - np.minimum(g, 0.0) / (b + cot), hi)
        t = np.clip(t1 * np.exp(b * (d - d1)), t0, t1)
        half = t * (16.0 * ULP + 4.0 * b * tol / np.abs(b + cot))
        a, z = np.maximum(t - half, t0), np.minimum(t + half, t1)
        s = _support(robot, np.stack((a, z)), u)
        ok = ((a <= t0) | (s[0] <= level)) & ((z >= t1) | (s[1] > level))
        t0, t1 = np.where(ok, a, t0), np.where(ok, z, t1)
        while True:  # the later end, once bisection leaves no float between
            mid = 0.5 * (t0 + t1)
            live = (t0 < mid) & (mid < t1)
            if not live.any():
                return t1
            up = _support(robot, mid, u) > level
            t1 = np.where(live & up, mid, t1)
            t0 = np.where(live & ~up, mid, t0)


def _swaps(robots, normals: np.ndarray, ra: np.ndarray, rb: np.ndarray, j: np.ndarray,
           lvl: np.ndarray, u: np.ndarray, v: np.ndarray, au: np.ndarray, av: np.ndarray,
           bu: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where robots ra[p] and rb[p] swap places above lvl[p] in direction j[p].

    Both end the cell [u, v] above lvl, the running max at its start or lo,
    so both rise through it, from au, bu to av, bv: on a part [u, v] of the
    cell their difference lies in [a(u) - b(v), a(v) - b(u)].  A part is
    dropped once that excludes zero or one ends it at or below lvl; else it
    is halved until no float lies inside, the two tie at both ends
    (TIE_MARGIN of lvl) or its pair has more than SWAP_PARTS parts left,
    robots that close being level; a sign change then marks a swap at its
    end.  Returns (p, s): the pair of each swap and the higher support
    there.
    """
    pairs = len(ra)
    e = np.arange(pairs)  # the pair each part belongs to
    hits, level = [e[:0]], [u[:0]]
    while len(e):
        flip = np.sign(au - bu) != np.sign(av - bv)
        tie = np.maximum(np.abs(au - bu), np.abs(av - bv)) <= TIE_MARGIN * lvl
        live = (au <= bv) & (bu <= av) & (np.minimum(av, bv) > lvl)
        mid = 0.5 * (u + v)
        split = live & ~tie & (u < mid) & (mid < v)
        split &= np.bincount(e[split], minlength=pairs)[e] <= SWAP_PARTS
        last = live & ~split & flip
        hits.append(e[last])
        level.append(np.maximum(av[last], bv[last]))
        e, ra, rb, j, lvl, u, v, mid, au, av, bu, bv = (
            x[split] for x in (e, ra, rb, j, lvl, u, v, mid, au, av, bu, bv))
        am, bm = np.empty_like(mid), np.empty_like(mid)
        for r in np.unique(np.concatenate((ra, rb))):
            for m, out in ((ra == r, am), (rb == r, bm)):
                out[m] = _support(robots[r], mid[m], normals[:, j[m]])
        e, ra, rb, j, lvl, u, v, au, av, bu, bv = (np.concatenate(x) for x in (
            (e, e), (ra, ra), (rb, rb), (j, j), (lvl, lvl), (u, mid), (mid, v),
            (au, am), (am, av), (bu, bm), (bm, bv)))
    return np.concatenate(hits), np.concatenate(level)


def _sweep(fleet: Fleet, normals: np.ndarray, ts: np.ndarray, epsilon: float,
           window: tuple[float, float] | None) -> _BestLine:
    """Sweep every direction over the cells between consecutive event times.

    ts is one row of times for every direction, or one row per direction.
    A tile is every robot's support in every direction over a run of cells,
    at most TILE_CELLS of them, and _BestLine reduces it.  On one row the
    supports are one product per robot over at least two times: BLAS rounds
    products of other shapes (one time, or fewer directions) differently,
    and the support must not depend on where tiles fall.
    """
    robots = fleet.robots
    best = _BestLine(robots, normals, epsilon, window)
    n = normals.shape[1]
    shared = ts.ndim == 1
    if shared:
        paths = [positions(robot, ts) for robot in robots]
        ts = ts[:, None]
    else:  # t, direction
        ts = ts.T
        s_all = np.array([_support(robot, ts, normals[:, None]) for robot in robots])
    width = max(1, TILE_CELLS // (n * len(robots)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k0 in range(0, len(ts) - 1, width):
            k1 = min(k0 + width, len(ts) - 1)
            s = (np.array([path[k0:k1 + 1] @ normals for path in paths]) if shared
                 else s_all[:, k0:k1 + 1])  # robot, t, direction
            best.add(s, np.broadcast_to(ts[k0:k1 + 1], s.shape[1:]))
    best.finish()
    return best


class _BestLine:
    """Each direction's worst line so far, reduced tile by tile in t order.

    Record cells and their lines are the module docstring's; the first
    maximum wins.  The line just below min(h, hi) of a record is beaten by
    the next record's, which waits at least as long for the same offset, so
    only each direction's last record offers it, once the sweep is done
    (finish), and it must beat the best line by more than TIE_MARGIN: on a
    ray the two are equal up to rounding.
    """

    def __init__(self, robots, normals: np.ndarray, epsilon: float,
                 window: tuple[float, float] | None):
        self.robots, self.normals = robots, normals
        self.straight = np.array([piecewise_linear(robot) for robot in robots])
        self.lo, self.hi = epsilon, math.inf
        if window is not None:
            self.lo, self.hi = max(self.lo, window[0]), window[1]
        n = normals.shape[1]
        self.ratio = np.full(n, -np.inf)  # stays -inf without a record in [lo, hi]
        self.time = np.zeros(n)
        self.level = np.zeros(n)  # the witness offset
        self.coverage = np.zeros(n)  # the running max, carried from tile to tile
        self.high, self.high_time = np.ones(n), np.full(n, -np.inf)  # the last record's

    def _pass_time(self, s0, s1, t0, t1, k, col, level) -> np.ndarray:
        """When each level is first passed in record cell col: by the first of
        the robots that end the cell above it, the cell's end where none does.

        s0 and s1 hold each robot's support at the record cells' ends, one
        column per cell, t0 and t1 their times, k their directions.
        """
        r, m = np.nonzero(s1.take(col, axis=1) > level)  # robot, line it passes
        x, when = col[m], t1[col]
        flat = self.straight[r]  # in closed form
        a, b, j, x = s0[r[flat], x[flat]], s1[r[flat], x[flat]], m[flat], x[flat]
        np.minimum.at(when, j, (level[j] - a) / (b - a) * (t1[x] - t0[x]) + t0[x])
        # an antipode's support is its twin's in the opposite direction, so
        # one search serves a spiral and all of its antipodes
        twins = {}
        for i in np.flatnonzero(~self.straight):
            robot, sign = self.robots[i], 1.0
            while isinstance(robot, AntipodalOf):
                robot, sign = robot.inner, -sign
            j = m[r == i]
            twins.setdefault(robot, []).append((j, sign * self.normals[:, k[col[j]]]))
        for robot, rows in twins.items():
            lines, dirs = zip(*rows)
            j = np.concatenate(lines)
            if len(j):
                x = col[j]
                bent = _rise_time(robot, np.concatenate(dirs, axis=1), level[j], t0[x], t1[x])
                np.minimum.at(when, j, bent)
        return when

    def _crossings(self, s0, s1, t0, t1, floor, k):
        """(record, level) of every crossing above the floor in the record cells.

        Only robots that both end a cell above its floor can hand the
        running max over, so pairs are formed among those alone: straight
        pairs cross at the fraction d0 / (d0 - d1) of their difference's
        values at the cell's ends, and _swaps finds the rest.
        """
        up = s1 > floor
        some = np.flatnonzero(np.count_nonzero(up, axis=0) > 1)
        q, r = np.nonzero(up[:, some].T)  # record, robot above its floor, by record
        more = np.searchsorted(q, q, side="right") - np.arange(len(q)) - 1
        e = np.repeat(np.arange(len(q)), more)  # each pair's first entry, then its second
        f = e + 1 + np.arange(len(e)) - np.repeat(np.cumsum(more) - more, more)
        a, b, x = r[e], r[f], some[q[e]]
        flat = self.straight[a] & self.straight[b]
        a0, b0, x0 = a[flat], b[flat], x[flat]
        (au, bu), (av, bv) = ((s[a0, x0], s[b0, x0]) for s in (s0, s1))
        frac = (au - bu) / ((au - bu) - (av - bv))
        level = np.maximum(au + frac * (av - au), bu + frac * (bv - bu))
        keep = (frac > 0.0) & (frac < 1.0)
        x0, level = x0[keep], level[keep]
        a, b, x = a[~flat], b[~flat], x[~flat]
        if len(x):
            p, bent = _swaps(self.robots, self.normals, a, b, k[x], floor[x], t0[x], t1[x],
                             s0[a, x], s1[a, x], s0[b, x], s1[b, x])
            x0, level = np.concatenate((x0, x[p])), np.concatenate((level, bent))
        return x0, level

    def add(self, s: np.ndarray, t: np.ndarray) -> None:
        """Reduce the next tile: s holds every robot's support at times t,
        (time, direction), each direction's times in order."""
        lo, hi = self.lo, self.hi
        n = s.shape[2]
        h = s.max(axis=0)
        prev = np.fmax.accumulate(h[:-1], axis=0)  # = maximum on finite supports, faster
        np.maximum(prev, self.coverage, out=prev)
        self.coverage = np.maximum(prev[-1], h[-1])
        rec = (h[1:] > prev * (1.0 + TIE_MARGIN)) & (h[1:] >= lo) & (prev <= hi)
        c = np.flatnonzero(rec)  # cell * n + direction, in t order
        if not len(c):
            return
        k, s, t, h = c % n, s.reshape(len(s), -1), t.reshape(-1), h.reshape(-1)
        floor, t1, h1 = np.maximum(prev.reshape(-1)[c], lo), t[c + n], h[c + n]
        # each direction's last record offers the line just below min(h, hi),
        # paid where the running max passes hi if it does
        d = np.flatnonzero(rec.any(axis=0))
        last = np.searchsorted(c, (len(rec) - 1 - rec[::-1, d].argmax(axis=0)) * n + d)
        self.high[d], self.high_time[d] = np.minimum(h1[last], hi), t1[last]
        cut = last[h1[last] > hi]
        # every line of a record cell is paid inside it and lies above its
        # floor: t0 / floor bounds the best ratio of its direction from below,
        # and t1 / floor the cell's own from above, so only cells that can
        # win and those cut at hi are kept
        best = self.ratio.copy()
        np.maximum.at(best, k, t[c] / floor)
        win = t1 / floor * (1.0 + TIE_MARGIN) >= best[k]
        win[cut] = True
        live = np.flatnonzero(win)
        c, k, floor, t1, h1 = (a[live] for a in (c, k, floor, t1, h1))
        cut = np.searchsorted(live, cut)
        s0, s1, t0 = s.take(c, axis=1), s.take(c + n, axis=1), t[c]
        x, level = self._crossings(s0, s1, t0, t1, floor, k)
        keep = (level > floor[x]) & (level <= hi) & (h1[x] > level * (1.0 + TIE_MARGIN))
        col = np.concatenate((np.arange(len(c)), x[keep], cut))
        level = np.concatenate((floor, level[keep], np.full(len(cut), hi)))
        when = self._pass_time(s0, s1, t0, t1, k, col, level)
        lines = len(col) - len(cut)
        self.high_time[k[cut]] = when[lines:]
        # each direction's first maximum, in t order: by cell, then by level
        col, level, when = col[:lines], level[:lines], when[:lines]
        ratio, k = when / level, k[col]
        top = self.ratio.copy()
        np.maximum.at(top, k, ratio)
        w = np.flatnonzero((ratio == top[k]) & (ratio > self.ratio[k]))
        w = w[np.lexsort((level[w], c[col[w]], k[w]))]
        w = w[np.diff(k[w], prepend=-1) != 0]
        self.ratio[k[w]], self.time[k[w]], self.level[k[w]] = ratio[w], when[w], level[w]

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
    if window is not None and coverage < window[1]:
        return UncoveredDirectionError(
            f"direction theta={theta:.6f} uncovered: coverage {coverage:.6g} < "
            f"the measurement window's upper end {window[1]:.6g} within horizon",
            theta,
        )
    inside = (f"inside the measurement window {window}" if window is not None
              else f"at offsets of epsilon {epsilon:.6g} or more")
    return UncoveredDirectionError(f"direction theta={theta:.6f} has no records {inside}",
                                   theta)


def _ray_fleet_cr(headings: list[float], horizon: float, thetas: np.ndarray, epsilon: float,
                  window: tuple[float, float] | None) -> tuple[Line, float, float]:
    """(witness, witness_time, coverage_radius) of a ray fleet, in closed form.

    The witness is the line at lo = max(epsilon, window's lower end) on the
    bisector of the widest heading gap, the smallest bisector on a tie.  An
    uncovered fleet names the first grid direction thetas[j] whose reach,
    horizon * max(0, max_i cos(thetas[j] - heading_i)), falls short of lo
    or of the window's upper end, or the bisector where the shortfall lies
    between grid directions.
    """
    lo = epsilon if window is None else max(epsilon, window[0])
    need = epsilon if window is None else max(epsilon, window[1])
    gap, bisector = max_angular_gap(headings)
    cos_half = math.cos(0.5 * gap)
    coverage = horizon * cos_half
    if gap >= math.pi or coverage < need:
        reach = horizon * np.maximum(
            np.cos(thetas[:, None] - np.array(headings)).max(axis=1), 0.0)
        bad = np.flatnonzero(reach < need)
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
    sampled on a time grid: t_steps and t_start are validated, and t_steps
    echoed in the report, but neither changes the result.  epsilon, 1e-3 of
    the horizon by default, may not exceed a window's upper end; it, the
    horizon and the window's ends must be finite normal floats.

    Raises UncoveredDirectionError for the first direction, in grid order,
    whose coverage stays below epsilon (the fleet does not solve the problem
    within the horizon) or, with a window, below its upper end (lines in the
    window stay unhit), or whose records all fall outside the window.
    """
    horizon, t_start = float(horizon), float(t_start)
    _check_time_grid(horizon, t_steps, t_start)
    if theta_steps < 1:
        raise ValueError("theta_steps must be at least 1")
    default = epsilon is None
    epsilon = DEFAULT_EPSILON_FACTOR * horizon if default else float(epsilon)
    given = " (the default, 1e-3 of the horizon)" if default else ""
    _check_positive("epsilon" + given, epsilon)
    if window is not None:
        window = (float(window[0]), float(window[1]))
        if not 0.0 < window[0] < window[1]:
            raise ValueError("window must satisfy 0 < lo < hi")
        _check_positive("window's lower end", window[0])
        _check_positive("window's upper end", window[1])
        if epsilon > window[1]:
            raise ValueError(f"epsilon {epsilon:.6g}{given} exceeds the window's upper "
                             f"end {window[1]:.6g}, so no line of the window is measured")

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
        horizon=horizon,
        theta_steps=theta_steps,
        t_steps=t_steps,
        epsilon=epsilon,
        window=window,
    )


def _sweep_cr(fleet: Fleet, horizon: float, thetas: np.ndarray, epsilon: float,
              window: tuple[float, float] | None) -> tuple[Line, float, float]:
    """(witness, witness_time, coverage_radius) from the event sweep over thetas."""
    normals = np.stack([np.cos(thetas), np.sin(thetas)])
    kinks = np.concatenate([breakpoints(robot) for robot in fleet.robots])
    ts = np.unique(np.concatenate(([0.0, horizon], kinks[kinks < horizon])))
    turns = {}  # each inner robot once: an antipode turns when its inner robot does
    for i, robot in enumerate(fleet.robots):
        while isinstance(robot, AntipodalOf):
            robot = robot.inner
        if robot not in turns:
            try:
                turns[robot] = support_extrema(robot, thetas, epsilon, horizon)
            except ValueError as exc:
                raise ValueError(f"robots[{i}]: {exc}") from exc
    turns = np.concatenate(list(turns.values()), axis=1)
    if turns.size:  # one row of times per direction
        ts = np.sort(np.concatenate((np.broadcast_to(ts, (len(thetas), len(ts))), turns),
                                    axis=1), axis=1)
    best = _sweep(fleet, normals, ts, epsilon, window)
    coverage = best.coverage

    need = epsilon if window is None else max(epsilon, window[1])
    bad = (coverage < need) | (best.ratio == -np.inf)
    if bad.any():
        j = int(np.argmax(bad))
        raise _uncovered(float(thetas[j]), float(coverage[j]), epsilon, window)

    j = int(np.argmax(best.ratio))  # the first direction wins a tie
    return (Line(float(thetas[j]), float(best.level[j])), float(best.time[j]),
            float(coverage.min()))
