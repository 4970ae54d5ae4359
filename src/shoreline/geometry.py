"""Planar primitives shared by the simulator and the certifier.

Lines live in normal form: a direction angle theta and an offset delta >= 0,
meaning the set of points p with p . (cos theta, sin theta) = delta.  The
offset is the distance from the origin, so every line is described by how far
it sits from the searchers' common start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Two angular gaps within this of each other count as tied; ties are broken
# toward the smaller bisector so sweeps stay deterministic.
GAP_TIE_TOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def normalize_angle(angle: float) -> float:
    """Map an angle to [0, 2*pi)."""
    a = math.fmod(float(angle), TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod can land exactly on 2*pi after the correction
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite("x", self.x))
        object.__setattr__(self, "y", _require_finite("y", self.y))

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Line:
    """Line in normal form. Negative offsets are folded into the angle."""

    theta: float
    delta: float

    def __post_init__(self) -> None:
        theta = _require_finite("theta", self.theta)
        delta = _require_finite("delta", self.delta)
        if delta < 0.0:
            theta += math.pi
            delta = -delta
        object.__setattr__(self, "theta", normalize_angle(theta))
        object.__setattr__(self, "delta", delta + 0.0)


@dataclass(frozen=True)
class Cone:
    """Angular sector {angles within half_angle of bisector}, apex at origin."""

    bisector: float
    half_angle: float

    def __post_init__(self) -> None:
        bisector = _require_finite("bisector", self.bisector)
        half = _require_finite("half_angle", self.half_angle)
        if not 0.0 < half <= math.pi:
            raise ValueError(f"half_angle must lie in (0, pi], got {half}")
        object.__setattr__(self, "bisector", normalize_angle(bisector))
        object.__setattr__(self, "half_angle", half)


def max_angular_gap(angles: list[float]) -> tuple[float, float]:
    """Largest circular gap between consecutive directions.

    Returns (gap, bisector) where bisector points at the middle of the gap.
    A single direction leaves a full-circle gap opposite to it.  Ties within
    GAP_TIE_TOL resolve to the smallest bisector angle.
    """
    if not angles:
        raise ValueError("max_angular_gap needs at least one direction")
    a = sorted(normalize_angle(x) for x in angles)
    n = len(a)
    if n == 1:
        return TWO_PI, normalize_angle(a[0] + math.pi)
    best_gap = -1.0
    best_bis = 0.0
    for i in range(n):
        lo = a[i]
        hi = a[i + 1] if i + 1 < n else a[0] + TWO_PI
        gap = hi - lo
        bis = normalize_angle(lo + 0.5 * gap)
        if gap > best_gap + GAP_TIE_TOL:
            best_gap, best_bis = gap, bis
        elif abs(gap - best_gap) <= GAP_TIE_TOL and bis < best_bis:
            best_bis = bis
    return best_gap, best_bis
