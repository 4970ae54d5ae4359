"""Unit-speed trajectory specs and their kinematics.

Every robot starts at the origin at time zero and moves at speed one, so arc
length equals elapsed time.  The spiral is parameterized in closed form: a
log spiral has finite arc length from its centre, so its radius grows
linearly in arc length, r(t) = growth * t / sqrt(1 + growth^2), and the
phase follows phi(t) = phi0 +/- ln(r(t)) / growth, where phi0 is the bearing
at which the spiral crosses radius 1.  Differentiating shows |dp/dt| = 1
exactly, so no numeric reparameterization is needed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Ray:
    """Straight-line escape along a fixed bearing."""

    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class LogSpiral:
    growth: float
    start_phase: float = 0.0
    chirality: str = "ccw"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.growth) and self.growth > 0.0):
            raise ValueError("growth must be positive and finite")
        if not math.isfinite(self.start_phase):
            raise ValueError(f"start_phase must be finite, got {self.start_phase!r}")
        if self.chirality not in ("ccw", "cw"):
            raise ValueError(f"chirality must be 'ccw' or 'cw', got {self.chirality!r}")


@dataclass(frozen=True)
class AntipodalOf:
    """Mirror twin: always at the point reflection of the inner robot."""

    inner: "TrajectorySpec"


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear path traversed at unit speed, then parked at the end."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 2:
            raise ValueError("polyline needs at least two vertices")
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("polyline vertices must be finite")
        if verts[0] != (0.0, 0.0):
            raise ValueError("polyline must start at the origin")
        object.__setattr__(self, "vertices", verts)

    @cached_property
    def _knots(self) -> tuple[list[float], list[tuple[float, float]]]:
        """(arc length at each vertex, vertices), repeated vertices dropped and a
        path that never moves keeping its one vertex twice; built once per path."""
        v = self.vertices
        lengths = np.hypot([b[0] - a[0] for a, b in zip(v, v[1:])],
                           [b[1] - a[1] for a, b in zip(v, v[1:])]).tolist()
        cum, verts = [0.0], [v[0]]
        for b, length in zip(v[1:], lengths):
            if length > 0.0:  # repeated vertices contribute no arc length
                cum.append(cum[-1] + length)
                verts.append(b)
        return (cum, verts) if len(verts) > 1 else ([0.0, 0.0], verts * 2)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """_knots as read-only arrays; equality and hashing stay on the vertices."""
        cum, verts = map(np.array, self._knots)
        cum.flags.writeable = verts.flags.writeable = False
        return cum, verts


TrajectorySpec = Union[Ray, LogSpiral, AntipodalOf, Polyline]


@dataclass(frozen=True)
class Fleet:
    robots: tuple[TrajectorySpec, ...]

    def __post_init__(self) -> None:
        if not self.robots:
            raise ValueError("fleet must contain at least one robot")
        object.__setattr__(self, "robots", tuple(self.robots))

    def __len__(self) -> int:
        return len(self.robots)


_KINDS = {"ray": Ray, "log_spiral": LogSpiral, "antipodal_of": AntipodalOf,
          "polyline": Polyline}


def spec_to_dict(spec: TrajectorySpec) -> dict:
    """Plain-data descriptor for configs and report provenance."""
    kind = {cls: k for k, cls in _KINDS.items()}.get(type(spec))
    if kind is None:
        raise TypeError(f"unknown trajectory spec {type(spec).__name__}")
    doc = {"kind": kind} | {f.name: getattr(spec, f.name) for f in fields(spec)}
    if isinstance(spec, AntipodalOf):
        doc["inner"] = spec_to_dict(spec.inner)
    if isinstance(spec, Polyline):
        doc["vertices"] = [list(v) for v in spec.vertices]
    return doc


def is_number(value) -> bool:
    """Whether a JSON value is a number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def spec_from_dict(doc: dict, where: str = "robot") -> TrajectorySpec:
    """Inverse of spec_to_dict; raises ValueError naming `where` on bad input.

    A descriptor carries "kind" plus fields of its spec class, nothing else.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: descriptor must be a mapping")
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"{where}: unknown kind {kind!r}")
    unknown = sorted(set(doc) - {"kind"} - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    if kind == "antipodal_of":  # the inner descriptor names its own slot
        return AntipodalOf(spec_from_dict(doc.get("inner"), where + ".inner"))

    for key in ("angle", "growth", "start_phase"):
        if key in doc and not is_number(doc[key]):
            raise ValueError(f"{where}: {key} must be a number, got {doc[key]!r}")
    try:
        if kind == "ray":
            return Ray(angle=float(doc["angle"]))
        if kind == "log_spiral":
            return LogSpiral(
                growth=float(doc["growth"]),
                start_phase=float(doc.get("start_phase", 0.0)),
                chirality=str(doc.get("chirality", "ccw")),
            )
        vertices = doc["vertices"]
        for i, v in enumerate(vertices):
            if not (isinstance(v, (list, tuple)) and len(v) == 2
                    and is_number(v[0]) and is_number(v[1])):
                raise ValueError(f"vertices[{i}] must be a pair of numbers, got {v!r}")
        return Polyline(vertices)  # which makes them a tuple of pairs of floats
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def breakpoints(spec: TrajectorySpec) -> np.ndarray:
    """Times at which a path turns or parks: its polyline vertex times.

    Between two of them a ray, a polyline or an antipode of either moves in
    a straight line, so its support in any direction is linear in t there.
    Rays and spirals have none.
    """
    if isinstance(spec, AntipodalOf):
        return breakpoints(spec.inner)
    if isinstance(spec, Polyline):
        return spec._tables[0][1:]
    return np.empty(0)


def piecewise_linear(spec: TrajectorySpec) -> bool:
    """Whether the path is straight between its breakpoints: no spiral in it."""
    if isinstance(spec, AntipodalOf):
        return piecewise_linear(spec.inner)
    return not isinstance(spec, LogSpiral)


# Most support extrema one spiral may have over all directions of a sweep: a
# nearly circular spiral turns about horizon / radius times on its way out.
MAX_EXTREMA = 1 << 22


def support_extrema(spec: TrajectorySpec, thetas: np.ndarray, radius: float,
                    horizon: float) -> np.ndarray:
    """Times in [t_r, horizon] at which a spiral's support peaks or troughs.

    One row per direction theta; t_r is when the path reaches `radius`, its
    support staying below it until then, and rows may repeat either end.
    A spiral that reaches `radius` only at or after the horizon has none.
    With psi = phi(t) - theta and alpha = arctan(growth) the support has
    derivative sin(alpha - psi) (ccw) or sin(alpha + psi) (cw): it turns
    where psi = +alpha or -alpha (mod pi), a geometric sequence with ratio
    exp(pi * growth).  An antipode has its inner robot's; rays and
    polylines have none (no column).
    """
    thetas = np.asarray(thetas, dtype=float)
    if isinstance(spec, AntipodalOf):
        return support_extrema(spec.inner, thetas, radius, horizon)
    if not isinstance(spec, LogSpiral):
        return np.empty((len(thetas), 0))
    b = spec.growth
    c_b = math.hypot(1.0, b) / b  # t = (c / b) r
    t_r = c_b * radius
    if not t_r < horizon:  # inside radius up to the horizon: no turn counts
        return np.empty((len(thetas), 0))
    log_cb = math.log(c_b)
    turn = math.atan(b) + (thetas - spec.start_phase) * (
        1.0 if spec.chirality == "ccw" else -1.0)
    # log t = log(c / b) + b (turn + k pi) at the k-th extremum
    k_lo = ((math.log(t_r) - log_cb) / b - turn.max()) / math.pi
    k_hi = ((math.log(horizon) - log_cb) / b - turn.min()) / math.pi
    if not max(-k_lo, k_hi) < 2.0 ** 53:
        raise ValueError(f"log spiral of growth {b!r} and start phase {spec.start_phase!r} "
                         f"numbers its turns past 2**53, where floats skip integers")
    k_lo, k_hi = math.floor(k_lo), math.ceil(k_hi)
    if len(thetas) * (k_hi - k_lo + 1) > MAX_EXTREMA:
        raise ValueError(f"log spiral of growth {b!r} turns {k_hi - k_lo + 1} times "
                         f"between radius {radius!r} and the horizon; use a larger epsilon")
    k = np.arange(k_lo, k_hi + 1) * math.pi
    return np.clip(np.exp(log_cb + b * (turn[:, None] + k)), t_r, horizon)


def positions(spec: TrajectorySpec, ts: np.ndarray) -> np.ndarray:
    """Positions at the given times as an (N, 2) array. Times must be >= 0."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be one-dimensional")
    if ts.size and ts.min() < 0.0:
        raise ValueError("negative time")
    if isinstance(spec, Ray):
        u = np.array([math.cos(spec.angle), math.sin(spec.angle)])
        return ts[:, None] * u[None, :]
    if isinstance(spec, LogSpiral):
        b = spec.growth
        c = math.sqrt(1.0 + b * b)
        r = (b / c) * ts
        # at r = 0 the phase is irrelevant: leave it at phi0, not -inf
        dphi = np.log(r, out=np.zeros_like(r), where=r > 0.0) / b
        phi = spec.start_phase + (dphi if spec.chirality == "ccw" else -dphi)
        # written in place: a spiral root search makes ~54 calls on ~30
        # times each, where np.stack would cost more than the trigonometry
        out = np.empty((len(ts), 2))
        np.multiply(r, np.cos(phi), out=out[:, 0])
        np.multiply(r, np.sin(phi), out=out[:, 1])
        return out
    if isinstance(spec, AntipodalOf):
        return -positions(spec.inner, ts)
    if isinstance(spec, Polyline):
        cum, verts = spec._tables
        s = np.clip(ts, 0.0, cum[-1])
        out = np.empty((len(ts), 2))
        out[:, 0] = np.interp(s, cum, verts[:, 0])
        out[:, 1] = np.interp(s, cum, verts[:, 1])
        return out
    raise TypeError(f"unknown trajectory spec {type(spec).__name__}")


def position(spec: TrajectorySpec, t: float) -> tuple[float, float]:
    """positions(spec, [t])[0] as a pair of floats, bit for bit, without arrays
    on straight paths: a polyline repeats np.interp's arithmetic on its knots.
    Spirals take positions, as np.log and np.cos need not round as math's do."""
    if t < 0.0:
        raise ValueError("negative time")
    if isinstance(spec, Ray):
        return t * math.cos(spec.angle), t * math.sin(spec.angle)
    if isinstance(spec, AntipodalOf):
        x, y = position(spec.inner, t)
        return -x, -y
    if isinstance(spec, Polyline):
        cum, verts = spec._knots
        j = bisect.bisect_right(cum, t) - 1
        if j == len(cum) - 1 or cum[j] == t:  # parked, or on a vertex
            return verts[j]
        (x0, y0), (x1, y1), c0, c1 = verts[j], verts[j + 1], cum[j], cum[j + 1]
        return (x1 - x0) / (c1 - c0) * (t - c0) + x0, (y1 - y0) / (c1 - c0) * (t - c0) + y0
    return tuple(positions(spec, np.array([t]))[0].tolist())
