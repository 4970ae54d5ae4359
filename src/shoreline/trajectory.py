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

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .geometry import Line, Point2


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
    try:
        if kind == "ray":
            return Ray(angle=float(doc["angle"]))
        if kind == "log_spiral":
            return LogSpiral(
                growth=float(doc["growth"]),
                start_phase=float(doc.get("start_phase", 0.0)),
                chirality=str(doc.get("chirality", "ccw")),
            )
        return Polyline(tuple((float(x), float(y)) for x, y in doc["vertices"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _polyline_tables(spec: Polyline) -> tuple[np.ndarray, np.ndarray]:
    verts = np.asarray(spec.vertices, dtype=float)
    seg = np.diff(verts, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    keep = lengths > 0.0  # repeated vertices contribute no arc length
    verts = np.concatenate([verts[:1], verts[1:][keep]], axis=0)
    if len(verts) < 2:
        # Degenerate path: the robot never moves.
        verts = np.vstack([verts[0], verts[0]])
        cum = np.array([0.0, 0.0])
        return cum, verts
    lengths = lengths[keep]
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    return cum, verts


def breakpoints(spec: TrajectorySpec) -> np.ndarray:
    """Times at which a path turns or parks: its polyline vertex times.

    Between two of them a ray, a polyline or an antipode of either moves in
    a straight line, so its support in any direction is linear in t there.
    Rays and spirals have none.
    """
    if isinstance(spec, AntipodalOf):
        return breakpoints(spec.inner)
    if isinstance(spec, Polyline):
        return _polyline_tables(spec)[0][1:]
    return np.empty(0)


def positions(spec: TrajectorySpec, ts: np.ndarray) -> np.ndarray:
    """Positions at the given times as an (N, 2) array. Times must be >= 0."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be one-dimensional")
    if ts.size and float(np.min(ts)) < 0.0:
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
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    if isinstance(spec, AntipodalOf):
        return -positions(spec.inner, ts)
    if isinstance(spec, Polyline):
        cum, verts = _polyline_tables(spec)
        s = np.clip(ts, 0.0, cum[-1])
        x = np.interp(s, cum, verts[:, 0])
        y = np.interp(s, cum, verts[:, 1])
        return np.stack([x, y], axis=1)
    raise TypeError(f"unknown trajectory spec {type(spec).__name__}")


def position(spec: TrajectorySpec, t: float) -> Point2:
    if t < 0.0:
        raise ValueError("negative time")
    p = positions(spec, np.array([float(t)]))
    return Point2(float(p[0, 0]), float(p[0, 1]))


def speed_check(spec: TrajectorySpec, horizon: float, samples: int = 10_000) -> float:
    """Max chord speed over a uniform sampling; should be ~1 for valid specs."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = np.linspace(0.0, horizon, samples)
    p = positions(spec, ts)
    step = np.diff(p, axis=0)
    dt = ts[1] - ts[0]
    return float(np.max(np.hypot(step[:, 0], step[:, 1])) / dt)


def first_hit_time(
    spec: TrajectorySpec,
    line: Line,
    horizon: float,
    tol: float = 1e-9,
    scan_steps: int = 4096,
) -> float | None:
    """First time the path reaches the line, or None within the horizon.

    Grid scan for a sign change of support - delta, then bisection down to
    tol.  The scan can miss a crossing narrower than horizon/scan_steps; use
    more steps for wiggly paths.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    u = np.array([math.cos(line.theta), math.sin(line.theta)])
    ts = np.linspace(0.0, horizon, scan_steps + 1)
    s = positions(spec, ts) @ u - line.delta
    hits = np.nonzero(s >= 0.0)[0]
    if hits.size == 0:
        return None
    k = int(hits[0])
    if k == 0:
        return 0.0
    lo, hi = ts[k - 1], ts[k]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        pm = positions(spec, np.array([mid]))[0]
        if pm @ u >= line.delta:
            hi = mid
        else:
            lo = mid
    return float(hi)
