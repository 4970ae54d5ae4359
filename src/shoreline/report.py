"""Report serialization and vector-graphic rendering.

Reports are JSON with sorted keys and a versioned schema tag, so identical
inputs produce byte-identical files.  Figures are plain SVG assembled from
strings: trajectories become sampled polylines, adversary lines are clipped
to the shown square, cones become wedges, and reachable regions become
512-point ellipse outlines.  World coordinates are mapped to canvas pixels
with the y axis flipped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .certifier import ConeCertificate, ellipse_boundary
from .evaluator import CRReport
from .geometry import Cone, Line
from .optimizer import OptimizeResult
from .trajectory import TrajectorySpec, positions, spec_from_dict

CURVE_SAMPLES = 512
DEFAULT_CANVAS = 640

_STYLES = {
    "trajectory": 'fill="none" stroke="#2266aa" stroke-width="1.5"',
    "trajectory-alt": 'fill="none" stroke="#22aa77" stroke-width="1.5"',
    "witness": 'fill="none" stroke="#cc2233" stroke-width="1.5" stroke-dasharray="6 4"',
    "line": 'fill="none" stroke="#555555" stroke-width="1"',
    "cone": 'fill="#cc223322" stroke="#cc2233" stroke-width="1"',
    "ellipse": 'fill="none" stroke="#2266aa" stroke-width="1.5"',
    "ellipse-alt": 'fill="none" stroke="#cc2233" stroke-width="1.5"',
    "point": 'fill="#222222"',
    "annotation": 'fill="#222222" font-family="sans-serif" font-size="13px"',
}


@dataclass
class Layer:
    kind: str
    entity: str
    style: str = ""


@dataclass
class RenderSpec:
    world_radius: float
    canvas: int = DEFAULT_CANVAS
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.world_radius > 0.0:
            raise ValueError("world_radius must be positive")
        if self.canvas < 16:
            raise ValueError("canvas too small")


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None  # infinities only arise for degenerate unbounded bounds
    return value


def _line_doc(line: Line) -> dict:
    return {"theta": line.theta, "delta": line.delta}


def to_document(obj, *, fleet: list[dict] | None = None, extra: dict | None = None) -> dict:
    """Plain-dict form of a report object, ready for JSON emission."""
    if isinstance(obj, CRReport):
        doc = {
            "schema": "cr_report/v1",
            "cr_estimate": obj.cr_estimate,
            "witness": _line_doc(obj.witness),
            "witness_time": obj.witness_time,
            "coverage_radius": obj.coverage_radius,
            "grid": {
                "horizon": obj.horizon,
                "theta_steps": obj.theta_steps,
                "t_steps": obj.t_steps,
                "epsilon": obj.epsilon,
                "window": list(obj.window) if obj.window else None,
                "spacing": obj.spacing,
            },
        }
    elif isinstance(obj, ConeCertificate):
        doc = {
            "schema": "cone_certificate/v1",
            "bound": obj.bound,
            "bound_limit": obj.bound_limit,
            "degenerate": obj.degenerate,
            "snapshot_time": obj.snapshot_time,
            "n": obj.n,
            "cone": {"bisector": obj.cone.bisector, "half_angle": obj.cone.half_angle},
            "witness_line": _line_doc(obj.witness_line),
            "params": dict(obj.params),
            "robot_positions": [list(p) for p in obj.robot_positions],
        }
    elif isinstance(obj, OptimizeResult):
        doc = {
            "schema": "optimize_result/v1",
            "parameter": obj.parameter,
            "value": obj.value,
            "evaluations": obj.evaluations,
            "bracket": list(obj.bracket),
            "converged": obj.converged,
        }
    elif isinstance(obj, dict):
        doc = {"schema": "lemma_suite/v1", **obj}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if fleet is not None:
        doc["fleet"] = fleet
    if extra:
        doc.update(extra)
    return _json_safe(doc)


def emit_report(obj, *, fleet: list[dict] | None = None, extra: dict | None = None) -> str:
    return json.dumps(to_document(obj, fleet=fleet, extra=extra),
                      sort_keys=True, indent=2) + "\n"


def _clip_line(line: Line, w: float) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Segment of the line inside the square [-w, w]^2, if any."""
    c, s = math.cos(line.theta), math.sin(line.theta)
    px, py = line.delta * c, line.delta * s
    dx, dy = -s, c
    t_lo, t_hi = -math.inf, math.inf
    for p, d in ((px, dx), (py, dy)):
        if abs(d) < 1e-15:
            if abs(p) > w:
                return None
            continue
        t1, t2 = (-w - p) / d, (w - p) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo, t_hi = max(t_lo, t1), min(t_hi, t2)
    if t_lo >= t_hi:
        return None
    return (px + t_lo * dx, py + t_lo * dy), (px + t_hi * dx, py + t_hi * dy)


def render(spec: RenderSpec, entities: dict) -> str:
    """SVG document for the given layers.

    Every layer must name an entity id present in `entities`; payloads by
    kind: trajectory {"spec": TrajectorySpec, "t_max": float}, line a Line,
    cone {"cone": Cone, "radius": float}, ellipse {"delta", "phi", "scale"},
    point {"at": (x, y)}, annotation {"text": str, "at": (x, y)}.
    """
    w = spec.world_radius
    size = spec.canvas
    scale = size / (2.0 * w)

    def fx(x: float) -> float:
        return 0.5 * size + x * scale

    def fy(y: float) -> float:
        return 0.5 * size - y * scale

    def pt(x: float, y: float) -> str:
        return f"{fx(x):.2f},{fy(y):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
        f'<line x1="0" y1="{size / 2:.1f}" x2="{size}" y2="{size / 2:.1f}" '
        'stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{size / 2:.1f}" y1="0" x2="{size / 2:.1f}" y2="{size}" '
        'stroke="#dddddd" stroke-width="1"/>',
    ]

    for layer in spec.layers:
        if layer.entity not in entities:
            raise ValueError(f"layer references unknown entity {layer.entity!r}")
        ent = entities[layer.entity]
        style = _STYLES.get(layer.style) or _STYLES.get(layer.kind, _STYLES["line"])
        if layer.kind == "trajectory":
            ts = np.linspace(0.0, float(ent["t_max"]), CURVE_SAMPLES)
            pts = positions(ent["spec"], ts)
            coords = " ".join(pt(p[0], p[1]) for p in pts)
            parts.append(f'<polyline points="{coords}" {style}/>')
        elif layer.kind == "line":
            seg = _clip_line(ent, w)
            if seg is not None:
                (x1, y1), (x2, y2) = seg
                parts.append(
                    f'<line x1="{fx(x1):.2f}" y1="{fy(y1):.2f}" '
                    f'x2="{fx(x2):.2f}" y2="{fy(y2):.2f}" {style}/>'
                )
        elif layer.kind == "cone":
            cone: Cone = ent["cone"]
            radius = float(ent["radius"])
            angles = np.linspace(cone.bisector - cone.half_angle,
                                 cone.bisector + cone.half_angle, 64)
            arc = " ".join(
                pt(radius * math.cos(a), radius * math.sin(a)) for a in angles
            )
            parts.append(f'<polygon points="{pt(0.0, 0.0)} {arc}" {style}/>')
        elif layer.kind == "ellipse":
            pts = float(ent["scale"]) * ellipse_boundary(
                float(ent["delta"]), float(ent["phi"]), CURVE_SAMPLES)
            coords = " ".join(pt(p[0], p[1]) for p in pts)
            parts.append(f'<polygon points="{coords}" {style}/>')
        elif layer.kind == "point":
            x, y = ent["at"]
            parts.append(f'<circle cx="{fx(x):.2f}" cy="{fy(y):.2f}" r="3" {style}/>')
        elif layer.kind == "annotation":
            x, y = ent["at"]
            text = str(ent["text"])
            parts.append(
                f'<text x="{fx(x):.2f}" y="{fy(y):.2f}" {style}>{text}</text>'
            )
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scene_for_document(doc: dict, *, canvas: int = DEFAULT_CANVAS,
                       world_radius: float | None = None) -> tuple[RenderSpec, dict]:
    """Default scene for an emitted report document, keyed by its schema."""
    schema = doc.get("schema")
    entities: dict = {}
    layers: list[Layer] = []

    if schema == "cr_report/v1":
        witness = Line(doc["witness"]["theta"], doc["witness"]["delta"])
        horizon = float(doc["grid"]["horizon"])
        w = world_radius or max(4.0 * witness.delta, 1e-9)
        t_max = min(horizon, 3.0 * w)
        for i, rdoc in enumerate(doc.get("fleet") or []):
            spec = spec_from_dict(rdoc, f"fleet[{i}]")
            entities[f"robot{i}"] = {"spec": spec, "t_max": t_max}
            layers.append(Layer("trajectory", f"robot{i}",
                                "trajectory" if i % 2 == 0 else "trajectory-alt"))
        entities["witness"] = witness
        layers.append(Layer("line", "witness", "witness"))
        entities["label"] = {
            "text": f"cr = {doc['cr_estimate']:.6f}",
            "at": (-0.95 * w, 0.9 * w),
        }
        layers.append(Layer("annotation", "label"))
        return RenderSpec(world_radius=w, canvas=canvas, layers=layers), entities

    if schema == "cone_certificate/v1":
        d = float(doc["snapshot_time"])
        w = world_radius or 1.8 * d
        witness = Line(doc["witness_line"]["theta"], doc["witness_line"]["delta"])
        n = int(doc.get("n") or 0)
        if not doc.get("degenerate"):
            if n >= 3:
                cone = Cone(doc["cone"]["bisector"], doc["cone"]["half_angle"])
                entities["cone"] = {"cone": cone, "radius": 1.5 * d}
                layers.append(Layer("cone", "cone"))
            else:
                for i, p in enumerate(doc.get("robot_positions") or []):
                    delta = min(math.hypot(p[0], p[1]) / d, 1.0)
                    phi = math.atan2(p[1], p[0]) if delta > 0 else 0.0
                    entities[f"region{i}"] = {"delta": delta, "phi": phi, "scale": d}
                    layers.append(Layer("ellipse", f"region{i}",
                                        "ellipse" if i == 0 else "ellipse-alt"))
        for i, p in enumerate(doc.get("robot_positions") or []):
            entities[f"robot{i}"] = {"at": (p[0], p[1])}
            layers.append(Layer("point", f"robot{i}"))
        entities["witness"] = witness
        layers.append(Layer("line", "witness", "witness"))
        bound = doc["bound"]
        text = "unbounded" if bound is None else f"bound = {bound:.6f}"
        entities["label"] = {"text": text, "at": (-0.95 * w, 0.9 * w)}
        layers.append(Layer("annotation", "label"))
        return RenderSpec(world_radius=w, canvas=canvas, layers=layers), entities

    raise ValueError(f"unknown report schema {schema!r}")
