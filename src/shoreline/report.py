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

import numpy as np

from .certifier import ConeCertificate, ellipse_boundary
from .evaluator import CRReport
from .geometry import Cone, Line
from .optimizer import OptimizeResult
from .trajectory import positions, spec_from_dict

CURVE_SAMPLES = 512
DEFAULT_CANVAS = 640

_STYLES = {
    "trajectory": 'fill="none" stroke="#2266aa" stroke-width="1.5"',
    "trajectory-alt": 'fill="none" stroke="#22aa77" stroke-width="1.5"',
    "witness": 'fill="none" stroke="#cc2233" stroke-width="1.5" stroke-dasharray="6 4"',
    "cone": 'fill="#cc223322" stroke="#cc2233" stroke-width="1"',
    "ellipse": 'fill="none" stroke="#2266aa" stroke-width="1.5"',
    "ellipse-alt": 'fill="none" stroke="#cc2233" stroke-width="1.5"',
    "point": 'fill="#222222"',
    "annotation": 'fill="#222222" font-family="sans-serif" font-size="13px"',
}


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


def render(doc: dict, *, canvas: int = DEFAULT_CANVAS,
           world_radius: float | None = None) -> str:
    """SVG picture of an emitted `cr_report/v1` or `cone_certificate/v1` document.

    Reports show their fleet's trajectories; certificates the empty cone
    (n >= 3) or reachable ellipses (n <= 2), then the robot positions.  Both
    add the witness line and a label.  The square shown spans [-r, r]^2 for
    r = world_radius, by default 4 witness offsets or 1.8 snapshot times.
    """
    schema = doc.get("schema")
    if schema == "cr_report/v1":
        witness = Line(doc["witness"]["theta"], doc["witness"]["delta"])
        auto_radius = max(4.0 * witness.delta, 1e-9)
        label = f"cr = {doc['cr_estimate']:.6f}"
    elif schema == "cone_certificate/v1":
        witness = Line(doc["witness_line"]["theta"], doc["witness_line"]["delta"])
        d = float(doc["snapshot_time"])
        auto_radius = 1.8 * d
        bound = doc["bound"]
        label = "unbounded" if bound is None else f"bound = {bound:.6f}"
    else:
        raise ValueError(f"unknown report schema {schema!r}")
    w = auto_radius if world_radius is None else world_radius
    if canvas < 16:
        raise ValueError("canvas too small")
    scale = canvas / (2.0 * w) if 0.0 < w < math.inf else math.nan
    if not math.isfinite(scale):
        raise ValueError("world radius must be finite and positive, with a finite "
                         f"canvas/(2 * radius), got {w!r}")

    def pixel(x: float, y: float) -> tuple[float, float]:
        return 0.5 * canvas + x * scale, 0.5 * canvas - y * scale

    def outline(tag: str, pts, style: str) -> str:
        coords = " ".join("{:.2f},{:.2f}".format(*pixel(p[0], p[1])) for p in pts)
        return f'<{tag} points="{coords}" {_STYLES[style]}/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas}" height="{canvas}" '
        f'viewBox="0 0 {canvas} {canvas}">',
        f'<rect width="{canvas}" height="{canvas}" fill="#ffffff"/>',
        f'<line x1="0" y1="{canvas / 2:.1f}" x2="{canvas}" y2="{canvas / 2:.1f}" '
        'stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{canvas / 2:.1f}" y1="0" x2="{canvas / 2:.1f}" y2="{canvas}" '
        'stroke="#dddddd" stroke-width="1"/>',
    ]
    if schema == "cr_report/v1":
        horizon = float(doc["grid"]["horizon"])
        if not horizon > 0.0:
            raise ValueError(f"grid horizon must be positive, got {horizon!r}")
        ts = np.linspace(0.0, min(horizon, 3.0 * w), CURVE_SAMPLES)
        for i, rdoc in enumerate(doc.get("fleet") or []):
            pts = positions(spec_from_dict(rdoc, f"fleet[{i}]"), ts)
            parts.append(outline("polyline", pts, ("trajectory", "trajectory-alt")[i % 2]))
    else:
        robots = doc.get("robot_positions") or []
        if not all(isinstance(p, list) and len(p) == 2 and all(map(math.isfinite, p))
                   for p in robots):
            raise ValueError(f"robot_positions must be pairs of finite numbers, got {robots!r}")
        if not doc.get("degenerate"):
            if int(doc.get("n") or 0) >= 3:
                cone = Cone(doc["cone"]["bisector"], doc["cone"]["half_angle"])
                angles = np.linspace(cone.bisector - cone.half_angle,
                                     cone.bisector + cone.half_angle, 64)
                radius = 1.5 * d
                wedge = [(radius * math.cos(a), radius * math.sin(a)) for a in angles]
                parts.append(outline("polygon", [(0.0, 0.0)] + wedge, "cone"))
            else:
                for i, (x, y) in enumerate(robots):
                    delta = min(math.hypot(x, y) / d, 1.0)
                    phi = math.atan2(y, x) if delta > 0 else 0.0
                    parts.append(outline("polygon",
                                         d * ellipse_boundary(delta, phi, CURVE_SAMPLES),
                                         "ellipse" if i == 0 else "ellipse-alt"))
        for x, y in robots:
            parts.append('<circle cx="{:.2f}" cy="{:.2f}" r="3" {}/>'.format(
                *pixel(x, y), _STYLES["point"]))
    seg = _clip_line(witness, w)
    if seg is not None:
        parts.append('<line x1="{:.2f}" y1="{:.2f}" x2="{:.2f}" y2="{:.2f}" {}/>'.format(
            *pixel(*seg[0]), *pixel(*seg[1]), _STYLES["witness"]))
    parts.append('<text x="{:.2f}" y="{:.2f}" {}>{}</text>'.format(
        *pixel(-0.95 * w, 0.9 * w), _STYLES["annotation"], label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
