"""Report serialization and vector-graphic rendering.

Reports are JSON with sorted keys and a versioned schema tag, so identical
inputs produce byte-identical files.  Figures are plain SVG assembled from
strings: trajectories become sampled polylines, cones and reachable
ellipses exact elliptical arcs, and adversary lines segments the viewport
clips.  World coordinates are mapped to canvas pixels with the y axis flipped.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .certifier import ConeCertificate
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
            "schema": "optimize_result/v2",
            "parameter": obj.parameter,
            "value": obj.value,
            "evaluations": obj.evaluations,
            "bracket": list(obj.bracket),
            "slopes": list(obj.slopes),
            "converged": obj.converged,
        }
    elif isinstance(obj, dict):
        doc = {"schema": "lemma_suite/v1", **obj}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if extra:
        doc.update(extra)
    doc = _json_safe(doc)
    if fleet is not None:  # spec_to_dict's descriptors are plain JSON already
        doc["fleet"] = fleet
    return doc


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _items_encoder(depth: int):
    """The stdlib's C encoder, one item per line `depth` indents in; built once,
    where JSONEncoder.encode would build it anew on every call."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))
    if c_make_encoder is None:  # no C accelerator: the same bytes, slower
        return encoder.encode
    encode = c_make_encoder(None, encoder.default, encode_basestring_ascii, None,
                            encoder.key_separator, encoder.item_separator, True, False, True)
    return lambda value: "".join(encode(value, 0))


def _all_scalars(items) -> bool:
    for item in items:
        if isinstance(item, _CONTAINERS):
            return False
    return True


def _indented(value, depth: int = 0) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, where json
    would take its pure-Python encoder.  A container of scalars is one call of
    the C encoder, and so are rows of scalars (vertices), whose brackets then
    move onto lines of their own: the C encoder writes a raw newline only in a
    separator, so "],<newline><inner>[" is only ever a row boundary."""
    if not (value and isinstance(value, _CONTAINERS)):
        return _items_encoder(0)(value)  # a scalar or an empty container
    pad, inner = "  " * (depth + 1), "  " * (depth + 2)
    if isinstance(value, dict) and not _all_scalars(value.values()):
        text = "{" + (",\n" + pad).join(  # keys are strings: to_document made them so
            [f"{encode_basestring_ascii(k)}: {_indented(v, depth + 1)}"
             for k, v in sorted(value.items())]) + "}"
    elif isinstance(value, dict) or _all_scalars(value):
        text = _items_encoder(depth + 1)(value)
    elif all(isinstance(row, (list, tuple)) and row and _all_scalars(row) for row in value):
        rows = _items_encoder(depth + 2)(value)[2:-2]
        text = "[[\n" + inner + rows.replace(
            "],\n" + inner + "[", f"\n{pad}],\n{pad}[\n{inner}") + f"\n{pad}]]"
    else:
        text = "[" + (",\n" + pad).join([_indented(v, depth + 1) for v in value]) + "]"
    return f"{text[0]}\n{pad}{text[1:-1]}\n{pad[2:]}{text[-1]}"


def emit_report(obj, *, fleet: list[dict] | None = None, extra: dict | None = None) -> str:
    """json.dumps(to_document(...), sort_keys=True, indent=2) plus a newline."""
    return _indented(to_document(obj, fleet=fleet, extra=extra)) + "\n"


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
        # pixel for every point at once; y * -scale rounds as -(y * scale)
        xy = 0.5 * canvas + np.asarray(pts, dtype=float) * (scale, -scale)
        coords = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
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
        if not doc.get("degenerate") and int(doc.get("n") or 0) >= 3:
            cone, r = Cone(doc["cone"]["bisector"], doc["cone"]["half_angle"]), 1.5 * d
            a, z = ["{:.2f} {:.2f}".format(*pixel(r * math.cos(t), r * math.sin(t))) for t in (
                cone.bisector - cone.half_angle, cone.bisector + cone.half_angle)]
            big, c, rs = int(cone.half_angle > math.pi / 2), f"{canvas / 2:.2f}", f"{r * scale:.2f}"
            if big and a == z:  # a disk: SVG drops an arc between equal ends (F.6.2)
                parts.append(f'<circle cx="{c}" cy="{c}" r="{rs}" {_STYLES["cone"]}/>')
            else:  # apex, one edge, then counterclockwise in the world: sweep flag 0
                parts.append(f'<path d="M {c} {c} L {a} A {rs} {rs} 0 {big} 0 {z} Z" '
                             f'{_STYLES["cone"]}/>')
        elif not doc.get("degenerate"):
            for i, (x, y) in enumerate(robots):
                # foci O and the robot: centre delta d/2 along phi, semi-axes d/2
                # and d sqrt(1 - delta^2)/2.  In its own frame one printed number is
                # the semi-axis and the ends' offset, so the two arcs are exact
                # halves, and at delta = 1 the segment (SVG 1.1, F.6.2)
                delta = min(math.hypot(x, y) / d, 1.0)
                phi = math.atan2(y, x) if delta > 0 else 0.0
                cx, cy = pixel(0.5 * delta * d * math.cos(phi), 0.5 * delta * d * math.sin(phi))
                a = f"{0.5 * d * scale:.2f}"
                b = f"{0.5 * d * scale * math.sqrt(1.0 - delta * delta):.2f}"
                parts.append(f'<path transform="translate({cx:.2f} {cy:.2f}) rotate('
                             f'{-math.degrees(phi):.4f})" d="M -{a} 0 A {a} {b} 0 0 1 {a} 0 '
                             f'A {a} {b} 0 0 1 -{a} 0 Z" '
                             f'{_STYLES["ellipse" if i == 0 else "ellipse-alt"]}/>')
        for x, y in robots:
            parts.append('<circle cx="{:.2f}" cy="{:.2f}" r="3" {}/>'.format(
                *pixel(x, y), _STYLES["point"]))
    # the square lies within sqrt(2) w < 1.5 w of the origin: a line meets it
    # within 1.5 w (0.75 canvas) of its foot or not at all; the viewport clips
    if witness.delta < 1.5 * w:
        c, s, h = math.cos(witness.theta), math.sin(witness.theta), 0.75 * canvas
        fx, fy = pixel(witness.delta * c, witness.delta * s)
        parts.append('<line x1="{:.2f}" y1="{:.2f}" x2="{:.2f}" y2="{:.2f}" {}/>'.format(
            fx + h * s, fy + h * c, fx - h * s, fy - h * c, _STYLES["witness"]))
    parts.append('<text x="{:.2f}" y="{:.2f}" {}>{}</text>'.format(
        *pixel(-0.95 * w, 0.9 * w), _STYLES["annotation"], label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
