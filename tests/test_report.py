import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoreline import report
from shoreline.certifier import ellipse_boundary, lemma_suite, snapshot_lower_bound
from shoreline.evaluator import CRReport
from shoreline.geometry import Line
from shoreline.optimizer import OptimizeResult
from shoreline.report import emit_report, render, to_document
from shoreline.trajectory import AntipodalOf, Fleet, Polyline, Ray, spec_to_dict

from reference import clip_line


def sample_cr_report():
    return CRReport(
        cr_estimate=1.4142,
        witness=Line(0.25, 2.0),
        witness_time=2.8284,
        coverage_radius=7.0,
        horizon=10.0,
        theta_steps=720,
        t_steps=4096,
        epsilon=0.01,
        window=(1.0, 5.0),
    )


def test_emit_is_deterministic_and_sorted():
    a = emit_report(sample_cr_report())
    b = emit_report(sample_cr_report())
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert doc["schema"] == "cr_report/v1"
    # top-level keys come out sorted in the byte stream
    keys = [line.split('"')[1] for line in a.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_document_cr_report_fields():
    doc = to_document(sample_cr_report())
    assert doc["witness"] == {"theta": 0.25, "delta": 2.0}
    assert doc["grid"]["window"] == [1.0, 5.0]
    assert set(doc["grid"]) == {"horizon", "theta_steps", "t_steps", "epsilon", "window"}


def test_document_optimize_result():
    doc = to_document(OptimizeResult(0.6465, 5.2644, 40, (0.6465, 0.6466), (-1e-9, 2e-9)))
    assert doc["schema"] == "optimize_result/v2"
    assert doc["converged"] is True
    assert doc["bracket"] == [0.6465, 0.6466]
    assert doc["slopes"] == [-1e-9, 2e-9]


def test_document_lemma_dict_and_unknown_type():
    doc = to_document({"results": [{"lemma": "x", "passed": True}]})
    assert doc["schema"] == "lemma_suite/v1"
    with pytest.raises(TypeError):
        to_document(42)


def test_document_certificate_infinity_becomes_null():
    parked = Fleet((Polyline(((0.0, 0.0), (0.0, 0.0), (1e-15, 0.0))),))
    cert = snapshot_lower_bound(parked, d=1.0, origin_tol=1e-6)
    doc = to_document(cert)
    assert doc["schema"] == "cone_certificate/v1"
    assert doc["degenerate"] is True
    assert doc["bound"] is None
    assert doc["bound_limit"] is None
    json.dumps(doc)  # must be strictly JSON-safe


def test_document_scrubs_numpy_scalars():
    rep = sample_cr_report()
    rep.cr_estimate = np.float64(1.5)
    rep.t_steps = np.int64(128)
    doc = to_document(rep)
    assert type(doc["cr_estimate"]) is float
    assert type(doc["grid"]["t_steps"]) is int


def test_document_merges_fleet_and_extra():
    fleet_docs = [spec_to_dict(Ray(0.0))]
    doc = to_document(sample_cr_report(), fleet=fleet_docs,
                      extra={"elapsed_s": 0.5})
    assert doc["fleet"] == fleet_docs
    assert doc["elapsed_s"] == 0.5


_text = st.text(max_size=6)
_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _text,
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64))
# rows of scalars, like vertices; text with brackets and newlines in it
_rows = st.lists(st.lists(st.one_of(_scalar, st.sampled_from(["],\n    [", "]\n["])),
                          min_size=1, max_size=3), min_size=1, max_size=4)
_document = st.dictionaries(_text, st.recursive(
    st.one_of(_scalar, _rows),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12), max_size=5)


@given(doc=_document, fleet=st.sampled_from([None, [], [spec_to_dict(Ray(0.5)), spec_to_dict(
    Polyline(((0.0, 0.0), (1.0, -0.0), (1.0, 2.5))))]]))
@settings(max_examples=100, deadline=None)
def test_emit_writes_the_indented_json_dump(doc, fleet):
    # empty containers, non-ASCII text, bools, ints, None, non-finite floats
    # and numpy scalars: the bytes json.dumps(indent=2) would write
    want = json.dumps(to_document(doc, fleet=fleet), sort_keys=True, indent=2) + "\n"
    assert emit_report(doc, fleet=fleet) == want


def test_emit_without_the_c_encoder_writes_the_same_bytes(monkeypatch, ray_fleet):
    # a Python built without json's C accelerator takes the pure encoder
    fleet = ray_fleet(5)
    robots = [spec_to_dict(robot) for robot in fleet.robots]
    cert, lemmas = snapshot_lower_bound(fleet, d=1.0), {"results": lemma_suite(),
                                                        "all_passed": True}
    want = [emit_report(lemmas), emit_report(cert, fleet=robots)]
    monkeypatch.setattr(report, "c_make_encoder", None)
    report._items_encoder.cache_clear()
    try:
        assert isinstance(report._items_encoder(1).__self__, json.JSONEncoder)
        assert [emit_report(lemmas), emit_report(cert, fleet=robots)] == want
    finally:
        report._items_encoder.cache_clear()


def point_certificate(x: float, y: float, d: float = 1.0) -> dict:
    """A degenerate certificate document: one robot, no cone or ellipse."""
    return {"schema": "cone_certificate/v1", "snapshot_time": d, "n": 1,
            "degenerate": True, "bound": None, "robot_positions": [[x, y]],
            "witness_line": {"theta": 0.0, "delta": d}}


def test_render_validates_canvas_and_radius():
    doc = point_certificate(0.5, 0.5)
    for radius in (0.0, -1.0, math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match="world radius"):
            render(doc, world_radius=radius)
    with pytest.raises(ValueError, match="canvas too small"):
        render(doc, canvas=4)
    with pytest.raises(ValueError, match="world radius"):  # the default, 1.8 d
        render(point_certificate(0.5, 0.5, d=1e-320))
    render(doc, canvas=16, world_radius=1e300)


def test_render_draws_every_element_kind(ray_fleet):
    fleet = [spec_to_dict(Ray(0.0)), spec_to_dict(Ray(math.pi))]
    report = render(to_document(sample_cr_report(), fleet=fleet), canvas=320)
    cone = render(to_document(snapshot_lower_bound(ray_fleet(5), d=1.0)))
    ellipses = render(to_document(snapshot_lower_bound(ray_fleet(2), d=1.0)))
    for svg in (report, cone, ellipses):
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("stroke-dasharray") == 1  # the witness line
        assert svg.count("<text") == 1
    # trajectories alternate two colours, as do the two reachable ellipses
    assert [line.split('stroke="')[1][:7] for line in report.splitlines()
            if line.startswith("<polyline")] == ["#2266aa", "#22aa77"]
    assert cone.count('<path d="M') == 1 and 'fill="#cc223322"' in cone
    assert [line.split('stroke="')[1][:7] for line in ellipses.splitlines()
            if line.startswith("<path")] == ["#2266aa", "#cc2233"]
    assert cone.count('r="3"') == 5 and ellipses.count('r="3"') == 2


def test_render_y_axis_points_up():
    # world (0, 1) with radius 2 on a 640 canvas lands at pixel y = 160
    svg = render(point_certificate(0.0, 1.0), world_radius=2.0, canvas=640)
    assert 'cx="320.00" cy="160.00"' in svg


def test_render_clips_distant_line():
    doc = to_document(sample_cr_report())
    doc["witness"] = {"theta": 0.0, "delta": 5.0}
    svg = render(doc, world_radius=1.0, canvas=64)
    assert "dasharray" not in svg  # nothing inside the frame to draw
    assert "dasharray" in render(doc, world_radius=6.0, canvas=64)


def test_scene_cr_report_round_trip():
    fleet = [spec_to_dict(Ray(0.0)), spec_to_dict(Ray(math.pi))]
    svg = render(to_document(sample_cr_report(), fleet=fleet))
    assert svg.count("<polyline") == 2
    assert "cr = 1.414200" in svg
    assert "dasharray" in svg  # the witness line style


def test_scene_two_robot_certificate_draws_ellipses(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(2), d=1.0)
    svg = render(to_document(cert), canvas=320)
    # one reachable region per robot plus two position markers
    assert svg.count("<path") == 2
    assert svg.count("<circle") == 2
    assert "bound = " in svg


def test_scene_cone_certificate_draws_wedge(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(5), d=1.0)
    svg = render(to_document(cert))
    assert svg.count("<path") == 1  # the empty cone
    assert svg.count("<circle") == 5


def test_scene_degenerate_certificate_says_unbounded():
    parked = Fleet((Polyline(((0.0, 0.0), (0.0, 0.0), (1e-15, 0.0))),))
    cert = snapshot_lower_bound(parked, d=1.0, origin_tol=1e-6)
    svg = render(to_document(cert))
    assert "unbounded" in svg
    assert "<path" not in svg


def test_scene_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        render({"schema": "mystery/v9"})


# ------------------------------------------------- geometry of the pictures

SVG_NS = "{http://www.w3.org/2000/svg}"


def drawn(svg: str, tag: str) -> list[dict]:
    """Attributes of every `tag` element of an SVG picture."""
    return [el.attrib for el in ET.fromstring(svg).iter(SVG_NS + tag)]


def path_commands(d: str) -> list[tuple[str, list[float]]]:
    return [(cmd, [float(v) for v in args.split()])
            for cmd, args in re.findall(r"([MLAZ])([^MLAZ]*)", d)]


def arc_centre(x1, y1, x2, y2, rx, ry, large, sweep):
    """(cx, cy, rx, ry, start, extent) of an SVG arc with no axis rotation,
    found from its end points as SVG 1.1 F.6.5 and F.6.6 tell a renderer to:
    radii too small for the chord grow, and the flags pick the centre."""
    hx, hy = 0.5 * (x1 - x2), 0.5 * (y1 - y2)
    grow = math.sqrt(max(1.0, (hx / rx) ** 2 + (hy / ry) ** 2))
    rx, ry = rx * grow, ry * grow
    k = math.sqrt(max(0.0, ((rx * ry) ** 2 - (rx * hy) ** 2 - (ry * hx) ** 2)
                      / ((rx * hy) ** 2 + (ry * hx) ** 2)))
    k = -k if large == sweep else k
    cx, cy = k * rx * hy / ry, -k * ry * hx / rx
    start = math.atan2((hy - cy) / ry, (hx - cx) / rx)
    extent = (math.atan2((-hy - cy) / ry, (-hx - cx) / rx) - start) % (2.0 * math.pi)
    return (cx + 0.5 * (x1 + x2), cy + 0.5 * (y1 + y2), rx, ry, start,
            extent if sweep else extent - 2.0 * math.pi)


def n_le_2_certificates():
    """Certificates of one and two robots whose ellipses run from a circle
    (delta = 0: back at the origin, or parked there) to a segment (delta = 1)."""
    loop = Polyline(((0.0, 0.0), (0.5, 0.0), (0.0, 0.0)))
    bend = Polyline(((0.0, 0.0), (0.3, 0.1), (-0.2, 0.5), (-0.9, 0.2)))
    for robots in ((Ray(0.3), loop), (bend, Ray(2.0)), (AntipodalOf(bend),)):
        for d in (0.37, 1.0, 2.5):
            yield to_document(snapshot_lower_bound(Fleet(robots), d=d))


@pytest.mark.parametrize("canvas,radius", [(640, None), (200, 3.0)], ids=["default", "small"])
def test_render_draws_each_reachable_ellipse_exactly(canvas, radius):
    deltas = set()
    for doc in n_le_2_certificates():
        d = doc["snapshot_time"]
        scale = canvas / (2.0 * (radius or 1.8 * d))
        paths = drawn(render(doc, canvas=canvas, world_radius=radius), "path")
        assert len(paths) == len(doc["robot_positions"])
        for (x, y), attrs in zip(doc["robot_positions"], paths):
            delta = min(math.hypot(x, y) / d, 1.0)
            deltas.add(round(delta, 6))
            phi = math.atan2(y, x) if delta > 0 else 0.0
            tx, ty, rot = map(float, re.fullmatch(r"translate\((\S+) (\S+)\) rotate\((\S+)\)",
                                                  attrs["transform"]).groups())
            (m, start), (a1, arc1), (a2, arc2), (z, _) = path_commands(attrs["d"])
            assert (m, a1, a2, z) == ("M", "A", "A", "Z")
            # two arcs between the ends of the major axis, in the ellipse's frame
            rx, ry = arc1[:2]
            assert arc1[:5] == arc2[:5] == [rx, ry, 0.0, 0.0, 1.0]
            assert start == arc2[5:] == [-rx, 0.0] and arc1[5:] == [rx, 0.0]
            if ry > 0.0:  # else both arcs are the segment between the ends (F.6.2)
                first = arc_centre(-rx, 0.0, rx, 0.0, rx, ry, 0, 1)
                second = arc_centre(rx, 0.0, -rx, 0.0, rx, ry, 0, 1)
                # one ellipse centred in the frame, each arc one half of it
                assert first[:4] == second[:4] == pytest.approx((0.0, 0.0, rx, ry), abs=1e-12)
                assert first[5] == second[5] == pytest.approx(math.pi, abs=1e-12)
                assert math.cos(second[4] - first[4]) == pytest.approx(-1.0, abs=1e-12)
            # the old outline's vertex at eccentric anomaly t is the drawn
            # ellipse's point at -t, as pixel y points down
            old = 0.5 * canvas + d * ellipse_boundary(delta, phi, 512) * (scale, -scale)
            t = -np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
            c, s = math.cos(math.radians(rot)), math.sin(math.radians(rot))
            local = np.stack([rx * np.cos(t), ry * np.sin(t)], axis=1)
            new = local @ np.array([[c, s], [-s, c]]) + (tx, ty)
            assert np.hypot(*(new - old).T).max() < 0.01
    assert {0.0, 1.0} < deltas


def cone_document(n: int, half_angle: float | None) -> dict:
    fleet = Fleet(tuple(Ray(0.1 * n + 2.0 * math.pi * k / n) for k in range(n)))
    doc = to_document(snapshot_lower_bound(fleet, d=1.3))
    if half_angle is not None:  # a hand-edited cone wider than a half-plane
        doc["cone"]["half_angle"] = half_angle
    return doc


@pytest.mark.parametrize("n,half_angle", [(n, None) for n in range(3, 13)] + [(3, 2.0)])
def test_render_draws_the_empty_cone_with_one_arc(n, half_angle):
    doc = cone_document(n, half_angle)
    d, canvas = doc["snapshot_time"], 640
    bisector, half = doc["cone"]["bisector"], doc["cone"]["half_angle"]
    scale = canvas / (3.6 * d)

    def edge(a):
        return 320.0 + 1.5 * d * scale * np.cos(a), 320.0 - 1.5 * d * scale * np.sin(a)

    (attrs,) = drawn(render(doc, canvas=canvas), "path")
    (m, apex), (line, end0), (arc, params), (z, _) = path_commands(attrs["d"])
    assert (m, line, arc, z) == ("M", "L", "A", "Z") and apex == [320.0, 320.0]
    r, end1 = params[0], params[5:]
    assert params[:5] == [r, r, 0.0, float(half > math.pi / 2), 0.0]
    assert r == pytest.approx(1.5 * d * scale, abs=0.005)
    assert end0 == pytest.approx(edge(bisector - half), abs=0.005)
    assert end1 == pytest.approx(edge(bisector + half), abs=0.005)
    # the renderer's circle is centred on the apex and sweeps the cone's side
    cx, cy, rx, _, start, extent = arc_centre(*end0, *end1, r, r, *params[3:5])
    assert (cx, cy) == pytest.approx((320.0, 320.0), abs=0.05)
    assert rx == pytest.approx(r, abs=1e-3)
    assert math.remainder(start + bisector - half, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-3)
    assert extent == pytest.approx(-2.0 * half, abs=1e-3)  # counterclockwise in the world
    # the old 64-point wedge's arc lies on that circle
    x, y = edge(np.linspace(bisector - half, bisector + half, 64))
    assert np.abs(np.hypot(x - 320.0, y - 320.0) - r).max() < 0.01


@pytest.mark.parametrize("half_angle", [math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-6])
def test_render_draws_a_full_cone_as_a_disk(half_angle):
    # the cone's edges print as one point, and SVG drops an arc between
    # equal ends (F.6.2): the picture showed only the edge line
    doc = cone_document(3, half_angle)
    d, canvas = doc["snapshot_time"], 640
    svg = render(doc, canvas=canvas)
    assert not drawn(svg, "path")
    (disk,) = [a for a in drawn(svg, "circle") if a.get("fill") == "#cc223322"]
    assert disk["stroke"] == "#cc2233" and disk["stroke-width"] == "1"
    assert (disk["cx"], disk["cy"]) == ("320.00", "320.00")
    assert float(disk["r"]) == pytest.approx(1.5 * d * canvas / (3.6 * d), abs=0.005)


@given(theta=st.floats(-7.0, 7.0), delta=st.floats(0.0, 8.0), w=st.floats(0.5, 4.0))
@example(theta=0.3, delta=3.0, w=2.0)  # at 1.5 w: no line
@example(theta=0.3, delta=math.nextafter(3.0, 0.0), w=2.0)
@example(theta=math.pi / 4, delta=math.sqrt(2.0) * 2.0 - 1e-9, w=2.0)  # a corner
@settings(max_examples=200, deadline=None)
def test_render_witness_segment_covers_the_line_in_the_frame(theta, delta, w):
    doc = to_document(sample_cr_report())
    doc["witness"] = {"theta": theta, "delta": delta}
    scale = 640 / (2.0 * w)
    lines = [a for a in drawn(render(doc, canvas=640, world_radius=w), "line")
             if "stroke-dasharray" in a]
    assert len(lines) == (delta < 1.5 * w)  # drawn exactly when offset < 1.5 w
    clip = clip_line(Line(theta, delta), w)
    if clip is not None:
        (attrs,) = lines
        p = np.array([float(attrs["x1"]), float(attrs["y1"])])
        q = np.array([float(attrs["x2"]), float(attrs["y2"])])
        for x, y in clip:  # the segment contains the part inside the square
            v = np.array([320.0 + x * scale, 320.0 - y * scale]) - p
            along = min(max(v @ (q - p) / ((q - p) @ (q - p)), 0.0), 1.0)
            assert np.hypot(*(v - along * (q - p))) < 0.01
