import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoreline import report
from shoreline.certifier import lemma_suite, snapshot_lower_bound
from shoreline.evaluator import CRReport
from shoreline.geometry import Line
from shoreline.optimizer import OptimizeResult
from shoreline.report import emit_report, render, to_document
from shoreline.trajectory import Fleet, Polyline, Ray, spec_to_dict


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
    assert cone.count('<polygon points="') == 1 and 'fill="#cc223322"' in cone
    assert [line.split('stroke="')[1][:7] for line in ellipses.splitlines()
            if line.startswith("<polygon")] == ["#2266aa", "#cc2233"]
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
    assert svg.count("<polygon") == 2
    assert svg.count("<circle") == 2
    assert "bound = " in svg


def test_scene_cone_certificate_draws_wedge(ray_fleet):
    cert = snapshot_lower_bound(ray_fleet(5), d=1.0)
    svg = render(to_document(cert))
    assert svg.count("<polygon") == 1  # the empty cone
    assert svg.count("<circle") == 5


def test_scene_degenerate_certificate_says_unbounded():
    parked = Fleet((Polyline(((0.0, 0.0), (0.0, 0.0), (1e-15, 0.0))),))
    cert = snapshot_lower_bound(parked, d=1.0, origin_tol=1e-6)
    svg = render(to_document(cert))
    assert "unbounded" in svg
    assert "<polygon" not in svg


def test_scene_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        render({"schema": "mystery/v9"})
