import hashlib
import json
import math
import warnings
from pathlib import Path

import pytest

from shoreline.cli import (
    EXIT_CONFIG,
    EXIT_LEMMA,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_UNCOVERED,
    load_fleet_config,
    main,
)

FLEETS = Path(__file__).resolve().parent.parent / "fleets"


def write_config(path, robots, evaluation=None, version=1):
    doc = {"version": version, "robots": robots}
    if evaluation is not None:
        doc["evaluation"] = evaluation
    path.write_text(json.dumps(doc))
    return str(path)


def ray_config(path, n, **evaluation):
    robots = [{"kind": "ray", "angle": 2.0 * math.pi * k / n} for k in range(n)]
    return write_config(path, robots, evaluation or None)


# ---------------------------------------------------------------- evaluate


def test_evaluate_writes_report(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=360,
                     t_steps=512)
    out = tmp_path / "report.json"
    assert main(["evaluate", cfg, "--out", str(out)]) == EXIT_OK
    line = capsys.readouterr().out
    assert "cr_estimate=" in line
    doc = json.loads(out.read_text())
    assert doc["schema"] == "cr_report/v1"
    assert doc["cr_estimate"] == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert len(doc["fleet"]) == 4


def test_evaluate_flag_overrides_config(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=8)
    assert main(["evaluate", cfg, "--theta-steps", "360",
                 "--t-steps", "256"]) == EXIT_OK
    assert "cr_estimate=1.414" in capsys.readouterr().out


def test_evaluate_requires_horizon(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4)
    assert main(["evaluate", cfg]) == EXIT_CONFIG
    assert "horizon" in capsys.readouterr().err


def test_evaluate_uncovered_exit(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.json", [{"kind": "ray", "angle": 0.0}])
    code = main(["evaluate", cfg, "--horizon", "10", "--theta-steps", "16",
                 "--t-steps", "64"])
    assert code == EXIT_UNCOVERED
    assert "uncovered" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--horizon", "--epsilon"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_evaluate_non_finite_is_a_config_error(tmp_path, capsys, flag, value):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=16,
                     t_steps=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", cfg, flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag[2:]} must be finite and positive" in err
    assert "uncovered" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_evaluate_non_finite_t_start_is_a_config_error(tmp_path, capsys, value):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=16,
                     t_steps=64)
    assert main(["evaluate", cfg, "--t-start", value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "t_start must be finite" in err
    assert "uncovered" not in err


def test_evaluate_t_start_does_not_inflate_a_ray_fleet(tmp_path):
    # a ray fleet is sampled at its events, not on the time grid: a later
    # grid start no longer makes every direction pay t_start / epsilon
    out = tmp_path / "report.json"
    assert main(["evaluate", str(FLEETS / "rays-4.json"), "--t-start", "1",
                 "--horizon", "10", "--theta-steps", "8", "--t-steps", "16",
                 "--out", str(out)]) == EXIT_OK
    cr = json.loads(out.read_text())["cr_estimate"]
    assert cr == pytest.approx(math.sqrt(2.0), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("config", ["rays-4", "spiral-1"])
@pytest.mark.parametrize("flags,message", [
    (["--t-start", "20"], "t_start must lie in [0, horizon)"),
    (["--t-start", "10"], "t_start must lie in [0, horizon)"),
    (["--t-start", "-1", "--spacing", "uniform"], "t_start must lie in [0, horizon)"),
    (["--t-steps", "1"], "t_steps must be at least 2"),
    (["--spacing", "geometric", "--t-start", "0"], "geometric spacing needs t_start"),
])
def test_evaluate_bad_time_grid_is_a_config_error(capsys, config, flags, message):
    # the time grid is validated whether or not the fleet is sampled on it
    code = main(["evaluate", str(FLEETS / f"{config}.json"), "--horizon", "10",
                 "--theta-steps", "8", "--t-steps", "16", *flags])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("theta_steps", "abc"),
    ("t_steps", None),
    ("window", 5),
    ("t_start", "x"),
    ("theta_steps", 7.9),  # used to be truncated to 7
])
def test_evaluate_non_numeric_config_value_is_a_config_error(tmp_path, capsys, key,
                                                             value):
    evaluation = {"horizon": 10.0, "theta_steps": 16, "t_steps": 64, key: value}
    cfg = ray_config(tmp_path / "f.json", 4, **evaluation)
    assert main(["evaluate", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"evaluation: {key} must be " in err
    assert "Traceback" not in err


def test_evaluate_missing_config_file(tmp_path, capsys):
    code = main(["evaluate", str(tmp_path / "nope.json"), "--horizon", "5"])
    assert code == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


# ------------------------------------------------------------ config files


def test_config_rejects_bad_version(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.json", [{"kind": "ray", "angle": 0.0}],
                       version=2)
    assert main(["evaluate", cfg, "--horizon", "5"]) == EXIT_CONFIG
    assert "version" in capsys.readouterr().err


def test_config_rejects_empty_robots(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.json", [])
    assert main(["evaluate", cfg, "--horizon", "5"]) == EXIT_CONFIG
    assert "non-empty" in capsys.readouterr().err


def test_config_error_names_bad_robot(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.json", [
        {"kind": "ray", "angle": 0.0},
        {"kind": "hovercraft"},
    ])
    assert main(["evaluate", cfg, "--horizon", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "robots[1]" in err
    assert "hovercraft" in err


@pytest.mark.parametrize("doc,where,key", [
    ({"version": 1, "robots": [{"kind": "ray", "angle": 0.0}], "horizon": 5},
     "f.json", "horizon"),
    ({"version": 1, "robots": [{"kind": "ray", "angle": 0.0}],
      "evaluation": {"horizon": 5, "theta_step": 12}}, "evaluation", "theta_step"),
    ({"version": 1, "robots": [{"kind": "ray", "angle": 0.0},
                               {"kind": "log_spiral", "growth": 0.3, "chiralty": "cw"}]},
     "robots[1]", "chiralty"),
    # spirals start at the origin; a config from before that fails loudly
    ({"version": 1, "robots": [{"kind": "antipodal_of", "inner": {
        "kind": "log_spiral", "growth": 0.3, "start_radius": 1.0}}]},
     "robots[0].inner", "start_radius"),
], ids=["top-level", "evaluation", "robot", "inner-robot"])
def test_config_rejects_unknown_keys(tmp_path, capsys, doc, where, key):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    assert main(["evaluate", str(p), "--horizon", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{where}: unknown key '{key}'" in err


@pytest.mark.parametrize("command", [["evaluate"], ["certify", "--d", "1"]])
@pytest.mark.parametrize("robot,message", [
    ('{"kind": "log_spiral", "growth": 0.3, "start_phase": NaN}',
     "robots[1]: start_phase must be finite, got nan"),
    ('{"kind": "ray", "angle": NaN}', "robots[1]: angle must be finite, got nan"),
    ('{"kind": "ray", "angle": 1e400}', "robots[1]: angle must be finite, got inf"),
], ids=["spiral-nan-phase", "ray-nan", "ray-overflow"])
def test_config_rejects_non_finite_bearings(tmp_path, capsys, command, robot, message):
    # a NaN phase used to certify "unbounded CR" with exit 0, a NaN ray was
    # dropped by certify and left evaluate uncovered, 1e400 hit a math error
    p = tmp_path / "f.json"
    p.write_text('{"version": 1, "evaluation": {"horizon": 10}, "robots": '
                 f'[{{"kind": "ray", "angle": 0.0}}, {robot}]}}')
    assert main([command[0], str(p), *command[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: config {p}: {message}\n"


def test_config_invalid_json(tmp_path, capsys):
    p = tmp_path / "f.json"
    p.write_text("{not json")
    assert main(["evaluate", str(p), "--horizon", "5"]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_load_fleet_config_returns_evaluation_block(tmp_path):
    cfg = ray_config(tmp_path / "f.json", 3, horizon=12.0, epsilon=0.05)
    fleet, docs, ev = load_fleet_config(cfg)
    assert len(fleet) == 3
    assert len(docs) == 3
    assert ev == {"horizon": 12.0, "epsilon": 0.05}


def test_usage_error_is_config_exit(capsys):
    assert main(["evaluate"]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG


# ----------------------------------------------------------------- certify


def test_certify_four_rays(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4)
    out = tmp_path / "cert.json"
    assert main(["certify", cfg, "--d", "1.0", "--out", str(out)]) == EXIT_OK
    assert "bound=1.414" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "cone_certificate/v1"
    assert doc["bound_limit"] == pytest.approx(math.sqrt(2.0))


def test_certify_n_mismatch(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4)
    assert main(["certify", cfg, "--d", "1.0", "--n", "5"]) == EXIT_CONFIG
    assert "does not match" in capsys.readouterr().err


def test_certify_degenerate_prints_notice(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.json", [
        {"kind": "polyline", "vertices": [[0.0, 0.0], [0.0, 0.0], [1e-15, 0.0]]},
    ])
    assert main(["certify", cfg, "--d", "1.0"]) == EXIT_OK
    assert "degenerate" in capsys.readouterr().out


def test_certify_rejects_nonpositive_d(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4)
    assert main(["certify", cfg, "--d", "0.0"]) == EXIT_CONFIG


@pytest.mark.parametrize("config,flag,value", [
    ("rays-3.json", "d", "inf"),
    ("rays-3.json", "d", "nan"),
    ("rays-3.json", "eps", "-0.1"),
    ("rays-3.json", "eps", "nan"),
    ("rays-3.json", "gamma", "-1"),
    ("rays-3.json", "gamma", "nan"),
    ("double-spiral-2.json", "zeta", "-0.4"),
    ("double-spiral-2.json", "zeta", "-0.5"),
    ("double-spiral-2.json", "zeta", "inf"),
])
def test_certify_rejects_unsound_parameters(capsys, config, flag, value):
    # negative offsets used to certify above the fleet's own CR
    argv = ["certify", str(FLEETS / config), "--d", "1", f"--{flag}", value]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{flag} must be finite" in captured.err
    assert "bound=" not in captured.out


# ------------------------------------------------------------------ lemmas


def test_lemmas_all_pass(capsys):
    code = main(["lemmas", "--grid", "200", "--samples", "2000"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_lemmas_single_suite_with_report(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = main(["lemmas", "--suite", "cone-exit", "--grid", "100",
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lemma_suite/v1"
    assert doc["all_passed"] is True
    assert len(doc["results"]) == 1
    assert doc["results"][0]["suite"] == "cone-exit"


def test_lemmas_negative_controls(capsys):
    code = main(["lemmas", "--suite", "omb", "--grid", "150",
                 "--negative-control"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "omb-negative-control" in out
    assert "discriminant-zeta-zero" in out


# ---------------------------------------------------------------- optimize


def test_optimize_quick(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--n", "2", "--bracket", "0.6", "0.7",
                 "--prescan", "3", "--tol", "0.02", "--out", str(out)])
    assert code == EXIT_OK
    assert "b=0.6" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "optimize_result/v1"
    assert doc["value"] == pytest.approx(5.2644, abs=5e-3)
    assert doc["n"] == 2


def test_optimize_rejects_n3(capsys):
    assert main(["optimize", "--n", "3"]) == EXIT_CONFIG
    assert "unsupported" in capsys.readouterr().err


def test_optimize_requires_n(capsys):
    assert main(["optimize"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["lemmas", "--grid", "1"],
    ["lemmas", "--grid", "2"],
    ["lemmas", "--samples", "-5"],
    ["lemmas", "--samples", "0"],
    ["optimize", "--n", "1", "--tol", "-1"],
    ["optimize", "--n", "1", "--bracket", "0.5", "0.1"],
    ["optimize", "--n", "1", "--prescan", "2"],
    ["optimize", "--n", "1", "--r0", "-1"],  # not an optimize flag
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_arguments_exit_without_traceback(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# -------------------------------------------------------------------- plot


def test_plot_cr_report(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=180,
                     t_steps=256)
    rep = tmp_path / "report.json"
    assert main(["evaluate", cfg, "--out", str(rep)]) == EXIT_OK
    capsys.readouterr()
    assert main(["plot", str(rep)]) == EXIT_OK
    out = capsys.readouterr().out
    svg_path = tmp_path / "report.svg"
    assert str(svg_path) in out
    svg = svg_path.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 4


def test_plot_certificate_with_options(tmp_path):
    cfg = ray_config(tmp_path / "f.json", 2)
    rep = tmp_path / "cert.json"
    assert main(["certify", cfg, "--d", "1.0", "--out", str(rep)]) == EXIT_OK
    out = tmp_path / "picture.svg"
    assert main(["plot", str(rep), "--out", str(out), "--size", "256"]) == EXIT_OK
    svg = out.read_text()
    assert 'width="256"' in svg
    assert svg.count("<polygon") == 2  # one reachable ellipse per robot


def test_plot_unknown_schema(tmp_path, capsys):
    p = tmp_path / "weird.json"
    p.write_text(json.dumps({"schema": "mystery/v9"}))
    assert main(["plot", str(p)]) == EXIT_CONFIG
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "top level must be an object"),
    ({"schema": "cr_report/v1"}, "lacks the field 'witness'"),
], ids=["not-an-object", "missing-field"])
def test_plot_malformed_report(tmp_path, capsys, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["plot", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_plot_missing_file(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "no.json")]) == EXIT_CONFIG


def certificate_file(tmp_path) -> Path:
    rep = tmp_path / "cert.json"
    assert main(["certify", ray_config(tmp_path / "f.json", 2), "--d", "1.0",
                 "--out", str(rep)]) == EXIT_OK
    return rep


def assert_plot_refused(capsys, argv, message):
    out = Path(argv[1]).with_suffix(".svg")
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--world-radius", "0"], "world radius must be finite and positive"),
    (["--world-radius", "-2"], "world radius must be finite and positive"),
    (["--world-radius", "inf"], "world radius must be finite and positive"),
    (["--world-radius", "nan"], "world radius must be finite and positive"),
    (["--world-radius", "1e-320"], "canvas/(2 * radius)"),
    (["--size", "15"], "canvas too small"),
], ids=["radius-0", "radius-negative", "radius-inf", "radius-nan", "radius-tiny",
        "size-15"])
def test_plot_bad_view_exits_1(tmp_path, capsys, flags, message):
    rep = certificate_file(tmp_path)
    capsys.readouterr()
    assert_plot_refused(capsys, ["plot", str(rep), *flags], message)


@pytest.mark.parametrize("positions", [[[1.0]], [1.0], [[1.0, 0.0, 0.0]],
                                       [[math.nan, 0.0]]],
                         ids=["one-coordinate", "bare-number", "three-coordinates",
                              "nan"])
def test_plot_bad_robot_positions_exit_1(tmp_path, capsys, positions):
    rep = certificate_file(tmp_path)
    doc = json.loads(rep.read_text())
    rep.write_text(json.dumps({**doc, "robot_positions": positions}))
    capsys.readouterr()
    assert_plot_refused(capsys, ["plot", str(rep)], "robot_positions must be pairs")


def test_plot_nan_horizon_exits_1(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=8)
    rep = tmp_path / "report.json"
    assert main(["evaluate", cfg, "--out", str(rep)]) == EXIT_OK
    doc = json.loads(rep.read_text())
    doc["grid"]["horizon"] = math.nan
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert_plot_refused(capsys, ["plot", str(rep)], "horizon must be positive")


def parity_outputs(stem: str, work: Path) -> bytes:
    """Every certificate and picture the shipped config `stem` yields."""
    cfg = str(FLEETS / f"{stem}.json")
    runs = []
    for d in ("0.3", "1", "1.9"):
        cert = work / f"{stem}.d{d}.json"
        runs += [(["certify", cfg, "--d", d], cert),
                 (["plot", str(cert)], cert.with_suffix(".svg")),
                 (["plot", str(cert), "--size", "200", "--world-radius", "3"],
                  work / f"{stem}.d{d}.small.svg")]
    if stem.startswith("rays-"):
        rep = work / f"{stem}.report.json"
        runs += [(["evaluate", cfg, "--theta-steps", "72"], rep),
                 (["plot", str(rep)], rep.with_suffix(".svg"))]
    for argv, out in runs:
        assert main(argv + ["--out", str(out)]) == EXIT_OK
    return b"".join(out.read_bytes() for _, out in runs)


# sha256 of parity_outputs for every shipped config: certificates at three
# snapshot times, each drawn at the default view and at --size 200
# --world-radius 3, plus a 72-direction report and its picture for each ray
# fleet.  Any change to a certificate or a picture, down to the last digit
# printed, changes its digest; the values depend on the platform's libm.
PARITY_DIGESTS = {
    "all-at-origin": "2cdacacb7cfb5dac0a56f5634b597c924d36da0191492c0fd0a2fd95a8a5a701",
    "double-spiral-2": "efacfa259edbbdec25b72e9a3c34eb17c31aa0bc1650a0f3ad6f00e0679ee7b6",
    "rays-10": "124a500abb3c31527acdd97a52a80122f548df1e54d571baced8bf01132fd88f",
    "rays-11": "f66b7671c52aa2226ace9008b60e3c859de738a4fcf3bf21cc63ccbb51e9bb15",
    "rays-12": "8782e750b491769a23387edab5a3c263d2163885c3caf4a07fdb340f30cb20d1",
    "rays-3": "8d77c7aa8b6e17e84ea86de3b2b93478dff243732a2cf149b567b8af6af5e4cc",
    "rays-4": "3dcb7b97557096542aae9468434d4cdd3b30a97405ef5edf002c5c3a577f3174",
    "rays-5": "3e02d69a5ebeab7e0e16b93b1ac88ed6ef0a389b73993039f4aff27c8e99319a",
    "rays-6": "9a0ac25f07c829e094e9f87e41de016e67f7a45e9a79776013d6035617ae17be",
    "rays-7": "b4240cc2827586b5c33e3183363ffbfbba057aa6e5e85339bf47adfe6edd0f3f",
    "rays-8": "a2c90f3c45fc1fbf37137fead1cbaa28945b49f9f93320046bf1dc273e8e3e55",
    "rays-9": "1e956fdd857e85ece7c4f976bfd2b09149ce6bad2790ac9c826078410c27de84",
    "single-ray": "58529693bd0ba2d6d583839d08d16286b6346307be2abd76db431185a6566ae8",
    "spiral-1": "d17146817fa920b26ea62096703a081861ce2d4e57d1bb4be9658ac020b703dd",
}


@pytest.mark.parametrize("stem", sorted(PARITY_DIGESTS))
def test_certificates_and_pictures_are_pinned(tmp_path, capsys, stem):
    digest = hashlib.sha256(parity_outputs(stem, tmp_path)).hexdigest()
    assert digest == PARITY_DIGESTS[stem]


# -------------------------------------------------------------- exit codes


def test_exit_codes_are_distinct():
    codes = [EXIT_OK, EXIT_CONFIG, EXIT_UNCOVERED, EXIT_LEMMA,
             EXIT_NO_CONVERGENCE]
    assert codes == [0, 1, 2, 3, 4]
