import hashlib
import json
import math
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from shoreline import certifier, evaluator
from shoreline.cli import (
    EXIT_CONFIG,
    EXIT_LEMMA,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_UNCOVERED,
    build_parser,
    load_fleet_config,
    main,
)
from shoreline.optimizer import DEFAULT_BRACKET

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


@pytest.mark.parametrize("horizon", ["10", "100"])
def test_evaluate_refuses_a_window_the_horizon_does_not_cover(tmp_path, capsys, horizon):
    # the line x = 7 lies inside the window (1, 20) and no robot ever
    # reaches it, so no ratio measured within the horizon bounds the CR
    robots = [{"kind": "polyline", "vertices": [[0.0, 0.0], [6.0, 0.0]]},
              {"kind": "ray", "angle": 2.0 * math.pi / 3.0},
              {"kind": "ray", "angle": 4.0 * math.pi / 3.0}]
    cfg = write_config(tmp_path / "f.json", robots, {"epsilon": 1.0, "window": [1.0, 20.0]})
    assert main(["evaluate", cfg, "--horizon", horizon]) == EXIT_UNCOVERED
    err = capsys.readouterr().err
    assert "theta=0.000000 uncovered: coverage 6 < the measurement window's upper end 20" in err


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


@pytest.mark.parametrize("flags,message", [
    (["--horizon", "1e-320"], "horizon 1e-320 is below the least normal float"),
    (["--horizon", "10", "--epsilon", "1e-320"], "epsilon 1e-320 is below the least normal"),
    (["--horizon", "10", "--window", "1e-310", "1"],
     "window's lower end 1e-310 is below the least normal"),
    (["--horizon", "10", "--window", "1", "inf"], "window's upper end must be finite"),
], ids=["horizon", "epsilon", "window-lo", "window-inf"])
def test_evaluate_subnormal_or_unbounded_scales_are_config_errors(capsys, flags, message):
    # a subnormal horizon once reported 1.5 for four rays, whose CR is sqrt(2),
    # and an infinite window's end exited 2 as an uncovered fleet
    assert main(["evaluate", str(FLEETS / "rays-4.json"), *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_evaluate_non_finite_t_start_is_a_config_error(tmp_path, capsys, value):
    cfg = ray_config(tmp_path / "f.json", 4, horizon=10.0, theta_steps=16,
                     t_steps=64)
    assert main(["evaluate", cfg, "--t-start", value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "t_start must be finite" in err
    assert "uncovered" not in err


@pytest.mark.parametrize("robot,code,message", [
    # never reaches radius epsilon = 1 within the horizon: no direction covered
    ({"kind": "log_spiral", "growth": 1e-300}, EXIT_UNCOVERED, "uncovered: "),
    # a phase so large that floats cannot number its turns
    ({"kind": "log_spiral", "growth": 0.3, "start_phase": 1e308}, EXIT_CONFIG,
     "error: robots[0]: log spiral"),
])
def test_evaluate_extreme_spirals_exit_without_traceback(tmp_path, capsys, robot, code,
                                                         message):
    cfg = write_config(tmp_path / "spiral.json", [robot],
                       {"horizon": 1000.0, "theta_steps": 8})
    assert main(["evaluate", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


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
    (["--t-start", "-1"], "t_start must lie in [0, horizon)"),
    (["--t-steps", "1"], "t_steps must be at least 2"),
])
def test_evaluate_bad_time_grid_is_a_config_error(capsys, config, flags, message):
    # the time grid is validated whether or not the fleet is sampled on it
    code = main(["evaluate", str(FLEETS / f"{config}.json"), "--horizon", "10",
                 "--theta-steps", "8", "--t-steps", "16", *flags])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,given", [
    ([], " (the default, 1e-3 of the horizon)"),
    (["--epsilon", "5"], ""),
], ids=["default", "given"])
def test_evaluate_epsilon_above_the_window_is_a_config_error(capsys, flags, given):
    # the offsets measured would be [epsilon, 2], empty: this used to report
    # a witness at epsilon, outside the window
    code = main(["evaluate", str(FLEETS / "rays-4.json"), "--horizon", "4000",
                 "--window", "1", "2", *flags])
    assert code == EXIT_CONFIG
    epsilon = flags[-1] if flags else "4"
    assert capsys.readouterr().err == (
        f"error: epsilon {epsilon}{given} exceeds the window's upper end 2, so no line "
        "of the window is measured\n")


@pytest.mark.parametrize("key,value", [
    ("theta_steps", "abc"),
    ("t_steps", None),
    ("window", 5),
    ("t_start", "x"),
    ("theta_steps", 7.9),  # used to be truncated to 7
    # float() would overflow on these four
    *(pytest.param(key, value, id=f"{key}-huge") for key, value in [
        ("horizon", 10 ** 400), ("epsilon", 10 ** 400), ("t_start", 10 ** 400),
        ("window", [1, 10 ** 400])]),
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


def test_config_top_level_must_be_an_object(tmp_path, capsys):
    p = tmp_path / "f.json"
    p.write_text("[]")
    assert main(["evaluate", str(p), "--horizon", "5"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: config {p}: top level must be an object\n"


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


@pytest.mark.parametrize("robot,message", [
    ({"kind": "ray", "angle": "1"}, "robots[0]: angle must be a number, got '1'"),
    ({"kind": "ray", "angle": True}, "robots[0]: angle must be a number, got True"),
    ({"kind": "log_spiral", "growth": "0.5"}, "robots[0]: growth must be a number"),
    ({"kind": "log_spiral", "growth": 0.5, "start_phase": False},
     "robots[0]: start_phase must be a number, got False"),
    ({"kind": "polyline", "vertices": [[0, 0], [True, 1]]},
     "robots[0]: vertices[1] must be a pair of numbers, got [True, 1]"),
    ({"kind": "polyline", "vertices": [[0, 0], ["1", 1]]},
     "robots[0]: vertices[1] must be a pair of numbers"),
    ({"kind": "antipodal_of", "inner": {"kind": "ray", "angle": "1"}},
     "robots[0].inner: angle must be a number"),
    ({"kind": "ray", "angle": 10 ** 400}, "robots[0]: int too large to convert to float"),
], ids=["ray-string", "ray-bool", "spiral-growth", "spiral-phase", "vertex-bool",
        "vertex-string", "inner", "huge-int"])
def test_robot_fields_must_be_json_numbers(tmp_path, capsys, robot, message):
    # the evaluation block's test: float() would take "1" and true as 1.0
    cfg = write_config(tmp_path / "f.json", [robot])
    assert main(["certify", cfg, "--d", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,module,name", [
    (["evaluate", str(FLEETS / "rays-4.json"), "--theta-steps", "100000000000"],
     evaluator, "evaluate_cr"),
    (["lemmas"], certifier, "lemma_suite"),
], ids=["evaluate", "lemmas"])
def test_memory_errors_exit_without_traceback(monkeypatch, capsys, argv, module, name):
    # a grid too large to allocate: the library raises as numpy would,
    # without allocating anything here
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.82 TiB for an array")

    monkeypatch.setattr(module, name, out_of_memory)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 5.82 TiB for an array\n"


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
    # json.load reads Infinity
    ('{"kind": "polyline", "vertices": [[0, 0], [Infinity, 1]]}',
     "robots[1]: polyline vertices must be finite"),
], ids=["spiral-nan-phase", "ray-nan", "ray-overflow", "polyline-infinity"])
def test_config_rejects_non_finite_bearings(tmp_path, capsys, command, robot, message):
    # a NaN phase used to certify "unbounded CR" with exit 0, a NaN ray was
    # dropped by certify and left evaluate uncovered, 1e400 hit a math error
    p = tmp_path / "f.json"
    p.write_text('{"version": 1, "evaluation": {"horizon": 10}, "robots": '
                 f'[{{"kind": "ray", "angle": 0.0}}, {robot}]}}')
    assert main([command[0], str(p), *command[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: config {p}: {message}\n"


@pytest.mark.parametrize("command", [["evaluate", "--horizon", "5"],
                                     ["certify", "--d", "1"]])
@pytest.mark.parametrize("block", ["[]", "0", "false", '""', "null"])
def test_config_rejects_non_object_evaluation(tmp_path, capsys, command, block):
    # only a missing key means no block; each of these used to pass as one
    p = tmp_path / "f.json"
    p.write_text('{"version": 1, "robots": [{"kind": "ray", "angle": 0.0}], '
                 f'"evaluation": {block}}}')
    assert main([command[0], str(p), *command[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: config {p}: evaluation must be an object\n"


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


def test_certify_degenerate_prints_notice(tmp_path, capsys):
    cfg = write_config(tmp_path / "f.json", [
        {"kind": "polyline", "vertices": [[0.0, 0.0], [0.0, 0.0], [1e-15, 0.0]]},
    ])
    assert main(["certify", cfg, "--d", "1.0"]) == EXIT_OK
    assert "degenerate" in capsys.readouterr().out


def test_certify_rejects_nonpositive_d(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 4)
    assert main(["certify", cfg, "--d", "0.0"]) == EXIT_CONFIG


def test_certify_rejects_a_subnormal_d(capsys):
    # d = 1e-320 once placed the witness inside a robot's reach
    assert main(["certify", str(FLEETS / "rays-4.json"), "--d", "1e-320"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("error: snapshot time d 1e-320 is below the least normal "
                            "float 2.2250738585072014e-308\n")
    assert captured.out == ""


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
    code = main(["lemmas"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_lemmas_single_suite_with_report(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = main(["lemmas", "--suite", "cone-exit", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lemma_suite/v1"
    assert doc["all_passed"] is True
    assert len(doc["results"]) == 1
    assert doc["results"][0]["suite"] == "cone-exit"


def test_lemmas_negative_controls(capsys):
    code = main(["lemmas", "--suite", "omb", "--negative-control"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "omb-negative-control" in out
    assert "discriminant-zeta-zero" in out


def test_lemma_violation_exits_3(tmp_path, monkeypatch, capsys):
    # past a quarter turn the reflection inequality fails, as its control does
    monkeypatch.setattr(certifier, "OMB_PHIS", (math.pi / 8, 0.3 * math.pi))
    out = tmp_path / "lemmas.json"
    assert main(["lemmas", "--out", str(out)]) == EXIT_LEMMA
    captured = capsys.readouterr()
    assert "FAIL omb" in captured.out
    assert captured.err == "lemma violation in: omb\n"
    assert json.loads(out.read_text())["all_passed"] is False


# ---------------------------------------------------------------- optimize


def test_optimize_quick(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--n", "2", "--bracket", "0.6", "0.7", "--out", str(out)])
    assert code == EXIT_OK
    assert "b=0.6" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "optimize_result/v2"
    assert doc["value"] == pytest.approx(5.2644, abs=5e-3)
    assert doc["n"] == 2
    # b* and the next float up, where the slope of log CR turns
    lo, hi = doc["bracket"]
    assert doc["parameter"] == lo and hi == math.nextafter(lo, math.inf)
    assert doc["slopes"][0] < 0.0 <= doc["slopes"][1]


def test_optimize_without_a_finite_cr_is_non_convergence(tmp_path, capsys):
    # every steady-state CR of one spiral in this bracket overflows, and the
    # slope of log CR is positive at both ends
    out = tmp_path / "opt.json"
    code = main(["optimize", "--n", "1", "--bracket", "400", "500", "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: d log CR/db is 3.14")
    assert "not a sign change" in err and "Traceback" not in err
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["value"] is None


def test_optimize_finds_the_optimum_in_a_bracket_to_1e300(capsys):
    # a pre-scan's log step of 4e9 once left no finite CR to refine
    assert main(["optimize", "--n", "1", "--bracket", "0.05", "1e300"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("b=0.212470 cr=13.811135 ")


def test_optimize_from_a_tiny_growth_rate_finds_the_pair_optimum(tmp_path, capsys):
    # at b = 1.76e-24 the phase search once took 10.7M root tests; the
    # secant and bisection steps then reach the default bracket's optimum
    docs = []
    for name, bracket in (("default", DEFAULT_BRACKET), ("tiny", (1.7575106248547967e-24, 2))):
        out = tmp_path / f"{name}.json"
        argv = ["optimize", "--n", "2", "--bracket", *map(str, bracket), "--out", str(out)]
        assert main(argv) == EXIT_OK
        docs.append(json.loads(out.read_text()))
    assert capsys.readouterr().out.splitlines()[1].startswith("b=0.646464 cr=5.264429 ")
    default, tiny = docs
    assert (tiny["parameter"], tiny["value"]) == (default["parameter"], default["value"])
    assert tiny["evaluations"] == 55


@pytest.mark.parametrize("argv,message", [
    (["--n", "1", "--bracket", "1", "inf"], "error: bracket must be finite"),
    (["--n", "2", "--bracket", "0.05", "1e300"], "error: growth rate 1e+300 too steep"),
], ids=["inf", "steep-pair"])
def test_optimize_bracket_ends_it_cannot_use_exit_1(capsys, argv, message):
    assert main(["optimize", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


def test_optimize_rejects_n3(capsys):
    assert main(["optimize", "--n", "3"]) == EXIT_CONFIG
    assert "unsupported" in capsys.readouterr().err


def test_optimize_requires_n(capsys):
    assert main(["optimize"]) == EXIT_CONFIG


# Flags the commands no longer take: --grid went with the omb scan,
# --samples and --seed with the random ellipse check, --tol and --prescan with the
# golden-section search; --r0 was never an optimize flag.
GONE_FLAGS = ("--grid", "--samples", "--seed", "--tol", "--prescan", "--r0")


@pytest.mark.parametrize("argv", [
    ["lemmas", "--grid", "1"],
    ["lemmas", "--samples", "-5"],
    ["lemmas", "--samples", "0"],
    ["lemmas", "--seed", "1"],
    ["optimize", "--n", "1", "--tol", "-1"],
    ["optimize", "--n", "1", "--bracket", "0.5", "0.1"],
    ["optimize", "--n", "1", "--prescan", "2"],
    ["optimize", "--n", "1", "--r0", "-1"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_arguments_exit_without_traceback(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if argv[-2] in GONE_FLAGS:  # the error names the unknown flag
        assert err == f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n"


@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
@pytest.mark.parametrize("command", ["evaluate", "certify", "lemmas", "optimize",
                                     "plot"])
def test_unwritable_out_exits_without_traceback(tmp_path, capsys, command, target):
    cfg = ray_config(tmp_path / "rays.json", 4, horizon=10.0, theta_steps=16)
    argv = {
        "evaluate": ["evaluate", cfg],
        "certify": ["certify", cfg, "--d", "1"],
        "lemmas": ["lemmas", "--suite", "cone-exit"],
        "optimize": ["optimize", "--n", "1"],
        "plot": ["plot", str(certificate_file(tmp_path))],
    }[command]
    out = tmp_path / "no" / "such" / "x.json" if target == "missing-dir" else tmp_path
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
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
    assert svg.count("<path") == 2  # one reachable ellipse per robot


def test_plot_unknown_schema(tmp_path, capsys):
    p = tmp_path / "weird.json"
    p.write_text(json.dumps({"schema": "mystery/v9"}))
    assert main(["plot", str(p)]) == EXIT_CONFIG
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    (json.dumps([1, 2]), "top level must be an object"),
    (json.dumps({"schema": "cr_report/v1"}), "lacks the field 'witness'"),
    ('{"schema": ', "is not valid JSON"),
    (json.dumps({"schema": "cr_report/v1", "witness": [0.5, 2.0]}), "is malformed"),
    (json.dumps({"schema": "cone_certificate/v1", "snapshot_time": 1.0, "n": 3,
                 "degenerate": False, "bound": 1.7, "robot_positions": [],
                 "cone": {"bisector": 0.0, "half_angle": 5.0},
                 "witness_line": {"theta": 0.0, "delta": 0.6}}),
     "half_angle must lie in (0, pi]"),
], ids=["not-an-object", "missing-field", "not-json", "witness-list", "cone-half-angle"])
def test_plot_malformed_report(tmp_path, capsys, text, message):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["plot", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_plot_never_writes_over_its_report(tmp_path, capsys):
    # the default output swaps the suffix for .svg, which is the report's own
    # path when the report is already called *.svg
    rep = certificate_file(tmp_path).rename(tmp_path / "cert.svg")
    before = rep.read_bytes()
    capsys.readouterr()
    for argv in (["plot", str(rep)], ["plot", str(rep), "--out", str(rep)]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "would overwrite the report" in err
        assert rep.read_bytes() == before


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
    return run_and_parse(runs)


def run_and_parse(runs) -> bytes:
    """Run each (argv, out) and join the outputs, after checking that every
    picture parses as XML and no attribute holds a nan or an infinity."""
    for argv, out in runs:
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        if out.suffix == ".svg":
            for element in ET.fromstring(out.read_text()).iter():
                for value in element.attrib.values():
                    assert "nan" not in value and "inf" not in value, (out.name, value)
    return b"".join(out.read_bytes() for _, out in runs)


# sha256 of parity_outputs for every shipped config: certificates at three
# snapshot times, each drawn at the default view and at --size 200
# --world-radius 3, plus a report (in closed form; --theta-steps 72 is only
# echoed) and its picture for each ray fleet.  Any change to a certificate or
# a picture, down to the last digit printed, changes its digest; the values
# depend on the platform's libm.
PARITY_DIGESTS = {
    "all-at-origin": "06d7af2fcd44e068675b78caa950b385d37c7646bb7a22ff5d9d28dd4d5572c3",
    "double-spiral-2": "b88d1bf70f26fdfe73c9f01f1f5c30e39244ad8ef669afff869195deca62a599",
    "rays-10": "4a83b998d340a1ee9d6dcec6de88677622a23a6f7ebc00fa1cd9cf4185ced587",
    "rays-11": "77b59cd9481576941f7b07f9925368537e4a78807c86126ed7968d56d8f2a11a",
    "rays-12": "998d0210fe48b86525842bb18a487b964e8937fb1ebd9f1e7802b5ec10d64f2b",
    "rays-3": "54c7fec2e7008692f95cbbae93cc94c72217f59105116efec0c3865537b63dee",
    "rays-4": "35004b1872a7c16f3fdac5bcfaba00b2b361acaa86bc635f2abd6347e08990b2",
    "rays-5": "9d0be37ae2886f6a111ce2cebd258689068265423d03fdbcbc469513c11b822a",
    "rays-6": "2c26418dee00ad4745e5a0c3fb67d7faa8ced8d0c8b2c39f7c7593997d1847a9",
    "rays-7": "32518a287fabce4962f95ec44268d7a124e6056b018d487a91be5505a550f41e",
    "rays-8": "8b6bc56ca4597fa21f4988bc4029ffae64f44717fc8a71ccc1d8040ac5305a4d",
    "rays-9": "1a824286748f6af9beb36e833d61eadd447ecfafb2ce08a24a69f3de5d55e2c8",
    "single-ray": "d2633bca951de7ab24d4b358969d92e157c4311abd4abad6cddf3a082b06d2a6",
    "spiral-1": "c710c469e40bb566629dcdb1f483c7ccf3b30589a57f0d52df7e3d67ecb5de53",
}


@pytest.mark.parametrize("stem", sorted(PARITY_DIGESTS))
def test_certificates_and_pictures_are_pinned(tmp_path, capsys, stem):
    digest = hashlib.sha256(parity_outputs(stem, tmp_path)).hexdigest()
    assert digest == PARITY_DIGESTS[stem]


# A diamond loop plus the antipode of a random-looking walk: every direction
# is covered, and both robots draw 512-sample polylines with corners.
POLYLINE_PICTURE_ROBOTS = [
    {"kind": "polyline",
     "vertices": [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]]},
    {"kind": "antipodal_of", "inner": {"kind": "polyline",
                                       "vertices": [[0, 0], [0.7, -0.3], [1.9, 1.1],
                                                    [-0.4, 2.6]]}},
]


def trajectory_picture_outputs(config: str, work: Path) -> bytes:
    """A report on `config` and its picture at both views parity_outputs uses."""
    rep = work / "report.json"
    runs = [(["evaluate", config], rep),
            (["plot", str(rep)], rep.with_suffix(".svg")),
            (["plot", str(rep), "--size", "200", "--world-radius", "3"],
             work / "report.small.svg")]
    return run_and_parse(runs)


# sha256 of trajectory_picture_outputs: the 512-sample trajectory outlines
# that plot draws for spiral and polyline reports, which PARITY_DIGESTS (ray
# reports only) leaves unpinned.  The values depend on the platform's libm.
TRAJECTORY_PICTURE_DIGESTS = {
    "spiral-1": "a1268d370940800051d521d7d2e9c068acb2778629bca9dd53924c04db43d663",
    "double-spiral-2": "40b523f44751e604562da94cfa470825c7eda62dbceeb5354d47886ae372cb1d",
    "polyline": "ae0af7963fd1a07af4b8684071466f7ad2bce1ac86859cebf08e4a960f04b160",
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_PICTURE_DIGESTS))
def test_trajectory_pictures_are_pinned(tmp_path, capsys, name):
    if name == "polyline":
        config = write_config(tmp_path / "polyline.json", POLYLINE_PICTURE_ROBOTS,
                              {"horizon": 12.0, "theta_steps": 24})
    else:
        config = str(FLEETS / f"{name}.json")
    digest = hashlib.sha256(trajectory_picture_outputs(config, tmp_path)).hexdigest()
    assert digest == TRAJECTORY_PICTURE_DIGESTS[name]


# sha256 of certificates of polyline fleets, which PARITY_DIGESTS (rays and
# spirals) leaves unpinned: the picture fleet above, then with a ray and
# then a walk that repeats a vertex added, so that n <= 2, n = 3 and n >= 4
# all build one, each at snapshot times inside a segment, on a vertex (t = 1)
# and past the end of every path.  The values depend on the platform's libm.
POLYLINE_CERTIFICATE_DIGEST = "2584c6279b8db245618f3fc4bf51a6950972c55fddd533823ecb6caff809582e"


def test_polyline_certificates_are_pinned(tmp_path, capsys):
    extra = [{"kind": "ray", "angle": 2.0},
             {"kind": "polyline", "vertices": [[0, 0], [2, 1], [2, 1], [-1, 3]]}]
    out, certificates = tmp_path / "cert.json", []
    for n in (2, 3, 4):
        config = write_config(tmp_path / f"fleet-{n}.json",
                              POLYLINE_PICTURE_ROBOTS + extra[:n - 2])
        for d in ("0.3", "1", "2.5", "40"):
            assert main(["certify", config, "--d", d, "--out", str(out)]) == EXIT_OK
            certificates.append(out.read_bytes())
    digest = hashlib.sha256(b"".join(certificates)).hexdigest()
    assert digest == POLYLINE_CERTIFICATE_DIGEST


# ----------------------------------------------------------- shared parser


def test_main_builds_its_parser_once(tmp_path, capsys):
    cfg = ray_config(tmp_path / "f.json", 3)
    certify = ["certify", cfg, "--d", "1", "--out"]
    build_parser.cache_clear()
    assert main([*certify, str(tmp_path / "fresh.json")]) == EXIT_OK
    fresh = (tmp_path / "fresh.json").read_bytes()

    build_parser.cache_clear()
    assert main(["frobnicate"]) == EXIT_CONFIG  # usage error
    assert main(["certify", str(tmp_path / "missing.json"), "--d", "1"]) == EXIT_CONFIG
    assert main([*certify, str(tmp_path / "shared.json")]) == EXIT_OK
    assert build_parser.cache_info().misses == 1
    assert (tmp_path / "shared.json").read_bytes() == fresh


def test_bracket_default_is_an_immutable_tuple():
    # the parser is shared, so a mutable default would be shared by every call
    first = build_parser().parse_args(["optimize", "--n", "1"]).bracket
    second = build_parser().parse_args(["optimize", "--n", "2"]).bracket
    assert first == second == DEFAULT_BRACKET
    assert isinstance(first, tuple)


# -------------------------------------------------------------- exit codes


def test_exit_codes_are_distinct():
    codes = [EXIT_OK, EXIT_CONFIG, EXIT_UNCOVERED, EXIT_LEMMA,
             EXIT_NO_CONVERGENCE]
    assert codes == [0, 1, 2, 3, 4]
