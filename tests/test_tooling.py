"""Repository-level guards: module layering, the shipped fleet configs, the
spiral reproduction script and the cost of importing the CLI."""

import argparse
import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from shoreline import cli, evaluator
from shoreline.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shoreline"

# Dependencies flow one way, from low layers to high; modules on one layer
# do not import each other.
LAYERS = {
    "geometry": 0,
    "trajectory": 1,
    "evaluator": 2,
    "certifier": 2,
    "optimizer": 3,
    "report": 4,
    "cli": 5,
}


def package_imports(path: Path) -> set[str]:
    """Sibling modules a source file imports, relatively or by full name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("shoreline"):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            parts = parts[1:]  # drop the package name
        if parts and parts[0]:
            found.add(parts[0])
        else:  # from . import a, b
            found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_follow_the_layers():
    wrong = []
    for name, layer in LAYERS.items():
        for dep in sorted(package_imports(PACKAGE / f"{name}.py")):
            if LAYERS[dep] >= layer:
                wrong.append(f"{name} (layer {layer}) imports {dep} (layer {LAYERS[dep]})")
    assert not wrong, wrong


def public_names(path: Path) -> set[str]:
    """Functions, classes and constants a module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def referenced_names(path: Path) -> set[str]:
    """Names a file reads, imports or spells as a "module.name" string, the
    way the benchmark's tracer looks functions up."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rsplit(".", 1)[-1])
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    # code that only the tests reach belongs in tests/reference.py
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used |= referenced_names(path)
    unused = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                    for name in public_names(path) - used)
    assert not unused, unused


def test_make_fleets_reproduces_the_shipped_configs(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_fleets", ROOT / "scripts" / "make_fleets.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path
    script.main()
    made = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    shipped = {p.name: p.read_bytes() for p in (ROOT / "fleets").glob("*.json")}
    assert sorted(made) == sorted(shipped)
    for name, data in made.items():
        assert data == shipped[name], name


def test_reproduce_spiral_bounds_finds_both_optima(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_spiral_bounds.py"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for n, (lo, hi) in ((1, (13.76, 13.86)), (2, (5.21, 5.32))):
        doc = json.loads((tmp_path / f"spiral-{n}-optimum.json").read_text())
        assert doc["n"] == n and doc["converged"]
        assert lo <= doc["value"] <= hi
    # both shipped spiral configs, evaluated, agree with the closed form
    gaps = {line.split(":")[0]: float(line.rsplit(" gap ", 1)[1])
            for line in proc.stdout.splitlines() if " gap " in line}
    assert set(gaps) == {"spiral-1", "double-spiral-2"}
    assert all(abs(gap) <= 1e-12 for gap in gaps.values()), gaps


def test_readme_names_only_flags_the_cli_has():
    # README's CLI paragraph lists every command's flags; a flag deleted
    # from the parser must not linger there
    text = (ROOT / "README.md").read_text()
    start = text.index("`evaluate` accepts")
    named = set(re.findall(r"--[a-z][a-z-]*", text[start:text.index("\n\n", start)]))
    known = {flag for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)
             for command in action.choices.values()
             for option in command._actions for flag in option.option_strings}
    assert {"--horizon", "--d", "--suite", "--bracket"} <= named
    assert named <= known, sorted(named - known)


def test_evaluate_flags_are_the_evaluation_keys():
    # cmd_evaluate hands the config's evaluation block, overridden by the
    # flags given, to evaluate_cr as keywords: a key it does not take would
    # be a TypeError and a traceback, not an exit code
    evaluate = next(action.choices["evaluate"] for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in evaluate._actions} - {"help", "config", "out"}
    assert dests == set(cli.EVALUATION_VALUES)
    assert set(cli.EVALUATION_VALUES) <= set(inspect.signature(evaluator.evaluate_cr).parameters)


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main call, so importing costs nothing
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import shoreline.cli as cli; print(cli.build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# Bindings the benchmark's tracer still names although the program dropped
# them on purpose: the optimizer no longer calls evaluate_cr, and the
# certifier reads one instant through position, not positions.  The tracer
# lives with the benchmark and changes only with it.
STALE_TRACER_BINDINGS = {
    ("optimizer", "evaluate_cr"), ("certifier", "positions"),
    # closed forms replaced the omb scan and the discriminant grid
    ("certifier", "omb_oracle"), ("certifier", "discriminant_sweep"),
}


def _tracer():
    """A Tracer from the benchmark's own tracer.py over the program's modules."""
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {name: importlib.import_module(f"shoreline.{name}")
               for name in ("cli", "evaluator", "optimizer", "certifier", "report")}
    return tracer.Tracer(modules)


def test_tracer_bindings_exist():
    # perfbench/tracer.py wraps program functions by name and silently skips
    # any that has gone, which would zero its per-layer metrics unnoticed
    missing = {(mod.__name__.split(".")[-1], attr)
               for mod, attr, *_ in _tracer()._targets()
               if not callable(getattr(mod, attr, None))}
    assert missing == STALE_TRACER_BINDINGS


def test_traced_commands_feed_the_counters(tmp_path, capsys):
    # the tracer's hooks read evaluate_cr's theta_steps, t_steps, horizon and
    # t_start and positions' ts by name: a renamed argument fails only traced
    # runs, with a KeyError
    fleets = ROOT / "fleets"
    tracer = _tracer()
    tracer.start_pass()
    with tracer.installed():
        for argv in (["evaluate", str(fleets / "rays-5.json"), "--theta-steps", "24"],
                     ["evaluate", str(fleets / "spiral-1.json"), "--t-steps", "2000"],
                     ["certify", str(fleets / "rays-5.json"), "--d", "1"],
                     ["lemmas", "--suite", "omb"],
                     ["optimize", "--n", "1"]):
            tracer.begin_op()
            assert tracer.modules["cli"].main([*argv, "--out", str(tmp_path / "out")]) == 0
    metrics = tracer.pass_metrics(tracer.spans)
    for name in ("evaluator.directions", "trajectory.positions.points",
                 "optimizer.objective_evals"):
        assert metrics[name] > 0, name


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # pyproject.toml turns warnings into errors; a warning the hypothesis
    # plugin raises while reporting a failure must not become an INTERNALERROR
    # that hides the example and stops the session
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
