"""Repository-level guards: module layering, the shipped fleet configs and
the spiral reproduction script."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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


# Bindings the benchmark's tracer still names although the program dropped
# them on purpose: the optimizer no longer calls evaluate_cr.  The tracer
# lives with the benchmark and changes only with it.
STALE_TRACER_BINDINGS = {("optimizer", "evaluate_cr")}


def test_tracer_bindings_exist():
    # perfbench/tracer.py wraps program functions by name and silently skips
    # any that has gone, which would zero its per-layer metrics unnoticed
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {name: importlib.import_module(f"shoreline.{name}")
               for name in ("cli", "evaluator", "optimizer", "certifier", "report")}
    missing = {(mod.__name__.split(".")[-1], attr)
               for mod, attr, *_ in tracer.Tracer(modules)._targets()
               if not callable(getattr(mod, attr, None))}
    assert missing == STALE_TRACER_BINDINGS


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
