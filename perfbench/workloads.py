"""The four benchmark workloads and the correctness gate every command passes.

A workload is one pass of CLI commands, built once per run from the seed and
the shipped ``fleets/``; a run repeats the same pass.  The program only ever
sees the generated config files and the command lines below.

Each command is gated: exit code 0, a report that parses and carries
the right schema kind, and the value checks of its workload.  A command that
fails a gate is counted, never raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Evaluation grid of rays-grid: the evaluator's default, pinned here so the
# measured work stays fixed if the default moves.
RAYS_THETA_STEPS = 720
RAYS_T_STEPS = 4096
RAY_TOL = 1e-3

# Closed-form optima of the steady-state spiral CR; both were confirmed by
# raising the evaluator's asym_margin until the numeric CR settled.
SPIRAL_REF = {1: 13.811135, 2: 5.264429}
SPIRAL_WINDOW = {1: (13.76, 13.86), 2: (5.21, 5.32)}

MARGIN_TOL = -1e-6
SNAPSHOTS_PER_FLEET = 3
SNAPSHOT_RANGE = (0.2, 2.0)
POLYLINE_SIZES = (2, 3, 4, 5, 6)
POLYLINES_PER_SIZE = 4


def ray_cr(n: int) -> float:
    """Competitive ratio of n evenly spread rays."""
    return 1.0 / math.cos(math.pi / n)


def certificate_limit(n: int) -> float:
    """The paper's snapshot lower bound for any n-robot fleet."""
    if n <= 2:
        return 3.0
    if n == 3:
        return math.sqrt(3.0)
    return ray_cr(n)


class Tally:
    """Per-run record of gate outcomes and accuracy samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.abs_err: list[float] = []
        self.margin: list[float] = []
        self.measured: dict[str, float] = {}

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            key = f"{label}: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


Check = Callable[[dict, Tally], "str | None"]


@dataclass
class Command:
    label: str
    argv: list[str]
    kind: str  # report schema kind ("cr_report", ...) or "svg"
    out: Path
    check: Check | None = None


@dataclass
class Workload:
    name: str
    configs: list[Path]  # loaded by the set-up measurement
    commands: list[Command] = field(default_factory=list)


def gate(cmd: Command, rc, tally: Tally) -> str | None:
    """Why the finished command is wrong, or None when it passed."""
    if rc != 0:
        return f"exit {rc}"
    try:
        text = cmd.out.read_text()
    except OSError:
        return "no output file"
    if cmd.kind == "svg":
        return None if text.startswith("<svg") else "output is not SVG"
    try:
        doc = json.loads(text)
    except ValueError:
        return "report does not parse"
    # The version suffix may move; the report kind may not.
    if not str(doc.get("schema", "")).startswith(cmd.kind + "/"):
        return f"schema {doc.get('schema')!r}, expected {cmd.kind}/*"
    return cmd.check(doc, tally) if cmd.check else None


def _write_config(path: Path, robots: list[dict], evaluation: dict) -> Path:
    path.write_text(json.dumps({"version": 1, "robots": robots,
                                "evaluation": evaluation}, indent=1))
    return path


def _snapshot_times(rng: np.random.Generator) -> list[str]:
    return [repr(float(d)) for d in rng.uniform(*SNAPSHOT_RANGE, SNAPSHOTS_PER_FLEET)]


def _check_certificate(measured_key: str | None, reference: float | None) -> Check:
    """Soundness against the fleet's CR, and distance to the paper's bound.

    The CR is the one measured earlier in the pass under ``measured_key``,
    else the known ``reference``; a fleet with neither (it never covers the
    plane) gets no soundness check.  A degenerate certificate is accepted
    only for a fleet that never left the origin.
    """

    def check(doc: dict, tally: Tally) -> str | None:
        at_origin = all(math.hypot(*p) == 0.0 for p in doc["robot_positions"])
        if doc["degenerate"] or at_origin:
            return None if doc["degenerate"] and at_origin else "wrong degeneracy"
        bound = float(doc["bound"])
        tally.abs_err.append(abs(bound - certificate_limit(int(doc["n"]))))
        if measured_key is not None:
            if measured_key not in tally.measured:
                return "no measured CR to compare with"
            cr = tally.measured[measured_key]
        elif reference is None:
            return None
        else:
            cr = reference
        margin = cr - bound
        tally.margin.append(margin)
        return None if margin >= MARGIN_TOL else f"bound above CR by {-margin:.3g}"

    return check


def _check_rays(n: int, gated: bool) -> Check:
    def check(doc: dict, tally: Tally) -> str | None:
        err = abs(float(doc["cr_estimate"]) - ray_cr(n))
        tally.abs_err.append(err)
        if gated and err > RAY_TOL:
            return f"CR off 1/cos(pi/{n}) by {err:.3g}"
        return None

    return check


def _check_spiral(n: int, field_name: str) -> Check:
    def check(doc: dict, tally: Tally) -> str | None:
        value = float(doc[field_name])
        tally.abs_err.append(abs(value - SPIRAL_REF[n]))
        lo, hi = SPIRAL_WINDOW[n]
        return None if lo <= value <= hi else f"CR {value:.6f} outside [{lo}, {hi}]"

    return check


def _record_cr(key: str) -> Check:
    def check(doc: dict, tally: Tally) -> str | None:
        tally.measured[key] = float(doc["cr_estimate"])
        return None

    return check


def rays_grid(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """Shipped rays-3..12 plus one rotated copy each.

    The rotation is a seed-drawn whole number of theta-grid steps plus half a
    step: the worst lines then sit midway between grid directions, so the
    copies show the grid's worst-case error on every seed instead of an
    amount that depends on where the seed happens to land.
    """
    wl = Workload("rays-grid", [])
    step = 2.0 * math.pi / RAYS_THETA_STEPS
    grid = ["--theta-steps", str(RAYS_THETA_STEPS), "--t-steps", str(RAYS_T_STEPS)]
    for n in range(3, 13):
        shipped = root / "fleets" / f"rays-{n}.json"
        doc = json.loads(shipped.read_text())
        rot = (int(rng.integers(RAYS_THETA_STEPS)) + 0.5) * step
        robots = [{"kind": "ray", "angle": math.fmod(r["angle"] + rot, 2.0 * math.pi)}
                  for r in doc["robots"]]
        rotated = _write_config(work / f"rays-{n}-rotated.json", robots,
                                doc["evaluation"])
        wl.configs += [shipped, rotated]
        for cfg, tag, gated in ((shipped, "", True), (rotated, " rotated", False)):
            out = work / f"{cfg.stem}.report.json"
            wl.commands.append(Command(
                f"evaluate rays-{n}{tag}",
                ["evaluate", str(cfg), *grid, "--out", str(out)],
                "cr_report", out, _check_rays(n, gated)))
    return wl


def spiral_tune(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """Both spiral optimizations and the shipped tuned spirals (seed-free)."""
    spiral1 = root / "fleets" / "spiral-1.json"
    spiral2 = root / "fleets" / "double-spiral-2.json"
    wl = Workload("spiral-tune", [spiral1, spiral2])
    for n, cfg in ((1, spiral1), (2, spiral2)):
        out = work / f"{cfg.stem}.report.json"
        wl.commands.append(Command(
            f"evaluate {cfg.stem}", ["evaluate", str(cfg), "--out", str(out)],
            "cr_report", out, _check_spiral(n, "cr_estimate")))
    for n in (1, 2):
        out = work / f"optimize-{n}.json"
        wl.commands.append(Command(
            f"optimize n={n}", ["optimize", "--n", str(n), "--out", str(out)],
            "optimize_result", out, _check_spiral(n, "value")))
    return wl


def random_polyline_robots(rng: np.random.Generator, n: int) -> list[dict]:
    """A diamond-circuit anchor, which guarantees coverage, plus random walks."""
    s = float(rng.uniform(0.5, 1.5))
    rot = float(rng.uniform(0.0, 2.0 * math.pi))
    c, si = math.cos(rot), math.sin(rot)
    diamond = [(0.0, 0.0), (s, 0.0), (0.0, s), (-s, 0.0), (0.0, -s), (s, 0.0)]
    robots = [[[c * x - si * y, si * x + c * y] for x, y in diamond]]
    for _ in range(n - 1):
        steps = int(rng.integers(3, 8))
        walk = np.cumsum(rng.uniform(-0.8, 0.8, (steps, 2)), axis=0)
        robots.append([[0.0, 0.0]] + walk.tolist())
    return [{"kind": "polyline", "vertices": v} for v in robots]


def polyline_certify(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """Random polyline fleets: evaluate on a small grid, certify 3 snapshots.

    Every fleet size appears equally often, in seed-drawn order, so the work
    in a pass does not swing with how many robots the seed happens to draw.
    """
    wl = Workload("polyline-certify", [])
    sizes = list(POLYLINE_SIZES) * POLYLINES_PER_SIZE
    rng.shuffle(sizes)
    for i, n in enumerate(sizes):
        key = f"polyline-{i:02d}"
        cfg = _write_config(work / f"{key}.json", random_polyline_robots(rng, n),
                            {"horizon": 16.0, "theta_steps": 180, "t_steps": 1024})
        wl.configs.append(cfg)
        out = work / f"{key}.report.json"
        wl.commands.append(Command(
            f"evaluate polyline n={n}", ["evaluate", str(cfg), "--out", str(out)],
            "cr_report", out, _record_cr(key)))
        for j, d in enumerate(_snapshot_times(rng)):
            out = work / f"{key}.cert{j}.json"
            wl.commands.append(Command(
                f"certify polyline n={n}",
                ["certify", str(cfg), "--d", d, "--out", str(out)],
                "cone_certificate", out, _check_certificate(key, None)))
    return wl


def _shipped_cr(stem: str) -> float | None:
    """Known CR of a shipped config, or None where it has none."""
    if stem.startswith("rays-"):
        return ray_cr(int(stem.split("-")[1]))
    return {"spiral-1": SPIRAL_REF[1], "double-spiral-2": SPIRAL_REF[2]}.get(stem)


def certify_lemmas(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """Lemma sweeps, then certify every shipped config and plot each certificate."""
    configs = sorted((root / "fleets").glob("*.json"))
    wl = Workload("certify-lemmas", configs)
    out = work / "lemmas.json"

    def all_passed(doc: dict, tally: Tally) -> str | None:
        return None if doc.get("all_passed") is True else "a lemma sweep failed"

    wl.commands.append(Command("lemmas", ["lemmas", "--negative-control",
                                          "--out", str(out)],
                               "lemma_suite", out, all_passed))
    plots = []
    for cfg in configs:
        for j, d in enumerate(_snapshot_times(rng)):
            out = work / f"{cfg.stem}.cert{j}.json"
            wl.commands.append(Command(
                f"certify {cfg.stem}", ["certify", str(cfg), "--d", d, "--out", str(out)],
                "cone_certificate", out,
                _check_certificate(None, _shipped_cr(cfg.stem))))
            svg = out.with_suffix(".svg")
            plots.append(Command(f"plot {cfg.stem}",
                                 ["plot", str(out), "--out", str(svg)], "svg", svg))
    wl.commands += plots
    return wl


BUILDERS = {
    "rays-grid": rays_grid,
    "spiral-tune": spiral_tune,
    "polyline-certify": polyline_certify,
    "certify-lemmas": certify_lemmas,
}


def build(name: str, root: Path, work: Path, seed: int) -> Workload:
    return BUILDERS[name](root, work, np.random.default_rng(seed))
