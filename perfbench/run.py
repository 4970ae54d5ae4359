"""Benchmark of the shoreline package: one workload per run, single-process closed loop.

    python3 perfbench/run.py --workload rays-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The workload's commands go one at a time through
``shoreline.cli.main``, each gated for correctness, and the pass repeats a
number of times set by the workload and ``--seconds``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run (see ``perfbench/README.md``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("rays-grid", "spiral-tune", "polyline-certify", "certify-lemmas")

# Seconds per untraced pass of each workload on the reference machine (see
# baseline.json).  A run's pass count follows from these and --seconds alone,
# never from the program's speed: the samples behind every percentile keep
# the same size and mix of commands as the program gets faster or slower.
REFERENCE_PASS_S = {"rays-grid": 7.0, "spiral-tune": 9.6, "polyline-certify": 1.6,
                    "certify-lemmas": 0.45}
# No pass after the second starts once the run is expected to pass this many
# seconds, so a much slower program still ends with a result.
RUN_LIMIT_S = 150.0
SETUP_RUNS = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import shoreline.cli
for path in sys.argv[2:]:
    shoreline.cli.load_fleet_config(path)
print(time.perf_counter() - t0)
"""


def pin_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    # The evaluator's thread pool stays at its default (off).
    os.environ.pop("SHORELINE_WORKERS", None)
    return nproc


def digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(nproc: int) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):  # the config layout varies by numpy build
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "git_sha": sha,
        "source_sha256": digest(SRC), "bench_sha256": digest(HERE),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("SHORELINE_WORKERS",)},
    }


class SetupProbe:
    """Fresh-interpreter import of shoreline.cli plus loading the configs.

    Samples are taken between passes, spread over the whole run, so their
    median does not hang on the few seconds before the first pass.
    """

    def __init__(self, configs: list[Path]) -> None:
        self.argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, configs)]
        self.samples: list[float] = []
        self.error: str | None = None
        self._run()  # warms the file cache; not a sample

    def _run(self) -> float | None:
        try:
            done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            self.error = "set-up timed out"
            return None
        if done.returncode != 0:
            self.error = f"set-up exited {done.returncode}: {done.stderr[-200:]}"
            return None
        return float(done.stdout.split()[-1])

    def sample_until(self, count: int) -> None:
        while len(self.samples) < count and self.error is None:
            seconds = self._run()
            if seconds is not None:
                self.samples.append(seconds)


def run_command(cli, cmd, tally, gate) -> float:
    """Run one command through the CLI entry point; returns its latency."""
    cmd.out.unlink(missing_ok=True)
    sink = io.StringIO()
    reason = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            rc = cli.main(cmd.argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crash is one failed operation
            rc, reason = None, f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
    tally.record(cmd.label, reason or gate(cmd, rc, tally))
    return latency


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes in a run: two at least, and two traced plus two untraced when traced."""
    n = max(2, round(seconds / REFERENCE_PASS_S[workload]))
    return max(4, n) if traced else n


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the tail
    is then the largest sample.
    """
    s = sorted(samples)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--detail", help="also write per-command latencies and "
                                    "provenance to this JSON file")
    args = p.parse_args(argv)
    t_start = perf_counter()

    if not (SRC / "shoreline" / "__init__.py").is_file() or not (ROOT / "fleets").is_dir():
        print(f"error: no shoreline source tree (src/shoreline, fleets/) under {ROOT}",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import EXACT_COUNTERS, UNITS, Tracer

    from shoreline import certifier, cli, evaluator, optimizer, report

    if Path(cli.__file__).resolve().parent != SRC / "shoreline":
        print(f"error: imported shoreline from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, ROOT, work, args.seed)
        tally = workloads.Tally()
        prov = provenance(nproc)
        print("provenance " + json.dumps(prov, sort_keys=True))
        probe = None if args.trace else SetupProbe(wl.configs)

        tracer = Tracer({"cli": cli, "evaluator": evaluator, "optimizer": optimizer,
                         "certifier": certifier, "report": report})
        latencies: dict[str, list[float]] = {}
        per_command: list[list[float]] = [[] for _ in wl.commands]
        walls: dict[bool, list[float]] = {False: [], True: []}
        layers: list[dict] = []

        def one_pass(traced: bool) -> None:
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    tracer.start_pass()
                t0 = perf_counter()
                for i, cmd in enumerate(wl.commands):
                    tracer.begin_op()
                    dt = run_command(cli, cmd, tally, workloads.gate)
                    if not traced:
                        latencies.setdefault(cmd.label, []).append(dt)
                        per_command[i].append(dt)
                wall = perf_counter() - t0
            walls[traced].append(wall)
            if traced:
                m = tracer.pass_metrics(tracer.spans)
                m["trace.wall_s"] = wall
                layers.append(m)

        # One untimed run of the pass's first command warms lazy imports and
        # allocator pools.  It is gated and counted like any other.
        run_command(cli, wl.commands[0], tally, workloads.gate)
        # Traced runs alternate traced and untraced passes, starting traced.
        passes = pass_count(args.workload, args.seconds, bool(args.trace))
        for n in range(1, passes + 1):
            one_pass(traced=bool(args.trace) and n % 2 == 1)
            if probe is not None:
                probe.sample_until(-(-SETUP_RUNS * n // passes))
            elapsed = perf_counter() - t_start
            if 2 <= n < passes and elapsed + elapsed / n > RUN_LIMIT_S:
                print(f"note: stopped after {n} of {passes} passes, at the "
                      f"{RUN_LIMIT_S:.0f} s limit")
                break

        if args.trace:
            metrics = trace_metrics(layers, walls, UNITS)
            counts = [tuple(m[c] for c in EXACT_COUNTERS) for m in layers]
            counter_failure = (
                check_counters(args, prov, dict(zip(EXACT_COUNTERS, counts[0])))
                if len(set(counts)) == 1 else f"counts differ between passes: {counts}")
            tally.record("counters", counter_failure)
            tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
            result_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        else:
            probe.sample_until(SETUP_RUNS)
            if probe.error:
                tally.record("set-up", probe.error)
            if not tally.abs_err:
                tally.record("accuracy", "no result was compared with a reference")
            metrics = end_to_end(probe.samples, per_command, tally)
            result_metrics = {
                k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()
            }
        print_human(args, wl, tally, metrics, latencies, walls,
                    UNITS if args.trace else REPORT_UNITS)
        if args.detail:
            Path(args.detail).write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "provenance": prov, "metrics": metrics,
                "latency_ms": {k: [1e3 * x for x in v] for k, v in latencies.items()},
                "walls_s": {"untraced": walls[False], "traced": walls[True]},
                "failures": tally.reasons,
            }, indent=1, sort_keys=True))
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": result_metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB", "cr_abs_err_max": "abs",
}
# Printed with the end-to-end metrics but not in the result line: the failure
# ratio is the result line's failed/attempted, and the certificate margin is
# gated per command (it does not exist on workloads without certificates).
REPORT_UNITS = {**END_TO_END_UNITS, "cmd_tail_percentile": "%", "cmd_samples": "count",
                "cert_margin_min": "abs", "fail_ratio": "ratio"}


def end_to_end(setup: list[float], per_command: list[list[float]], tally) -> dict:
    """End-to-end metrics of an untraced run.

    A pass's wall time is built command by command, each at its median over
    the passes: a host slowdown that hits some passes part of the way moves
    it less than it moves the median of whole passes.
    """
    lat = [x for v in per_command for x in v]
    tail, pct = tail_latency(lat)
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "wall_s": sum(statistics.median(v) for v in per_command),
        "cmd_p50_ms": 1e3 * statistics.median(lat),
        "cmd_tail_ms": 1e3 * tail,
        "cmd_tail_percentile": pct,
        "cmd_samples": len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cr_abs_err_max": max(tally.abs_err, default=0.0),
        "cert_margin_min": min(tally.margin, default=None),
        "fail_ratio": tally.failed / tally.attempted,
    }


def trace_metrics(layers: list[dict], walls: dict[bool, list[float]], units: dict) -> dict:
    """Per-pass medians over the traced passes, plus the tracing overhead."""
    out = {k: (statistics.median_low if units[k] in ("count", "bytes")
               else statistics.median)(m[k] for m in layers) for k in layers[0]}
    out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    out["trace.unaccounted_s"] = statistics.median(
        m["trace.wall_s"] - m["trace.self_sum_s"] for m in layers)
    return out


def check_counters(args, prov: dict, counts: dict) -> str | None:
    """Exact counters must match every earlier traced run of this seed and build.

    A build is the program's source, the benchmark's own files (they generate
    the inputs) and the numpy version.
    """
    key = (f"{args.workload}-seed{args.seed}-{prov['source_sha256']}"
           f"-{prov['bench_sha256']}-numpy{prov['numpy']}")
    path = WORK / "counters" / f"{key}.json"
    if path.exists():
        try:
            before = json.loads(path.read_text())
        except ValueError:
            before = None
        if before is not None and before != counts:
            return f"counts {counts} differ from an earlier run's {before}"
        if before is not None:
            return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return None


def print_human(args, wl, tally, metrics: dict, latencies: dict, walls: dict,
                units: dict) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes of "
          f"{len(wl.commands)} commands")
    for k, v in metrics.items():
        print(f"  {k:36s} {'n/a' if v is None else v} {units[k]}")
    for label, v in latencies.items():
        print(f"  latency {label:40s} p50 {1e3 * statistics.median(v):10.3f} ms "
              f"(n={len(v)})")
    print(f"  operations {tally.attempted} attempted, {tally.failed} failed")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  FAIL x{count}: {reason}")


if __name__ == "__main__":
    sys.exit(main())
