"""Repeat the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads rays-grid spiral-tune --seeds 10 \
        --out perfbench/some-summary.json

For every workload and metric it reports the median and the quartiles of the
values over the seeds, as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (q3 - q1) / median.  Runs go one at a time, on seeds 1..N
in order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json") as detail:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--detail", detail.name],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                             f"{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["detail"] = json.loads(Path(detail.name).read_text())
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads:
        runs = [run_once(wl, s, args.seconds, args.trace)
                for s in range(1, args.seeds + 1)]
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        labels = {}
        for r in runs:
            for label, ms in r["detail"]["latency_ms"].items():
                labels.setdefault(label, []).append(statistics.median(ms))
        summary["workloads"][wl] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "latency_p50_ms_by_command": {k: statistics.median(v)
                                          for k, v in labels.items()},
            "provenance": runs[0]["detail"]["provenance"],
        }
        for k, s in metrics.items():
            bound = bounds.get(k)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{wl:17s} {k:34s} median {s['median']:.6g} spread {spread}"
                  + (f" (bound {bound})" if bound is not None else ""))
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
