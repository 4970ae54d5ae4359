#!/usr/bin/env python3
"""Reproduce the tuned spiral upper bounds.

Runs the growth-rate search for the single spiral (n=1) and the antipodal
pair (n=2) and prints the optimum of each, b* and CR*, with the slopes of
log CR at b* and the next float up: negative, then non-negative.  Expect
CR* near 13.8111 and 5.2644.  The slope is closed form, so each search
takes well under a millisecond; a search without a sign change exits 4.
Then evaluates the shipped configs fleets/spiral-1.json and
fleets/double-spiral-2.json, which sample each spiral at its support
extrema, and prints each one's relative gap to the closed form at its own
growth rate: expect at most 1e-12.  A larger gap exits 5.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shoreline.cli import load_fleet_config  # noqa: E402
from shoreline.evaluator import evaluate_cr  # noqa: E402
from shoreline.optimizer import optimize_spiral, steady_state_cr  # noqa: E402
from shoreline.report import emit_report  # noqa: E402

FLEETS = Path(__file__).resolve().parent.parent / "fleets"
GAP_TOL = 1e-12


def evaluated_gap(name: str, n: int) -> float:
    """Relative gap between the evaluator and the closed form on a shipped config."""
    fleet, _, ev = load_fleet_config(str(FLEETS / f"{name}.json"))
    rep = evaluate_cr(fleet, **ev)
    closed = steady_state_cr(n, fleet.robots[0].growth)
    print(f"{name}: evaluated cr={rep.cr_estimate:.12f} closed form "
          f"{closed:.12f} gap {rep.cr_estimate / closed - 1.0:.3g}")
    return abs(rep.cr_estimate / closed - 1.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path,
                    help="also write optimize_result reports here")
    args = ap.parse_args()

    for n in (1, 2):
        t0 = time.perf_counter()
        res = optimize_spiral(n)
        dt = time.perf_counter() - t0
        print(f"n={n}: b*={res.parameter!r} cr*={res.value!r} slopes "
              f"{res.slopes[0]:.3g} {res.slopes[1]:.3g} "
              f"({res.evaluations} evaluations, {1e3 * dt:.2f} ms)")
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"spiral-{n}-optimum.json"
            path.write_text(emit_report(res, extra={"n": n}))
            print(f"  wrote {path}")
        if not res.converged:
            print(f"  error: d log CR/db does not change sign on {res.bracket}",
                  file=sys.stderr)
            return 4
    gaps = [evaluated_gap(name, n) for name, n in (("spiral-1", 1), ("double-spiral-2", 2))]
    if max(gaps) > GAP_TOL:
        print(f"  error: evaluator and closed form differ by more than {GAP_TOL}",
              file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
