#!/usr/bin/env python3
"""Reproduce the tuned spiral upper bounds.

Runs the growth-rate search for the single spiral (n=1) and the antipodal
pair (n=2) and prints the optimum of each: expect CR* near 13.8111 and
5.2644.  The objective is closed form, so each search takes milliseconds.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shoreline.optimizer import optimize_spiral  # noqa: E402
from shoreline.report import emit_report  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-4,
                    help="growth-rate bracket tolerance")
    ap.add_argument("--out-dir", type=Path,
                    help="also write optimize_result reports here")
    args = ap.parse_args()

    for n in (1, 2):
        t0 = time.perf_counter()
        res = optimize_spiral(n, tol=args.tol)
        dt = time.perf_counter() - t0
        print(f"n={n}: b*={res.parameter:.6f} cr*={res.value:.6f} "
              f"({res.evaluations} evaluations, {1e3 * dt:.1f} ms)")
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"spiral-{n}-optimum.json"
            path.write_text(emit_report(res, extra={"n": n}))
            print(f"  wrote {path}")
        if not res.converged:
            print(f"  warning: bracket {res.bracket} did not reach tol",
                  file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
