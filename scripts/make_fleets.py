#!/usr/bin/env python3
"""Regenerate the bundled fleet configs in fleets/.

Symmetric ray fleets for n = 3..12, the single spiral and the antipodal
double spiral at their tuned growth rates, plus two tiny configs used to
demonstrate failure modes (a lone ray that cannot cover the plane, and a
fleet that never leaves the origin).
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shoreline.optimizer import spiral_eval_params  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "fleets"

# Growth rates found by scripts/reproduce_spiral_bounds.py (optimize_spiral).
SPIRAL_B = {1: 0.2125, 2: 0.6465}


def ray_fleet(n: int) -> dict:
    return {
        "version": 1,
        "robots": [
            {"kind": "ray", "angle": 2.0 * math.pi * k / n} for k in range(n)
        ],
        "evaluation": {"horizon": 10.0},
    }


def spiral_fleet(n: int) -> dict:
    b = SPIRAL_B[n]
    spiral = {
        "kind": "log_spiral",
        "growth": b,
        "start_phase": 0.0,
        "chirality": "ccw",
    }
    robots = [spiral]
    if n == 2:
        robots.append({"kind": "antipodal_of", "inner": spiral})
    p = spiral_eval_params(n, b)
    return {
        "version": 1,
        "robots": robots,
        "evaluation": {
            "horizon": p["horizon"],
            "window": list(p["window"]),
            "epsilon": p["epsilon"],
            "spacing": p["spacing"],
            "t_start": p["t_start"],
            "t_steps": 200000,
            "theta_steps": 6,
        },
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)
    configs = {}
    for n in range(3, 13):
        configs[f"rays-{n}.json"] = ray_fleet(n)
    configs["spiral-1.json"] = spiral_fleet(1)
    configs["double-spiral-2.json"] = spiral_fleet(2)
    configs["single-ray.json"] = {
        "version": 1,
        "robots": [{"kind": "ray", "angle": 0.0}],
        "evaluation": {"horizon": 10.0},
    }
    configs["all-at-origin.json"] = {
        "version": 1,
        "robots": [
            {"kind": "polyline", "vertices": [[0.0, 0.0], [0.0, 0.0]]},
            {"kind": "polyline", "vertices": [[0.0, 0.0], [0.0, 0.0]]},
        ],
        "evaluation": {"horizon": 10.0},
    }
    for name, doc in configs.items():
        path = OUT / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
