"""Span tracing around the program's public functions, from outside the program.

``Tracer.installed()`` swaps each traced function for a wrapper in the module
namespaces its callers look it up in, and restores the originals on exit.
Where a function is imported by name into several modules, each binding is
wrapped under its own span name, which is how ``positions`` time is split by
calling module.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the index
of the enclosing span in the same pass (-1 at top level) and ``op`` the
command it belongs to.  Spans stay in memory and are written out once the
run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

EVALUATE = "evaluator.evaluate_cr"
POSITIONS = "trajectory.positions"
STEADY = "optimizer.steady_state_cr"
LEMMA_SWEEPS = ("certifier.omb_oracle", "certifier.min_cone_exit",
                "certifier.discriminant_sweep", "certifier.ellipse_q_grid")
OUTPUTS = ("report.emit_report", "report.render")

# Counts that must repeat exactly for one seed on one build of the program.
EXACT_COUNTERS = ("evaluator.grid_cells", "evaluator.directions",
                  "trajectory.positions.points", "optimizer.objective_evals",
                  "certifier.omb_oracle.cells")

UNITS = {
    "evaluator.self_s": "s",
    "evaluator.directions": "count",
    "evaluator.grid_cells": "count",
    "evaluator.cells_per_s": "1/s",
    "trajectory.positions.grid_s": "s",
    "trajectory.positions.probe_s": "s",
    "trajectory.positions.probe_calls": "count",
    "trajectory.positions.points": "count",
    "trajectory.positions.evaluator_s": "s",
    "trajectory.positions.certifier_s": "s",
    "trajectory.positions.report_s": "s",
    "optimizer.objective_evals": "count",
    "optimizer.objective_eval_ms": "ms",
    "optimizer.retry_ratio": "ratio",
    "certifier.lemma_sweeps_s": "s",
    "certifier.omb_oracle.cells": "count",
    "certifier.snapshot_lower_bound_s": "s",
    "report.emit_report_s": "s",
    "report.render_s": "s",
    "report.bytes_out": "bytes",
    "cli.load_fleet_config_s": "s",
    "cli.self_s": "s",
    "geometry.max_angular_gap_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.unaccounted_s": "s",
}


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.modules = modules  # short module name -> imported module
        self.passes: list[list[list]] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def start_pass(self) -> None:
        self.spans = []
        self.passes.append(self.spans)

    def begin_op(self) -> None:
        self.op += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if on_call is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = on_call(bound.arguments)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, attrs]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(span, result)
            return result

        return wrapper

    def _evaluate_attrs(self, a: dict) -> dict:
        return {"theta_steps": int(a["theta_steps"]), "t_steps": int(a["t_steps"]),
                "horizon": float(a["horizon"]), "t_start": float(a["t_start"])}

    def _positions_attrs(self, a: dict) -> dict:
        ts = a["ts"]
        n = len(ts)
        return {"points": n, "grid": n > 0 and self._is_grid(ts, n)}

    def _is_grid(self, ts, n: int) -> bool:
        """Whether ts is the time grid of the innermost running evaluation."""
        for i in reversed(self.stack):
            span = self.spans[i]
            if span[0] == EVALUATE:
                ev = span[5]
                return (n == ev["t_steps"]
                        and math.isclose(float(ts[0]), ev["t_start"], rel_tol=1e-12,
                                         abs_tol=1e-300)
                        and math.isclose(float(ts[-1]), ev["horizon"], rel_tol=1e-12))
        return False

    @staticmethod
    def _omb_attrs(a: dict) -> dict:
        return {"cells": int(a["grid"]) ** 2}

    @staticmethod
    def _count_bytes(span: list, result) -> None:
        span[5] = {"bytes": len(result.encode())}

    def _targets(self):
        """(module, attribute, span name, on_call, on_return) for every binding."""
        m = self.modules
        yield m["cli"], "main", "cli.main", None, None
        yield m["cli"], "load_fleet_config", "cli.load_fleet_config", None, None
        for mod in ("evaluator", "optimizer"):
            yield m[mod], "evaluate_cr", EVALUATE, self._evaluate_attrs, None
        for mod in ("evaluator", "certifier", "report"):
            yield (m[mod], "positions", f"{POSITIONS}@{mod}", self._positions_attrs,
                   None)
        yield m["optimizer"], "optimize_spiral", "optimizer.optimize_spiral", None, None
        yield m["optimizer"], "steady_state_cr", STEADY, None, None
        for name in LEMMA_SWEEPS:
            attrs = self._omb_attrs if name == "certifier.omb_oracle" else None
            yield m["certifier"], name.split(".")[1], name, attrs, None
        yield (m["certifier"], "snapshot_lower_bound", "certifier.snapshot_lower_bound",
               None, None)
        yield m["certifier"], "max_angular_gap", "geometry.max_angular_gap", None, None
        for name in OUTPUTS:
            yield m["report"], name.split(".")[1], name, None, self._count_bytes

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod, attr, name, on_call, on_return in self._targets():
                fn = getattr(mod, attr, None)
                if fn is None:  # the program no longer has this binding
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, on_call, on_return))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- metrics ------------------------------------------------------------

    def pass_metrics(self, spans: list[list]) -> dict[str, float]:
        """Per-layer metrics of one traced pass, keyed as in UNITS."""
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        grid_s = probe_s = 0.0
        probe_calls = points = cells = directions = omb_cells = out_bytes = 0
        objective_evaluates = 0
        for i, (name, t0, t1, parent, _, attrs) in enumerate(spans):
            dur = t1 - t0
            total[name] += dur
            own[name] += dur - child[i]
            calls[name] += 1
            if name.startswith(POSITIONS):
                points += attrs["points"]
                if attrs["grid"]:
                    grid_s += dur
                else:
                    probe_s += dur
                    probe_calls += 1
            elif name == EVALUATE:
                directions += attrs["theta_steps"]
                cells += attrs["theta_steps"] * attrs["t_steps"]
                objective_evaluates += parent >= 0 and spans[parent][0] == STEADY
            elif name == "certifier.omb_oracle":
                omb_cells += attrs["cells"]
            elif name in OUTPUTS:
                out_bytes += attrs["bytes"]
        evals = calls[STEADY]
        return {
            "evaluator.self_s": own[EVALUATE],
            "evaluator.directions": directions,
            "evaluator.grid_cells": cells,
            "evaluator.cells_per_s": cells / total[EVALUATE] if cells else 0.0,
            "trajectory.positions.grid_s": grid_s,
            "trajectory.positions.probe_s": probe_s,
            "trajectory.positions.probe_calls": probe_calls,
            "trajectory.positions.points": points,
            "trajectory.positions.evaluator_s": total[f"{POSITIONS}@evaluator"],
            "trajectory.positions.certifier_s": total[f"{POSITIONS}@certifier"],
            "trajectory.positions.report_s": total[f"{POSITIONS}@report"],
            "optimizer.objective_evals": evals,
            "optimizer.objective_eval_ms": 1e3 * total[STEADY] / evals if evals else 0.0,
            "optimizer.retry_ratio": objective_evaluates / evals if evals else 0.0,
            "certifier.lemma_sweeps_s": sum(total[n] for n in LEMMA_SWEEPS),
            "certifier.omb_oracle.cells": omb_cells,
            "certifier.snapshot_lower_bound_s": own["certifier.snapshot_lower_bound"],
            "report.emit_report_s": own["report.emit_report"],
            "report.render_s": own["report.render"],
            "report.bytes_out": out_bytes,
            "cli.load_fleet_config_s": own["cli.load_fleet_config"],
            "cli.self_s": own["cli.main"],
            "geometry.max_angular_gap_s": own["geometry.max_angular_gap"],
            "trace.self_sum_s": sum(own.values()),
        }

    def write(self, path: Path) -> None:
        """All spans of the run, one JSON list per pass."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "op", "attrs"],
               "passes": self.passes}
        path.write_text(json.dumps(doc, separators=(",", ":")))
