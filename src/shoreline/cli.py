"""Command-line interface.

Subcommands: evaluate (competitive ratio of a fleet config), certify
(snapshot lower bound), lemmas (certifier.lemma_suite: verification sweeps
for the geometric facts the certificates lean on), optimize (spiral growth
search), plot (SVG rendering of a report).  Outputs are files plus a
one-line summary on stdout.

Exit codes: 0 ok, 1 usage/config error (including any flag value the
library rejects), 2 uncovered direction, 3 lemma violation, 4
non-convergence.

Fleet configs are JSON:

    {
      "version": 1,
      "robots": [
        {"kind": "ray", "angle": 0.0},
        {"kind": "log_spiral", "growth": 0.5, "start_phase": 0.0,
         "chirality": "ccw"},
        {"kind": "antipodal_of", "inner": {"kind": "ray", "angle": 1.0}},
        {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]]}
      ],
      "evaluation": {"horizon": 10.0, "theta_steps": 720, "t_steps": 4096}
    }

The optional "evaluation" block supplies defaults that CLI flags override.
Every robot starts at the origin at t = 0; a spiral's "start_phase" is the
bearing at which it crosses radius 1.  A key not shown here is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import certifier, evaluator, optimizer, report
from .trajectory import Fleet, spec_from_dict, spec_to_dict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNCOVERED = 2
EXIT_LEMMA = 3
EXIT_NO_CONVERGENCE = 4


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each evaluation key holds, and the test its JSON value must pass.
EVALUATION_VALUES = {
    "horizon": ("a number", _is_number),
    "epsilon": ("a number", _is_number),
    "t_start": ("a number", _is_number),
    "theta_steps": ("an integer", _is_count),
    "t_steps": ("an integer", _is_count),
    "window": ("a pair of numbers",
               lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))),
    "spacing": ("a string", lambda v: isinstance(v, str)),
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map argparse usage errors onto exit 1
        raise ConfigError(message)


def load_fleet_config(path: str) -> tuple[Fleet, list[dict], dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    _reject_unknown_keys(doc, {"version", "robots", "evaluation"}, f"config {path}")
    if doc.get("version") != 1:
        raise ConfigError(f"config {path}: missing or unsupported version "
                          f"(expected 1, got {doc.get('version')!r})")
    robots_doc = doc.get("robots")
    if not isinstance(robots_doc, list) or not robots_doc:
        raise ConfigError(f"config {path}: robots must be a non-empty list")
    try:
        robots = tuple(
            spec_from_dict(r, f"robots[{i}]") for i, r in enumerate(robots_doc)
        )
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    evaluation = doc.get("evaluation") or {}
    if not isinstance(evaluation, dict):
        raise ConfigError(f"config {path}: evaluation must be an object")
    where = f"config {path}: evaluation"
    _reject_unknown_keys(evaluation, EVALUATION_VALUES.keys(), where)
    for key, value in evaluation.items():
        what, valid = EVALUATION_VALUES[key]
        if not valid(value):
            raise ConfigError(f"{where}: {key} must be {what}, got {value!r}")
    return Fleet(robots), [spec_to_dict(r) for r in robots], evaluation


def _reject_unknown_keys(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def _pick(cli_value, config: dict, key: str, default=None):
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


def cmd_evaluate(args) -> int:
    fleet, robot_docs, ev = load_fleet_config(args.config)
    horizon = _pick(args.horizon, ev, "horizon")
    if horizon is None:
        raise ConfigError("horizon must be given via --horizon or the config's "
                          "evaluation block")
    theta_steps = int(_pick(args.theta_steps, ev, "theta_steps",
                            evaluator.DEFAULT_THETA_STEPS))
    t_steps = int(_pick(args.t_steps, ev, "t_steps", evaluator.DEFAULT_T_STEPS))
    epsilon = _pick(args.epsilon, ev, "epsilon")
    window = _pick(tuple(args.window) if args.window else None, ev, "window")
    if window is not None:
        window = (float(window[0]), float(window[1]))
    spacing = _pick(args.spacing, ev, "spacing", "uniform")
    t_start = float(_pick(args.t_start, ev, "t_start", 0.0))
    try:
        rep = evaluator.evaluate_cr(
            fleet, float(horizon), theta_steps, t_steps,
            epsilon=None if epsilon is None else float(epsilon),
            window=window, spacing=spacing, t_start=t_start,
        )
    except ValueError as exc:
        if isinstance(exc, evaluator.UncoveredDirectionError):
            raise
        raise ConfigError(str(exc)) from exc
    text = report.emit_report(rep, fleet=robot_docs)
    if args.out:
        Path(args.out).write_text(text)
    print(f"cr_estimate={rep.cr_estimate:.9f} witness_theta={rep.witness.theta:.6f} "
          f"witness_delta={rep.witness.delta:.6g} coverage={rep.coverage_radius:.6g}"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_certify(args) -> int:
    fleet, robot_docs, _ = load_fleet_config(args.config)
    n = args.n if args.n is not None else len(fleet)
    if n != len(fleet):
        raise ConfigError(f"--n {n} does not match fleet size {len(fleet)}")
    try:
        cert = certifier.snapshot_lower_bound(
            fleet, args.d, n, args.gamma, eps=args.eps, zeta=args.zeta,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = report.emit_report(cert, fleet=robot_docs)
    if args.out:
        Path(args.out).write_text(text)
    if cert.degenerate:
        print(f"degenerate: unbounded CR (all robots at the origin at "
              f"d={cert.snapshot_time:g})" + (f" -> {args.out}" if args.out else ""))
    else:
        print(f"bound={cert.bound:.9f} limit={cert.bound_limit:.9f} n={n} "
              f"d={cert.snapshot_time:g} witness_theta={cert.witness_line.theta:.6f} "
              f"witness_delta={cert.witness_line.delta:.6g}"
              + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_lemmas(args) -> int:
    suites = certifier.LEMMA_SUITES if args.suite == "all" else (args.suite,)
    try:
        results = certifier.lemma_suite(args.grid, args.samples, args.seed, suites,
                                        args.negative_control)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ok = all(r["passed"] for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['suite']}: {r['lemma']} | extremal={r['extremal']:.6g}")
    if args.out:
        doc = {"results": results, "all_passed": ok}
        Path(args.out).write_text(report.emit_report(doc))
    if not ok:
        failed = ", ".join(r["suite"] for r in results if not r["passed"])
        print(f"lemma violation in: {failed}", file=sys.stderr)
        return EXIT_LEMMA
    return EXIT_OK


def cmd_optimize(args) -> int:
    try:
        result = optimizer.optimize_spiral(
            args.n, bracket=(args.bracket[0], args.bracket[1]), tol=args.tol,
            prescan=args.prescan,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = report.emit_report(result, extra={"n": args.n})
    if args.out:
        Path(args.out).write_text(text)
    if not result.converged:
        print(f"non-convergence: bracket {result.bracket} wider than tol "
              f"{args.tol:g} after {result.evaluations} evaluations",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"b={result.parameter:.6f} cr={result.value:.6f} "
          f"evaluations={result.evaluations}"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report {args.report} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"report {args.report}: top level must be an object")
    try:
        svg = report.render(doc, canvas=args.size, world_radius=args.world_radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except KeyError as exc:
        raise ConfigError(f"report {args.report} lacks the field {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"report {args.report} is malformed: {exc}") from exc
    out = args.out or str(Path(args.report).with_suffix(".svg"))
    Path(out).write_text(svg)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="shoreline",
                description="Simulate, certify, and optimize multi-robot "
                            "shoreline search.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evaluate", help="competitive ratio of a fleet config")
    pe.add_argument("config")
    pe.add_argument("--horizon", type=float)
    pe.add_argument("--theta-steps", type=int, dest="theta_steps")
    pe.add_argument("--t-steps", type=int, dest="t_steps")
    pe.add_argument("--epsilon", type=float)
    pe.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    pe.add_argument("--spacing", choices=("uniform", "geometric"))
    pe.add_argument("--t-start", type=float, dest="t_start")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_evaluate)

    pc = sub.add_parser("certify", help="snapshot lower-bound certificate")
    pc.add_argument("config")
    pc.add_argument("--d", type=float, required=True, help="snapshot time")
    pc.add_argument("--n", type=int, help="expected fleet size (validated)")
    pc.add_argument("--gamma", type=float, default=certifier.DEFAULT_GAMMA)
    pc.add_argument("--eps", type=float, default=certifier.DEFAULT_EPS)
    pc.add_argument("--zeta", type=float, default=certifier.DEFAULT_ZETA)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_certify)

    pl = sub.add_parser("lemmas", help="run the lemma verification sweeps")
    pl.add_argument("--suite", choices=("all",) + certifier.LEMMA_SUITES, default="all")
    pl.add_argument("--grid", type=int, default=certifier.DEFAULT_GRID)
    pl.add_argument("--samples", type=int, default=certifier.DEFAULT_SAMPLES,
                    help="random samples for the ellipse equivalence check")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--negative-control", action="store_true",
                    dest="negative_control",
                    help="also run the expected-to-violate controls")
    pl.add_argument("--out")
    pl.set_defaults(func=cmd_lemmas)

    po = sub.add_parser("optimize", help="search the spiral growth rate")
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"),
                    default=list(optimizer.DEFAULT_BRACKET))
    po.add_argument("--tol", type=float, default=optimizer.DEFAULT_B_TOL)
    po.add_argument("--prescan", type=int, default=optimizer.DEFAULT_PRESCAN)
    po.add_argument("--out")
    po.set_defaults(func=cmd_optimize)

    pp = sub.add_parser("plot", help="render a report file to SVG")
    pp.add_argument("report")
    pp.add_argument("--out")
    pp.add_argument("--size", type=int, default=report.DEFAULT_CANVAS)
    pp.add_argument("--world-radius", type=float, dest="world_radius")
    pp.set_defaults(func=cmd_plot)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except evaluator.UncoveredDirectionError as exc:
        print(f"uncovered: {exc}", file=sys.stderr)
        return EXIT_UNCOVERED


if __name__ == "__main__":
    sys.exit(main())
