"""Command-line interface.

Subcommands: evaluate (competitive ratio of a fleet config), certify
(snapshot lower bound), lemmas (certifier.lemma_suite: checks of the
geometric facts the certificates lean on), optimize (spiral growth
search), plot (SVG rendering of a report).  Outputs are files plus a
one-line summary on stdout.

Exit codes: 0 ok, 1 usage/config error (including any flag value the
library rejects, a grid too large to fit in memory and an --out the
command cannot write), 2 uncovered direction, 3 lemma violation, 4
non-convergence (an optimize bracket across which d log CR/db does not
change sign).

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

The optional "evaluation" block supplies evaluator.evaluate_cr's settings,
and the flags given override them.
Every robot starts at the origin at t = 0; a spiral's "start_phase" is the
bearing at which it crosses radius 1.  A key not shown here is an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import certifier, evaluator, optimizer, report
from .trajectory import Fleet, is_number, spec_from_dict, spec_to_dict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNCOVERED = 2
EXIT_LEMMA = 3
EXIT_NO_CONVERGENCE = 4


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    """A JSON number float() can hold: an int past 1.8e308 overflows."""
    return is_number(value) and (isinstance(value, float)
                                 or abs(value) <= sys.float_info.max)


# What each evaluation key holds, and the test its JSON value must pass.
EVALUATION_VALUES = {
    "horizon": ("a number", _is_float),
    "epsilon": ("a number", _is_float),
    "t_start": ("a number", _is_float),
    "theta_steps": ("an integer", _is_count),
    "t_steps": ("an integer", _is_count),
    "window": ("a pair of numbers",
               lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_float, v))),
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
    evaluation = doc.get("evaluation", {})  # only a missing key means no block
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


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_evaluate(args) -> int:
    fleet, robot_docs, ev = load_fleet_config(args.config)
    settings = {**ev, **{key: getattr(args, key) for key in EVALUATION_VALUES
                         if getattr(args, key) is not None}}
    if "horizon" not in settings:
        raise ConfigError("horizon must be given via --horizon or the config's "
                          "evaluation block")
    rep = evaluator.evaluate_cr(fleet, **settings)
    text = report.emit_report(rep, fleet=robot_docs)
    if args.out:
        _write_out(args.out, text)
    print(f"cr_estimate={rep.cr_estimate:.9f} witness_theta={rep.witness.theta:.6f} "
          f"witness_delta={rep.witness.delta:.6g} coverage={rep.coverage_radius:.6g}"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_certify(args) -> int:
    fleet, robot_docs, _ = load_fleet_config(args.config)
    cert = certifier.snapshot_lower_bound(fleet, args.d, args.gamma, eps=args.eps,
                                          zeta=args.zeta)
    text = report.emit_report(cert, fleet=robot_docs)
    if args.out:
        _write_out(args.out, text)
    if cert.degenerate:
        print(f"degenerate: unbounded CR (all robots at the origin at "
              f"d={cert.snapshot_time:g})" + (f" -> {args.out}" if args.out else ""))
    else:
        print(f"bound={cert.bound:.9f} limit={cert.bound_limit:.9f} n={cert.n} "
              f"d={cert.snapshot_time:g} witness_theta={cert.witness_line.theta:.6f} "
              f"witness_delta={cert.witness_line.delta:.6g}"
              + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_lemmas(args) -> int:
    suites = certifier.LEMMA_SUITES if args.suite == "all" else (args.suite,)
    results = certifier.lemma_suite(suites, args.negative_control)
    ok = all(r["passed"] for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['suite']}: {r['lemma']} | extremal={r['extremal']:.6g}")
    if args.out:
        doc = {"results": results, "all_passed": ok}
        _write_out(args.out, report.emit_report(doc))
    if not ok:
        failed = ", ".join(r["suite"] for r in results if not r["passed"])
        print(f"lemma violation in: {failed}", file=sys.stderr)
        return EXIT_LEMMA
    return EXIT_OK


def cmd_optimize(args) -> int:
    result = optimizer.optimize_spiral(args.n, bracket=tuple(args.bracket))
    text = report.emit_report(result, extra={"n": args.n})
    if args.out:
        _write_out(args.out, text)
    if not result.converged:
        (lo, hi), (s_lo, s_hi) = result.bracket, result.slopes
        print(f"non-convergence: d log CR/db is {s_lo:.6g} at b={lo:g} and "
              f"{s_hi:.6g} at b={hi:g}, not a sign change from < 0 to >= 0",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"b={result.parameter:.6f} cr={result.value:.6f} "
          f"evaluations={result.evaluations}"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_plot(args) -> int:
    out = args.out or str(Path(args.report).with_suffix(".svg"))
    if Path(out).resolve() == Path(args.report).resolve():
        raise ConfigError(f"{out} would overwrite the report; pass another --out")
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
    except KeyError as exc:
        raise ConfigError(f"report {args.report} lacks the field {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"report {args.report} is malformed: {exc}") from exc
    _write_out(out, svg)
    print(f"wrote {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The shoreline parser, built on first use and shared by every main call."""
    p = _Parser(prog="shoreline",
                description="Simulate, certify, and optimize multi-robot "
                            "shoreline search.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evaluate", help="competitive ratio of a fleet config")
    pe.add_argument("config")
    pe.add_argument("--horizon", type=float)
    pe.add_argument("--theta-steps", type=int, dest="theta_steps")
    pe.add_argument("--t-steps", type=int, dest="t_steps",
                    help="validated and echoed; every fleet is sampled at its events")
    pe.add_argument("--epsilon", type=float)
    pe.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    pe.add_argument("--t-start", type=float, dest="t_start",
                    help="validated only; every fleet is sampled at its events")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_evaluate)

    pc = sub.add_parser("certify", help="snapshot lower-bound certificate")
    pc.add_argument("config")
    pc.add_argument("--d", type=float, required=True, help="snapshot time")
    pc.add_argument("--gamma", type=float, default=certifier.DEFAULT_GAMMA)
    pc.add_argument("--eps", type=float, default=certifier.DEFAULT_EPS)
    pc.add_argument("--zeta", type=float, default=certifier.DEFAULT_ZETA)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_certify)

    pl = sub.add_parser("lemmas", help="run the lemma checks")
    pl.add_argument("--suite", choices=("all",) + certifier.LEMMA_SUITES, default="all")
    pl.add_argument("--negative-control", action="store_true",
                    dest="negative_control",
                    help="also run the expected-to-violate controls")
    pl.add_argument("--out")
    pl.set_defaults(func=cmd_lemmas)

    po = sub.add_parser("optimize", help="search the spiral growth rate")
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"),
                    default=optimizer.DEFAULT_BRACKET)
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
    except evaluator.UncoveredDirectionError as exc:
        print(f"uncovered: {exc}", file=sys.stderr)
        return EXIT_UNCOVERED
    except ValueError as exc:  # ConfigError and any value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid too large to allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
