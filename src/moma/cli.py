"""Command line interface.

Subcommands:

* ``validate``: structural checks of a model file, plus the full assumption
  checks when a query supplies objectives.
* ``single``: optimal value of each objective of the query on its own.
* ``check``: achievability of a point, or a quantitative bracket when
  thresholds are given.
* ``pareto``: the full front at the requested precision.

Exit codes: 0 on success, 1 when the answer is unknown because an iteration
or time budget ran out (or a solver could not certify a result), 2 on input
or validation errors and on an output path that cannot be written.  Results
are written as deterministic JSON to stdout or --output; wall-clock time
goes to stderr and is only embedded in the result file under --timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .model import InfeasibleError, ModelError, SolverError, validate_model
from .modelio import (FORMAT_VERSION, RESULT_FORMAT, ParsedQuery, _strategy_doc, dumps,
                      parse_model, parse_query, plot_csv, query_echo, result_document)
from .pareto import EPS_SOLVER, _strategy_ids, answer_query, problem_statistics
from .weighted import normalize_query, optimize_weighted, prepare_weighted, validate_assumptions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moma",
        description="Pareto front approximation for mixtures of long-run average "
                    "and total reward objectives on Markov automata and MDPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="model file (moma-model JSON)")
        sp.add_argument("--query", required=True, help="query file (moma-query JSON)")
        sp.add_argument("--precision", type=float, default=None,
                        help="override the query precision")
        sp.add_argument("--max-iterations", type=int, default=None,
                        help="override the refinement iteration budget")
        sp.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock budget in seconds (makes runs "
                             "timing-dependent)")
        sp.add_argument("--strategies", action="store_true",
                        help="include witness strategies in the result")
        sp.add_argument("--output", default=None,
                        help="write the result file here instead of stdout")
        sp.add_argument("--timings", action="store_true",
                        help="embed wall-clock timings in the result file")

    sp = sub.add_parser("validate", help="check a model file")
    sp.add_argument("model")
    sp.add_argument("--query", default=None,
                    help="also check the assumptions for this query's objectives")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("single", help="optimize each objective on its own")
    common(sp)
    sp.set_defaults(func=cmd_single)

    sp = sub.add_parser("check", help="decide achievability of a point, or "
                                      "bracket a quantitative optimum")
    common(sp)
    given = sp.add_mutually_exclusive_group()
    given.add_argument("--point", default=None,
                       help="comma-separated point, one value per objective")
    given.add_argument("--thresholds", default=None,
                       help="comma-separated thresholds for objectives 2..l")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("pareto", help="approximate the Pareto front")
    common(sp)
    sp.add_argument("--plot", default=None,
                    help="write 2-d plot data (CSV) to this path")
    sp.set_defaults(func=cmd_pareto)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ModelError(f"cannot read {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ModelError(f"{path} is not valid JSON: {e}") from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise ModelError(f"cannot write {path}: {e.strerror or e}") from e


def _floats(text: str, what: str) -> list[float]:
    """The comma-separated numbers of text; a blank text is the empty list."""
    try:
        return [float(x) for x in text.split(",")] if text.strip() else []
    except ValueError as e:
        raise ModelError(f"invalid {what} {text!r}: {e}") from e


def _parse(args, m, **fields) -> ParsedQuery:
    """The query file with `fields` and each given --precision,
    --max-iterations and --time-limit written over its own, parsed and
    checked as one document."""
    doc = _load_json(args.query)
    for key in ("precision", "max_iterations", "time_limit"):
        if getattr(args, key) is not None:
            fields[key] = getattr(args, key)
    if isinstance(doc, dict):
        doc.update(fields)
    return parse_query(doc, m)


def _emit(doc: dict, args, t0: float) -> None:
    """Write the result file, with the wall time since t0 under --timings,
    and report that time on stderr."""
    dt = time.monotonic() - t0
    if args.timings:
        doc["timings"] = {"wall_s": dt}
    text = dumps(doc)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    print(f"wall time: {dt:.3f}s", file=sys.stderr)


def cmd_validate(args) -> int:
    m = parse_model(_load_json(args.model))
    if args.query:
        pq = parse_query(_load_json(args.query), m)
        p = normalize_query(m, pq.objectives)
        report = validate_assumptions(p)
    else:
        report = validate_model(m)
    if report.ok:
        print("ok")
        return 0
    print(report)
    return 2


def cmd_single(args) -> int:
    """Each objective optimized alone at --precision, else EPS_SOLVER (not the file's)."""
    t0 = time.monotonic()
    m = parse_model(_load_json(args.model))
    pq = _parse(args, m)
    p = normalize_query(m, pq.objectives)
    report = validate_assumptions(p)
    if not report.ok:
        print(report, file=sys.stderr)
        return 2
    prep = prepare_weighted(p)
    eps = args.precision if args.precision is not None else EPS_SOLVER

    echo = query_echo(pq, m)
    values = []
    for j in range(p.dimension):
        sol = optimize_weighted(prep, np.eye(p.dimension)[j], eps)
        ent = {"objective": echo["objectives"][j],
               "value": float(p.flips[j]) * sol.point[j],
               "error_bound": sol.error_bound}
        if args.strategies or pq.strategies:
            ent["strategy"] = _strategy_doc(_strategy_ids(sol.strategy, p.model), p.model)
        values.append(ent)
    doc = {"format": RESULT_FORMAT, "version": FORMAT_VERSION, "kind": "single",
           "query": echo, "values": values,
           "statistics": problem_statistics(p, prep, p.dimension)}
    _emit(doc, args, t0)
    return 0


def cmd_check(args) -> int:
    t0 = time.monotonic()
    m = parse_model(_load_json(args.model))
    fields = {}
    if args.point is not None:
        fields = {"kind": "achievability", "point": _floats(args.point, "--point")}
    elif args.thresholds is not None:
        fields = {"kind": "quantitative", "thresholds": _floats(args.thresholds, "--thresholds")}
    pq = _parse(args, m, **fields)
    if pq.kind not in ("achievability", "quantitative"):
        raise ModelError("check needs an achievability or quantitative query "
                         "(or --point / --thresholds)")
    res = answer_query(m, pq.objectives, pq.query)
    doc = result_document(res, query_echo(pq, m), strategies=args.strategies or pq.strategies)
    _emit(doc, args, t0)
    if res.kind == "achievability":
        return 1 if res.verdict == "unknown" else 0
    return 1 if res.exhausted else 0


def cmd_pareto(args) -> int:
    t0 = time.monotonic()
    m = parse_model(_load_json(args.model))
    pq = _parse(args, m, kind="pareto")
    res = answer_query(m, pq.objectives, pq.query)
    doc = result_document(res, query_echo(pq, m), strategies=args.strategies or pq.strategies)
    if args.plot:  # first, so a refused or unwritable plot leaves no result file
        _write(args.plot, plot_csv(res))
    try:
        _emit(doc, args, t0)
    except ModelError:  # an unwritable result leaves no plot either
        if args.plot:
            os.remove(args.plot)
        raise
    return 1 if res.exhausted else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver gave up: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
