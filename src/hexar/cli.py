"""Command-line interface: simulate, explain, evaluate, report.

Exit codes: 0 success, 2 usage or input error, 3 explanation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation
from .explainers import build_default_registry
from .framework import ANSWER_ERRORS
from .reasoner import ReasonerError, make_reasoner
from .scenarios import grid_triples, list_scenarios, read_manifest, write_manifest
from .simulate import generate_trace
from .trace import TraceError, read_trace, validate_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXPLAIN = 3

_METHOD_FLAGS = {
    "hexar": "hexar",
    "end-to-end": "end_to_end",
    "all-components": "all_components",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_scenarios(args: argparse.Namespace) -> int:
    if args.manifest_out:
        write_manifest(args.manifest_out)
    specs = list_scenarios()
    if args.id is not None:
        if not 1 <= args.id <= len(specs):
            return _fail(f"scenario id out of range: {args.id}")
        specs = [specs[args.id - 1]]
    for spec in specs:
        print(
            f"{spec.scenario_id:2d}  {spec.category:24s} {spec.relevant_module:20s} "
            f"{spec.description}"
        )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        trace = generate_trace(args.scenario, args.task, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    write_trace(trace, args.out)
    print(f"wrote {len(trace.events)} events to {args.out}")
    return EXIT_OK


def _explain_once(trace, query_text: str, method: str, registry, reasoner) -> int:
    try:
        explanation = evaluation.answer(method, query_text, trace, registry, reasoner)
    except ANSWER_ERRORS as exc:
        print(evaluation.FAILURE_REPLY)
        print(f"(explanation failed: {type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_EXPLAIN
    print(explanation.text)
    print(f"produced_by: {explanation.produced_by}")
    print(f"wall_time: {explanation.wall_time:.4f}s")
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    try:
        trace = read_trace(args.trace)
        validate_trace(trace)
    except (OSError, TraceError) as exc:
        return _fail(str(exc))
    try:
        reasoner = make_reasoner(args.reasoner)
    except (ValueError, ReasonerError) as exc:
        return _fail(str(exc))
    registry = build_default_registry()
    method = _METHOD_FLAGS[args.method]

    if args.interactive:
        status = EXIT_OK
        for line in sys.stdin:
            text = line.strip()
            if not text:
                continue
            status = _explain_once(trace, text, method, registry, reasoner)
        return status
    if not args.query:
        return _fail("--query is required unless --interactive is set")
    return _explain_once(trace, args.query, method, registry, reasoner)


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        if args.manifest:
            triples = read_manifest(args.manifest)
        else:
            triples = grid_triples()
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        methods = [_METHOD_FLAGS[m.strip()] for m in args.methods.split(",") if m.strip()]
    except KeyError as exc:
        return _fail(f"unknown method {exc}")
    if not methods:
        return _fail("no methods selected")
    try:
        reasoner = make_reasoner(args.reasoner)
    except (ValueError, ReasonerError) as exc:
        return _fail(str(exc))
    records = evaluation.run_grid(methods, triples, reasoner, args.seed, jobs=args.jobs)
    evaluation.write_results_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        records = evaluation.read_results_csv(args.results)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        if args.auto_annotate:
            annotations = evaluation.auto_annotate(records)
        else:
            annotations = evaluation.read_annotations_csv(args.annotations)
        metrics, disagreement = evaluation.majority_vote(annotations)
        known = {m.sample_id for m in metrics}
        missing = [r.sample_id for r in records if r.sample_id not in known]
        if missing:
            return _fail(f"annotations missing for {len(missing)} samples, e.g. {missing[0]}")
        stats = replace(
            evaluation.compute_stats(records, metrics), disagreement_rate=disagreement
        )
        report_path, stats_path = evaluation.render_report(records, metrics, stats, args.out)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    print(f"wrote {report_path} and {stats_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexar",
        description="Hierarchical component explainers for a simulated home-assistant robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="list the evaluation scenarios")
    p.add_argument("--id", type=int, default=None, help="show a single scenario")
    p.add_argument("--manifest-out", type=Path, default=None, help="also write the grid manifest CSV")
    p.set_defaults(fn=cmd_scenarios)

    p = sub.add_parser("simulate", help="generate one trace file")
    p.add_argument("--scenario", type=int, required=True)
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("explain", help="answer a query about a trace")
    p.add_argument("--trace", type=Path, required=True)
    p.add_argument("--query", type=str, default=None)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="hexar")
    p.add_argument("--reasoner", choices=["rule", "remote"], default="rule")
    p.add_argument("--interactive", action="store_true", help="read one query per stdin line")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("evaluate", help="run the evaluation grid and write a results CSV")
    p.add_argument("--manifest", type=Path, default=None, help="grid manifest (default: full grid)")
    p.add_argument("--methods", type=str, default="hexar,end-to-end,all-components")
    p.add_argument("--reasoner", choices=["rule", "remote"], default="rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="compute metrics and statistics from results")
    p.add_argument("--results", type=Path, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--annotations", type=Path, default=None)
    group.add_argument("--auto-annotate", action="store_true")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # The reader stopped early (``| head``): point stdout at devnull so the
        # flush at exit cannot fail again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return status


if __name__ == "__main__":
    sys.exit(main())
