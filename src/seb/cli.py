"""Command-line front end.

Subcommands: ``validate`` (well-formedness and variable reports),
``compile`` (pipeline stages to .aut or DOT), ``check`` (bounded
interaction-safety exploration) and ``simulate`` (seeded random runs).

Exit codes: 0 success/verified, 1 diagnostics reported or unsafe,
2 input errors (syntax, I/O, manifest), 3 state cap exceeded,
4 exploration exhausted its limits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compiler import StateCapExceeded
from .configs import Exhausted, Unsafe, Verified, explore_safety, simulate
from .export import to_aut, to_dot
from .manifest import ManifestError, load_manifest
from .parser import SebSyntaxError, parse_activity
from .transforms import STAGES, build_stages, check_stage_invariants
from .variables import classify_occurrences
from .wellformed import validate_well_formed

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_EXHAUSTED = 4


def _read_activity(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(_input_error(f"{path}: {exc.strerror or exc}"))
    try:
        return parse_activity(text)
    except SebSyntaxError as exc:
        raise SystemExit(_input_error(f"{path}: {exc}"))


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def cmd_validate(args) -> int:
    results = []
    for path in args.files:
        act = _read_activity(path)
        results.append((act, validate_well_formed(act)))

    status = EXIT_OK
    for path, (act, diagnostics) in zip(args.files, results):
        if diagnostics:
            status = EXIT_DIAGNOSTICS
            for d in diagnostics:
                print(f"{path}: {d}")
        else:
            print(f"{path}: ok")
            if args.report_vars:
                report = classify_occurrences(act)
                print(f"  all:     {', '.join(sorted(report.all_vars)) or '-'}")
                print(f"  binding: {', '.join(sorted(report.binding)) or '-'}")
                print(f"  usage:   {', '.join(sorted(report.usage)) or '-'}")
                print(f"  free:    {', '.join(sorted(report.free)) or '-'}")
                for d in report.forbidden:
                    print(f"  forbidden: {d}")
    return status


def cmd_compile(args) -> int:
    act = _read_activity(args.file)
    diagnostics = validate_well_formed(act)
    if diagnostics:
        for d in diagnostics:
            print(f"{args.file}: {d}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    try:
        stages = build_stages(
            act,
            "min" if args.check_properties else args.stage,
            from_raw=args.check_properties,
            max_states=args.max_states,
        )
    except StateCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP

    if args.check_properties:
        failed = False
        for report in check_stage_invariants(act, stages):
            for problem in report.problems:
                failed = True
                print(f"{args.file}: [{report.stage}] {problem}", file=sys.stderr)
        if failed:
            return EXIT_DIAGNOSTICS
    graph = stages[args.stage]
    if not args.keep_payloads:
        graph = graph.without_payloads()

    text = to_dot(graph, show_payloads=args.keep_payloads) if args.format == "dot" else to_aut(graph)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load(args):
    try:
        return load_manifest(args.manifest)
    except OSError as exc:
        raise SystemExit(_input_error(f"{args.manifest}: {exc.strerror or exc}"))
    except ManifestError as exc:
        raise SystemExit(_input_error(str(exc)))


def cmd_check(args) -> int:
    loaded = _load(args)
    result = explore_safety(
        list(loaded.services),
        loaded.client,
        max_configs=args.max_configs,
        max_queue_len=args.max_queue,
    )
    if isinstance(result, Verified):
        print(f"Verified ({result.configurations} configurations)")
        return EXIT_OK
    if isinstance(result, Unsafe):
        print("UNSAFE")
        if result.witness is not None:
            print(f"witness: {result.witness.render()}")
        if result.fault is not None:
            print(f"fault: {result.fault}")
        if args.trace:
            for n, step in enumerate(result.trace, start=1):
                print(f"{n}: {step.render()}")
        return EXIT_DIAGNOSTICS
    assert isinstance(result, Exhausted)
    print(
        f"Exhausted ({result.reason}; {result.configurations} configurations, "
        f"max-configs={result.max_configs}, max-queue={result.max_queue_len})"
    )
    return EXIT_EXHAUSTED


def cmd_simulate(args) -> int:
    loaded = _load(args)
    result = simulate(
        list(loaded.services), loaded.client, steps=args.steps, seed=args.seed
    )
    for n, step in enumerate(result.steps, start=1):
        print(f"{n}: {step.render()}")
    if result.quiescent_at is not None:
        print(f"quiescent at step {result.quiescent_at}")
    final = result.final
    if final.fault is not None:
        print(f"fault: {final.fault}")
        return EXIT_DIAGNOSTICS
    print(f"instances: {len(final.instances)}")
    queued = sum(len(items) for _, items in final.queues)
    print(f"queued messages: {queued}")
    for dest, items in final.queues:
        print(f"  {dest.render()}: {', '.join(m.render() for m in items)}")
    print(f"bindings: {len(final.bindings)}")
    for a, b in final.bindings:
        print(f"  {a.render()} ~ {b.render()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seb",
        description="Compile, analyze and check SeB orchestration activities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check well-formedness of activity files")
    p.add_argument("files", nargs="+")
    p.add_argument("--report-vars", action="store_true", help="print variable reports")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compile", help="compile an activity to a control graph")
    p.add_argument("file")
    p.add_argument("--stage", choices=STAGES, default="min")
    p.add_argument("--format", choices=("aut", "dot"), default="aut")
    p.add_argument("-o", "--output", help="write the graph here instead of stdout")
    p.add_argument(
        "--check-properties",
        action="store_true",
        help="verify structural properties and stage invariants first",
    )
    p.add_argument(
        "--keep-payloads",
        action="store_true",
        help="keep state payloads; DOT labels then show true links",
    )
    p.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="safety cap on raw state count (default 1000000)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="explore a configuration for interaction safety")
    p.add_argument("manifest")
    p.add_argument("--max-configs", type=int, default=100_000)
    p.add_argument("--max-queue", type=int, default=16)
    p.add_argument("--trace", action="store_true", help="print the witness trace")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run random steps through a configuration")
    p.add_argument("manifest")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
