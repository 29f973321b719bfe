"""Command-line front end.

Subcommands: ``validate`` (well-formedness and variable reports),
``compile`` (pipeline stages to .aut or DOT), ``check`` (bounded
interaction-safety exploration) and ``simulate`` (seeded random runs).

Exit codes: 0 success/verified, 1 diagnostics reported or unsafe,
2 input errors (syntax, I/O, manifest), 3 state cap exceeded or out of
memory, 4 exploration exhausted its limits, 5 internal error (any other
exception, reported on one stderr line without a traceback).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .compiler import DEFAULT_STATE_CAP, StateCapExceeded
from .configs import DEFAULT_MAX_CONFIGS, DEFAULT_MAX_QUEUE
from .configs import Exhausted, Unsafe, Verified, explore_safety, simulate
from .export import to_aut, to_dot
from .manifest import load_manifest
from .parser import InputError, parse_activity_file
from .transforms import STAGES, build_stages, check_properties
from .variables import classify_occurrences, free_vars
from .wellformed import validate_well_formed

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_EXHAUSTED = 4
EXIT_INTERNAL = 5
_OUT_OF_MEMORY = b"error: out of memory\n"  # made before any work, which may use up memory


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def cmd_validate(args) -> int:
    results = []
    for path in args.files:
        act = parse_activity_file(path)
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
                print(f"  free:    {', '.join(sorted(free_vars(act))) or '-'}")
                for d in report.forbidden:
                    print(f"  forbidden: {d}")
    return status


def cmd_compile(args) -> int:
    act = parse_activity_file(args.file)
    diagnostics = validate_well_formed(act)
    if diagnostics:
        for d in diagnostics:
            print(f"{args.file}: {d}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    if args.check_properties:
        stages, reports = check_properties(act, args.max_states)
        failed = False
        for report in reports:
            for problem in report.problems:
                failed = True
                print(f"{args.file}: [{report.stage}] {problem}", file=sys.stderr)
        if failed:
            return EXIT_DIAGNOSTICS
    else:
        stages = build_stages(act, args.stage, max_states=args.max_states)
    graph = stages[args.stage]
    if not args.keep_payloads:
        graph = graph.without_payloads()

    text = to_dot(graph) if args.format == "dot" else to_aut(graph)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"{args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    loaded = load_manifest(args.manifest)
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
    loaded = load_manifest(args.manifest)
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
        type=_int_at_least(1),
        default=DEFAULT_STATE_CAP,
        help="safety cap on the states the closure explores for the "
        "requested stage (default %(default)s)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="explore a configuration for interaction safety")
    p.add_argument("manifest")
    p.add_argument("--max-configs", type=_int_at_least(1), default=DEFAULT_MAX_CONFIGS)
    p.add_argument("--max-queue", type=_int_at_least(0), default=DEFAULT_MAX_QUEUE)
    p.add_argument("--trace", action="store_true", help="print the witness trace")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run random steps through a configuration")
    p.add_argument("manifest")
    p.add_argument("--steps", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    # A command's values hold no reference cycles whose count grows with the
    # states it builds, so the cyclic collector would only rescan live
    # objects; it is paused for the command and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StateCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        exc.__traceback__ = None  # frees the work's frames and what they hold
        os.write(2, _OUT_OF_MEMORY)
        return EXIT_CAP
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
