#!/usr/bin/env python3
"""Benchmark of the ``seb`` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One process runs one workload; ops run one at a time on one thread
(a closed loop with a single client), because ``seb`` is single-threaded,
CPU-bound pure Python.  The run repeats passes over the workload's ops
until ``S`` seconds have gone, finishing the op under way, and checks
every op's output outside the timed region (``gate.py``).  Op and set-up
times are scaled by the host's speed, sampled while they ran
(``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (``tracing.py``).  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("properties-mix", "compile-min-mix", "check-looping", "check-qc-deployed")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 20
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_tree() -> None:
    """Stop early, without a result, outside a complete checkout."""
    for needed in ("src/seb/cli.py", "tests/oracles.py", "corpus/quotecomparer.seb"):
        if not (ROOT / needed).is_file():
            _fail(f"{needed} not found under {ROOT}; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]


def _time_setups(args, host) -> list[tuple[float, float]]:
    """(start, end) of fresh processes that start, import seb and write inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    spans = []
    for _ in range(SETUP_REPEATS):
        host.sample_for(3)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _fail(f"set-up took longer than {SETUP_TIMEOUT_S} s")
        spans.append((start, time.perf_counter()))
        if proc.returncode != 0:
            _fail(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()}")
    host.sample_for(3)
    return spans


def _run_op(op, main, tracer):
    """Run one op; return (start, end, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    argv = list(op.argv)
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.span("op", main, (argv,))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = None
            print(f"raised {exc!r}", file=err)
        end = time.perf_counter()
    return start, end, rc, out.getvalue(), err.getvalue()


def tail(durations: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _code_digest() -> str:
    """Digest of everything the exact counts depend on."""
    files = [*(ROOT / "src" / "seb").glob("*.py"), ROOT / "tests" / "oracles.py",
             *(ROOT / "corpus").iterdir(),
             *(p for p in BENCH_DIR.rglob("*") if p.is_file() and "__pycache__" not in p.parts)]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _compare_with_earlier_run(args, counts: dict) -> str | None:
    """Exact counts must repeat across traced runs of the same code."""
    record = ROOT / ".bench_work" / (
        f"{args.workload}-{args.seed}-{_code_digest()}.counts.json"
    )
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        changed = sorted(k for k in counts if earlier.get(k) != counts[k])
        if changed:
            return "counts differ from an earlier traced run: " + ", ".join(
                f"{k} {earlier.get(k)} -> {counts[k]}" for k in changed
            )
        return None
    record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return None


def measure(args) -> dict:
    import gate
    import tracing
    import workloads
    from hostspeed import HostSpeed
    from seb.cli import main

    host = HostSpeed()
    setups = _time_setups(args, host)
    ops = workloads.build(args.workload, args.seed)
    reference = gate.load_reference()
    tracer = tracing.Tracer() if args.trace else None

    op_spans: list[list[tuple]] = [[] for _ in ops]  # per input: (start, end)
    pass_spans = {False: [], True: []}  # (start, end) of each op of complete passes
    layer_passes: list[dict] = []
    spans: list[tuple] = []
    problems: list[str] = []
    attempted = failed = checks = decided = 0

    def run_pass(traced: bool, deadline: float | None = None) -> None:
        """One pass over the ops; an untraced pass stops at ``deadline``.

        Only complete passes enter the metrics, so that every figure is
        taken over the same mix of ops; ops of a cut pass are still checked.
        """
        nonlocal attempted, failed, checks, decided
        gc.collect()
        results = []
        if traced:
            tracer.reset()
        # Traced passes run without the host-speed timer, whose samples
        # would land inside the layers' spans.
        with tracing.Installed(tracer) if traced else host:
            for op in ops:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                results.append((op, _run_op(op, main, tracer if traced else None)))
        if len(results) == len(ops):
            pass_spans[traced].append([r[:2] for _, r in results])
            if traced:
                layer_passes.append(tracing.layer_metrics(tracer))
                spans.extend(tracer.spans)
            else:
                for per_input, (_, r) in zip(op_spans, results):
                    per_input.append(r[:2])
        # Correctness, outside the timed region.
        for op, (_, _, rc, out, err) in results:
            attempted += 1
            problem = gate.check_op(op, rc, out, err, reference)
            if problem is not None:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"{' '.join(op.argv)}: {problem}")
            if op.kind == "check":
                checks += 1
                decided += gate.verdict(out) in ("verified", "unsafe")

    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + args.seconds
    while True:
        run_pass(False, deadline if pass_spans[False] else None)
        if args.trace:
            run_pass(True)
        if time.perf_counter() >= deadline:
            break
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    def scaled(intervals):
        return [host.scale(*interval) for interval in intervals]

    pass_times = [sum(scaled(p)) for p in pass_spans[False]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "pass_times": pass_times,
        "traced_passes": len(pass_spans[True]),
        "wall_s": wall,
        "setups": scaled(setups),
        "setups_wall": [end - start for start, end in setups],
        "op_times": [scaled(per_input) for per_input in op_spans],
        "op_walls": [[host.own_time(*span) for span in per_input] for per_input in op_spans],
        "slowdown": host.mean_slowdown(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "decided": decided,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if args.trace:
        layers = dict(layer_passes[0])
        for name in layers:
            if name in tracing.EXACT:
                if any(p[name] != layers[name] for p in layer_passes):
                    problems.append(f"{name} differs between traced passes")
            else:
                layers[name] = statistics.median(p[name] for p in layer_passes)
        counts = {k: v for k, v in layers.items() if k in tracing.EXACT}
        mismatch = _compare_with_earlier_run(args, counts)
        if mismatch:
            problems.append(mismatch)
        layers["proc.cpu_ratio"] = cpu / wall
        layers["host.slowdown_ratio"] = report["slowdown"]
        layers["trace.overhead_ratio"] = statistics.median(
            sum(end - start for start, end in p) for p in pass_spans[True]
        ) / statistics.median(sum(host.own_time(*span) for span in p)
                              for p in pass_spans[False])
        report["layers"] = layers
        _write_spans(args, spans)
    return report


def _write_spans(args, spans) -> None:
    path = ROOT / ".bench_work" / f"{args.workload}-{args.seed}.spans.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def render(report: dict, traced: bool) -> dict:
    """Print the human-readable report; return the JSON result object."""
    per_input = report["op_times"]
    ops = [t for times in per_input for t in times]
    passes = report["pass_times"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{len(passes)} complete untraced passes of {report['ops_per_pass']} ops"
          f"{', %d traced' % report['traced_passes'] if traced else ''}, "
          f"{report['wall_s']:.1f} s measured")
    # Times are scaled to the host's usual speed (hostspeed.py); each
    # input's time is its median over the run's passes.
    typical = [statistics.median(times) for times in per_input]
    e2e = {
        "setup_s": statistics.median(report["setups"]),
        "op_p50_s": statistics.median(typical),
        "ops_per_s": len(ops) / sum(ops),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    walls = [statistics.median(times) for times in report["op_walls"]]
    notes = {
        "setup_s": f"median of {len(report['setups'])} set-ups "
                   f"(unscaled {statistics.median(report['setups_wall']):.4g} s)",
        "op_p50_s": f"median over {len(per_input)} inputs of their median op time "
                    f"(unscaled {statistics.median(walls):.4g} s)",
        "ops_per_s": f"{len(ops)} ops over their summed time "
                     f"(unscaled {len(ops) / sum(map(sum, report['op_walls'])):.4g})",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    rows = [(k, e2e[k], E2E_UNITS[k], notes[k]) for k in e2e]
    found = tail(ops)
    if found is None:
        rows.append(("op_tail_s", None, "s", f"omitted: {len(ops)} ops, needs 40"))
    else:
        rows.append(("op_tail_s", found[1], "s", f"p{found[0]:g} of {len(ops)} ops"))
    if report["checks"]:
        rows.append(("decided_ratio", report["decided"] / report["checks"], "ratio",
                     f"{report['decided']} of {report['checks']} checks Verified or UNSAFE"))
    else:
        rows.append(("decided_ratio", None, "ratio", "omitted: no check ops"))
    rows.append(("fail_ratio", report["failed"] / report["attempted"], "ratio",
                 f"{report['failed']} of {report['attempted']} ops"))
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>12} {unit:<6} {note}")
    print(f"  host slowdown {report['slowdown']:.3g} (reference loop's time over its usual time)")
    for problem in report["problems"]:
        print(f"  FAIL {problem}")

    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if traced:
        print("  per layer (traced passes):")
        metrics = {}
        for name, value in report["layers"].items():
            unit = _layer_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"    {name:<28} {value:>14.6g} {unit}")
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _check_tree()
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        import seb.cli  # noqa: F401
        import workloads

        workloads.build(args.workload, args.seed)
        return 0
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    report = measure(args)
    (ROOT / ".bench_work" / f"{args.workload}-{args.seed}.report.json").write_text(
        json.dumps(report), encoding="utf-8")
    result = render(report, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
