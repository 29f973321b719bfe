#!/usr/bin/env python3
"""Reproduce the baseline table of ROADMAP item 1 with the benchmark's tools.

    python3 bench/baseline.py

Runs each row once or a few times through ``seb.cli.main`` (the layer
rows inside one traced ``compile --check-properties`` of quotecomparer)
and prints a markdown table next to the ROADMAP's figures.  It takes
about ten minutes, most of it the 20,000-configuration ``looping.cfg``
check and the tier-1 suite; the results are copied into ``README.md``.
"""

from __future__ import annotations

import io
import os
import re
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from seb.cli import main  # noqa: E402

QC = str(ROOT / workloads.QUOTECOMPARER)
LOOPING = str(ROOT / workloads.LOOPING)


def cli(argv: list[str]) -> tuple[float, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        main(argv)
        seconds = time.perf_counter() - start
    return seconds, out.getvalue()


def median_time(argv: list[str], repeats: int) -> tuple[float, str]:
    runs = [cli(argv) for _ in range(repeats)]
    return statistics.median(t for t, _ in runs), runs[0][1]


def main_table() -> None:
    rows = []
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        cli(["compile", QC, "--check-properties"])
    m = tracing.layer_metrics(tracer)
    rows.append(("quotecomparer, raw closure",
                 "53,494 states, 286,083 transitions, 8.9 s",
                 f"{m['compiler.raw_states']:,} states, "
                 f"{m['compiler.raw_transitions']:,} transitions, {m['compiler.raw_s']:.1f} s"))
    calls = m["compiler.confluence_calls"]
    rows.append(("quotecomparer, confluence check", "4.3 s",
                 f"{m['compiler.confluence_s'] / calls:.1f} s per call, {calls} calls per "
                 "`--check-properties`"))
    rows.append(("quotecomparer, prioritize on raw", "2.3 s",
                 f"{tracer.total['transforms.prioritize']:.1f} s with its own validation, "
                 f"{m['transforms.prioritize_s']:.1f} s self"))
    seconds, out = median_time(["compile", QC, "--stage", "min"], 5)
    states = re.match(r"des \(\d+, \d+, (\d+)\)", out)[1]
    rows.append(("quotecomparer, full `min` pipeline", "0.46 s, 21 states",
                 f"{seconds:.2f} s, {states} states (median of 5)"))
    loop_2k, _ = median_time(["check", LOOPING, "--max-configs", "2000"], 3)
    loop_20k, _ = cli(["check", LOOPING, "--max-configs", "20000"])
    rows.append(("`looping.cfg`, 2k / 20k configurations", "3.3–4.0 s / 391 s",
                 f"{loop_2k:.1f} s (median of 3) / {loop_20k:.0f} s"))
    seq_dir = ROOT / ".bench_work" / "baseline"
    seq_dir.mkdir(parents=True, exist_ok=True)
    seq_times = []
    for n in workloads.SEQ_FAMILY:
        path = seq_dir / f"seq{n}.seb"
        path.write_text(workloads.seq_family_source(n), encoding="utf-8")
        seq_times.append(median_time(["compile", str(path), "--stage", "min"], 3)[0])
    rows.append(("`seq` of n silent flows, n = 25 / 50 / 100", "0.04 / 0.42 / 6.3 s",
                 " / ".join(f"{t:.2f}" for t in seq_times) + " s (median of 3)"))
    start = time.perf_counter()
    suite = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=1"],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    suite_s = time.perf_counter() - start
    slowest = re.search(r"^([\d.]+)s call\s+\S+::(\S+)", suite.stdout, re.M)
    passed = re.search(r"(\d+) passed", suite.stdout)
    rows.append(("Tier-1 suite", "40 s, of which `test_criterion_05_…` is 20.6 s",
                 f"{suite_s:.0f} s, {passed[1] if passed else '?'} passed; slowest "
                 f"`{slowest[2] if slowest else '?'}` {slowest[1] if slowest else '?'} s"))
    print("| Workload | ROADMAP | This benchmark |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main_table()
