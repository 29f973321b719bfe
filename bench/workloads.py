"""The four workloads: their inputs and their ops.

An op is one ``seb`` command line, run in-process through
``seb.cli.main`` so that every op re-reads and re-parses its input, as a
fresh ``seb`` process would; per-node memo attributes of parsed trees
(``_hash``, ``_srcs``, ``_okey``) can therefore never carry over from one
op to the next.

Why each workload exists is written down in ``README.md`` next to this
file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

QUOTECOMPARER = "corpus/quotecomparer.seb"
LOOPING = "corpus/looping.cfg"
PROPERTIES_DIR = "bench/inputs/properties"
QC_DEPLOYED = "bench/inputs/qc-deployed/deployed.cfg"

LOOPING_MAX_CONFIGS = 2_000
QC_DEPLOYED_MAX_CONFIGS = 10_000

# compile-min-mix: generated activities per batch, their depth, the
# fixed `seq` family, the cap on estimated interleaving width, how many
# candidates are drawn per activity kept, and how many candidates of
# about the right length each pick chooses from.
GENERATED_PER_BATCH = 100
GENERATED_DEPTH = 5
SEQ_FAMILY = (25, 50, 100)
MAX_WIDTH = 2048
CANDIDATES_PER_PICK = 10
NEAREST = 9
# The text lengths the batch aims at: a geometric ladder from 10 to 600
# characters, the same for every seed.
TARGET_LENGTHS = tuple(10 * 60 ** (i / (GENERATED_PER_BATCH - 1))
                       for i in range(GENERATED_PER_BATCH))


@dataclass(frozen=True)
class Op:
    """One command line; a compile op also keeps the text it compiles."""

    argv: tuple[str, ...]
    kind: str  # "compile" or "check"
    source: str | None = None  # compile ops: text of the input activity


def seq_family_source(n: int) -> str:
    return "(seq" + " (flo (nil))" * n + ")\n"


def interleaving_width(act) -> int:
    """A structural estimate of how many interleavings an activity has.

    Parallel children multiply, sequential ones add.  It ignores links,
    so it overestimates, but on 300 draws at depth 5 every activity whose
    ``--stage min`` compile took over 0.3 s scored above 9,000, and none
    scoring under 2,048 took over 0.1 s.  It is computed here, not by the
    package, so that a change to the compiler cannot change which inputs
    a seed selects.
    """
    from seb.syntax import Flo, Inv, Nil, Pic, Rec, Rep, Seq, Ses

    if isinstance(act, Nil):
        return 1
    if isinstance(act, (Ses, Inv, Rec)):
        return 2
    if isinstance(act, Seq):
        return sum(interleaving_width(c) for c in act.children)
    if isinstance(act, Flo):
        width = 1
        for child in act.children:
            width *= interleaving_width(child)
        return width
    if isinstance(act, Pic):
        return sum(interleaving_width(c) + 1 for _, c in act.branches) + 1
    if isinstance(act, Rep):
        return interleaving_width(act.do_pic) + interleaving_width(act.until_pic)
    raise TypeError(f"not an activity: {act!r}")


def generated_sources(seed: int) -> list[str]:
    """``GENERATED_PER_BATCH`` activities from the test generator, drawn from ``seed``.

    The generator's output is heavy-tailed and lumpy: about 40% of its
    activities are 10 to 16 characters long, and the rest spread out to
    600, so the median of a plain draw falls on a cliff and moved from 36
    to 90 characters between seeds.  So ``CANDIDATES_PER_PICK`` times as
    many are drawn and those wider than ``MAX_WIDTH`` are dropped.  Then,
    for each of ``TARGET_LENGTHS``, the ``NEAREST`` unused candidates
    closest to it in length are taken, and the one of middle width kept.
    Every seed then gets the same sizes, but different activities.  The
    heavy tail of the workload comes from the fixed ``seq`` family.
    """
    from oracles import ActivityGenerator
    from seb.syntax import to_source

    rng = random.Random(seed)
    candidates = []
    while len(candidates) < GENERATED_PER_BATCH * CANDIDATES_PER_PICK:
        act = ActivityGenerator(rng).activity(GENERATED_DEPTH)
        width = interleaving_width(act)
        if width <= MAX_WIDTH:
            source = to_source(act) + "\n"
            candidates.append((len(source), width, source))
    candidates.sort()
    picks = []
    for target in TARGET_LENGTHS:
        near = sorted(range(len(candidates)),
                      key=lambda k: (abs(candidates[k][0] - target), k))[:NEAREST]
        near.sort(key=lambda k: (candidates[k][1], k))
        picks.append(candidates.pop(near[NEAREST // 2])[2])
    return picks


def property_inputs() -> list[Path]:
    """The fixed inputs of ``properties-mix`` (chosen as ``README.md`` says)."""
    return sorted((ROOT / PROPERTIES_DIR).glob("*.seb"))


def _compile_op(path: Path, source: str) -> Op:
    return Op(("compile", str(path), "--stage", "min"), "compile", source)


def build(name: str, seed: int) -> tuple[Op, ...]:
    """Write the inputs of a workload under ``.bench_work``; return one pass of ops.

    The seed draws the generated part of ``compile-min-mix`` and the
    order of the ``properties-mix`` inputs; the two check workloads run
    one fixed input, so every seed gives them the same op.
    """
    if name == "properties-mix":
        paths = property_inputs()
        random.Random(seed).shuffle(paths)
        return tuple(
            Op(("compile", str(path), "--check-properties"), "compile",
               path.read_text(encoding="utf-8"))
            for path in paths
        )
    if name == "compile-min-mix":
        work = WORK_DIR / f"{name}-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, source in enumerate(generated_sources(seed)):
            path = work / f"gen{i:03d}.seb"
            path.write_text(source, encoding="utf-8")
            ops.append(_compile_op(path, source))
        qc = ROOT / QUOTECOMPARER
        ops.append(_compile_op(qc, qc.read_text(encoding="utf-8")))
        for n in SEQ_FAMILY:
            path = work / f"seq{n}.seb"
            source = seq_family_source(n)
            path.write_text(source, encoding="utf-8")
            ops.append(_compile_op(path, source))
        return tuple(ops)
    if name == "check-looping":
        argv = ("check", str(ROOT / LOOPING), "--max-configs", str(LOOPING_MAX_CONFIGS))
        return (Op(argv, "check"),)
    if name == "check-qc-deployed":
        argv = ("check", str(ROOT / QC_DEPLOYED),
                "--max-configs", str(QC_DEPLOYED_MAX_CONFIGS))
        return (Op(argv, "check"),)
    raise ValueError(f"unknown workload '{name}'")
