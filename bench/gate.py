"""Output-correctness gate, run after the timed region.

Compile ops: the ``.aut`` text must match the digest recorded for that
input at stage ``min`` (``reference.json``, keyed by a digest of the
input's source text).  The pipeline promises byte-identical graphs, so a
digest is enough.  An input with no recorded digest, such as a generated
activity of a seed that was never recorded, is checked against what the
pipeline guarantees instead: a well-formed ``.aut`` with no silent
transition and exactly one sink.

Check ops: the verdict and exit code must agree with the manifest's
known answer.  A safe manifest may end ``Verified`` or ``Exhausted``,
never ``UNSAFE``.

Every problem is returned as a message, never raised: a corrupted
reference makes ops fail, not the benchmark crash.

Re-record (only when the inputs of a workload change, never to make a
changed output pass): ``python3 bench/gate.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from workloads import (
    BENCH_DIR,
    QUOTECOMPARER,
    ROOT,
    SEQ_FAMILY,
    generated_sources,
    property_inputs,
    seq_family_source,
)

REFERENCE = BENCH_DIR / "reference.json"
RECORDED_SEEDS = range(16)

_VERIFIED = re.compile(r"Verified \((\d+) configurations\)\n\Z")
_EXHAUSTED = re.compile(
    r"Exhausted \((configuration limit|queue length limit); (\d+) configurations, "
    r"max-configs=(\d+), max-queue=(\d+)\)\n\Z"
)
_AUT_HEADER = re.compile(r"des \((\d+), (\d+), (\d+)\)\Z")
_AUT_LINE = re.compile(r'\((\d+), "([^"]*)", (\d+)\)\Z')


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference(path: Path = REFERENCE) -> dict | str:
    """The reference tables, or a message saying why they are unusable."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"reference {path.name} unreadable: {exc}"
    if not isinstance(data, dict) or not isinstance(data.get("aut"), dict) \
            or not isinstance(data.get("manifests"), dict):
        return f"reference {path.name} lacks its 'aut' and 'manifests' tables"
    return data


def aut_guarantees(text: str) -> str | None:
    """Problems with a final-stage graph that has no recorded digest."""
    lines = text.splitlines()
    header = _AUT_HEADER.match(lines[0]) if lines else None
    if header is None:
        return "output is not an .aut graph"
    init, n_trans, n_states = (int(g) for g in header.groups())
    if n_trans != len(lines) - 1:
        return f"header announces {n_trans} transitions, {len(lines) - 1} follow"
    has_out = [False] * n_states
    for line in lines[1:]:
        match = _AUT_LINE.match(line)
        if match is None:
            return f"malformed transition {line!r}"
        frm, label, to = int(match[1]), match[2], int(match[3])
        if not (0 <= frm < n_states and 0 <= to < n_states):
            return f"transition {line!r} leaves the {n_states} states"
        if label == "i":
            return "silent transition in the final stage"
        has_out[frm] = True
    if not 0 <= init < n_states:
        return f"initial state {init} outside the graph"
    sinks = has_out.count(False)
    if sinks != 1:
        return f"{sinks} sinks after min, expected one"
    return None


def _check_compile(op, rc: int, out: str, err: str, reference: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    if err:
        return f"unexpected diagnostics: {err.strip()[:200]}"
    expected = reference["aut"].get(digest(op.source))
    if expected is None:
        return aut_guarantees(out)
    if not isinstance(expected, str):
        return f"reference entry {expected!r} is not a digest"
    if digest(out) != expected:
        return f"output digest {digest(out)} differs from recorded {expected}"
    return None


def verdict(out: str) -> str | None:
    """``verified``, ``exhausted`` or ``unsafe`` from a check's stdout."""
    if _VERIFIED.match(out):
        return "verified"
    if _EXHAUSTED.match(out):
        return "exhausted"
    if out.startswith("UNSAFE\n"):
        return "unsafe"
    return None


_EXIT_OF = {"verified": 0, "unsafe": 1, "exhausted": 4}
_ALLOWED = {"safe": {"verified", "exhausted"}, "unsafe": {"unsafe", "exhausted"}}


def _check_check(op, rc: int, out: str, err: str, reference: dict) -> str | None:
    manifest = Path(op.argv[1]).resolve().relative_to(ROOT).as_posix()
    entry = reference["manifests"].get(manifest)
    if not isinstance(entry, dict) or entry.get("answer") not in _ALLOWED:
        return f"no usable known answer for {manifest} in the reference"
    found = verdict(out)
    if found is None:
        return f"unrecognised check output {out[:120]!r} (exit {rc}): {err.strip()[:200]}"
    if rc != _EXIT_OF[found]:
        return f"verdict {found} with exit code {rc}"
    if found not in _ALLOWED[entry["answer"]]:
        return f"verdict {found} on a manifest known to be {entry['answer']}"
    return None


def check_op(op, rc: int, out: str, err: str, reference: dict | str) -> str | None:
    """None when the op's result is correct, else what is wrong with it."""
    if isinstance(reference, str):
        return reference
    check = _check_compile if op.kind == "compile" else _check_check
    try:
        return check(op, rc, out, err, reference)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"reference unusable for {op.argv[1]}: {exc!r}"


def record() -> dict:
    """Digests of this commit's ``min`` output for every recorded input."""
    import io
    from contextlib import redirect_stdout

    from seb.cli import main

    sources = [(ROOT / QUOTECOMPARER).read_text(encoding="utf-8")]
    sources += [seq_family_source(n) for n in SEQ_FAMILY]
    sources += [path.read_text(encoding="utf-8") for path in property_inputs()]
    for seed in RECORDED_SEEDS:
        sources += generated_sources(seed)
    table = {}
    scratch = ROOT / ".bench_work" / "record.seb"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    for source in sources:
        key = digest(source)
        if key in table:
            continue
        scratch.write_text(source, encoding="utf-8")
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["compile", str(scratch), "--stage", "min"])
        if rc != 0:
            raise SystemExit(f"recording failed: exit {rc} on\n{source}")
        table[key] = digest(buf.getvalue())
    old = load_reference()
    manifests = old["manifests"] if isinstance(old, dict) else {}
    return {"aut": dict(sorted(table.items())), "manifests": manifests}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 bench/gate.py --record")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    data = record()
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(data['aut'])} digests in {REFERENCE}")
