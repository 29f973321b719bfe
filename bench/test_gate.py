"""Self-test of the benchmark's correctness gate and tracer.

    python3 -m pytest bench/test_gate.py -q

A corrupted reference must show up as failed ops, never as a crash of
the benchmark; the gate must accept what this commit produces.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from seb.cli import main  # noqa: E402

SEQ25 = workloads.seq_family_source(25)


def _compile(tmp_path: Path, source: str):
    path = tmp_path / "input.seb"
    path.write_text(source, encoding="utf-8")
    op = workloads.Op(("compile", str(path), "--stage", "min"), "compile", source)
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(op.argv))
    return op, rc, buf.getvalue()


def test_recorded_digest_accepts_this_commit(tmp_path):
    op, rc, out = _compile(tmp_path, SEQ25)
    assert gate.check_op(op, rc, out, "", gate.load_reference()) is None


def test_corrupted_digest_is_a_failure(tmp_path):
    op, rc, out = _compile(tmp_path, SEQ25)
    reference = gate.load_reference()
    reference["aut"][gate.digest(SEQ25)] = "0" * 16
    problem = gate.check_op(op, rc, out, "", reference)
    assert problem is not None and "differs from recorded" in problem


def test_malformed_reference_entries_are_failures(tmp_path):
    op, rc, out = _compile(tmp_path, SEQ25)
    reference = gate.load_reference()
    reference["aut"][gate.digest(SEQ25)] = 42
    assert "not a digest" in gate.check_op(op, rc, out, "", reference)
    reference["aut"] = None
    assert "reference unusable" in gate.check_op(op, rc, out, "", reference)


def test_unreadable_reference_file_is_a_failure(tmp_path):
    broken = tmp_path / "reference.json"
    broken.write_text('{"aut": {', encoding="utf-8")
    reference = gate.load_reference(broken)
    assert isinstance(reference, str)
    op, rc, out = _compile(tmp_path, SEQ25)
    assert gate.check_op(op, rc, out, "", reference) == reference


def test_unrecorded_input_falls_back_to_guarantees(tmp_path):
    source = "(seq (ses s p) (inv s ping (x)) (rec s pong (y)))\n"
    op, rc, out = _compile(tmp_path, source)
    reference = gate.load_reference()
    assert gate.digest(source) not in reference["aut"]
    assert gate.check_op(op, rc, out, "", reference) is None
    assert "silent" in gate.aut_guarantees('des (0, 1, 2)\n(0, "i", 1)\n')
    assert "2 sinks" in gate.aut_guarantees('des (0, 1, 3)\n(0, "a", 1)\n')


def test_check_verdicts_against_known_answer():
    argv = ("check", str(ROOT / workloads.LOOPING), "--max-configs", "10")
    op = workloads.Op(argv, "check")
    reference = gate.load_reference()
    exhausted = ("Exhausted (configuration limit; 10 configurations, "
                 "max-configs=10, max-queue=16)\n")
    assert gate.check_op(op, 4, exhausted, "", reference) is None
    assert gate.check_op(op, 0, "Verified (12 configurations)\n", "", reference) is None
    assert "known to be safe" in gate.check_op(op, 1, "UNSAFE\n", "", reference)
    assert "exit code" in gate.check_op(op, 0, exhausted, "", reference)
    corrupted = json.loads(json.dumps(reference))
    corrupted["manifests"][workloads.LOOPING] = {"answer": "maybe"}
    assert "no usable known answer" in gate.check_op(op, 4, exhausted, "", corrupted)


def test_tracer_reaches_every_importing_namespace_and_restores_it():
    import seb.transforms
    import seb.variables
    from seb.control import ControlGraph

    original = seb.variables.build_prioritized_cg
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        assert seb.transforms.build_prioritized_cg is seb.variables.build_prioritized_cg
        assert seb.variables.build_prioritized_cg.__wrapped__ is original
        seb.variables.free_vars(seb.parse_activity(SEQ25))
    assert seb.variables.build_prioritized_cg is original
    assert "__wrapped__" not in vars(ControlGraph.outgoing)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["compiler.closure_calls"] == 1
    assert metrics["variables.free_vars_calls"] == 1
    assert metrics["control.outgoing_calls"] >= 1
    # Self time excludes nested spans, so it never exceeds the total.
    assert 0 <= tracer.self_time["variables.free_vars"] <= tracer.total["variables.free_vars"]


def test_host_speed_scales_by_the_samples_near_an_op():
    import hostspeed

    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # Of the samples at 0.0, 1.0 and 5.0, only the one at 1.0 lies within
    # the window around the op from 0.9 to 1.5; it ran at half speed.
    host.starts = [0.0, 1.0, 5.0]
    host.ends = [2 * ref, 1.0 + 2 * ref, 5.0 + ref]
    assert abs(host.own_time(0.9, 1.5) - (0.6 - 2 * ref)) < 1e-12
    assert abs(host.slowdown(0.9, 1.5) - 2.0) < 1e-9
    assert abs(host.scale(0.9, 1.5) - (0.6 - 2 * ref) / 2) < 1e-12
