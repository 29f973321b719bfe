"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``); the
test name doubles as the criterion label in ``pytest -v`` output.
"""

import time

from seb.compiler import (
    StateCapExceeded,
    build_raw_cg,
    find_confluence_violation,
    find_sink_shape_violation,
    find_tau_cycle,
    state_upper_bound,
)
from seb.configs import Unsafe, Verified, explore_safety, make_initial_config, one_step_safe, successors
from seb.control import TAU
from seb.export import to_aut
from seb.manifest import load_manifest
from seb.parser import parse_activity_file
from seb.transforms import (
    action_priority,
    build_stages,
    minimize,
    refine_partition,
    run_to_completion,
    tau_compress,
    tau_prioritize,
)

from conftest import ROOT, corpus_activities
from oracles import (
    complete_traces,
    random_activity,
    random_atomic_seq,
    sequential_reference_trace,
)

NAMED_LINKS = [f"l{i}" for i in range(1, 9)]


def report(criterion: int, text: str) -> None:
    print(f"acceptance criterion {criterion:02d} PASS: {text}")


def quotecomparer_rtc():
    act = parse_activity_file(ROOT / "corpus" / "quotecomparer.seb")
    return build_stages(act, "rtc")["rtc"]


def test_criterion_01_quotecomparer_has_five_terminal_states():
    started = time.monotonic()
    g = quotecomparer_rtc()
    elapsed = time.monotonic() - started
    sinks = g.sinks()
    assert len(sinks) == 5
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"5 terminal states after pruning, compiled in {elapsed:.2f}s")


def test_criterion_02_terminal_link_map_of_the_no_quote_outcome():
    g = quotecomparer_rtc()
    wanted_true = {"l4", "l5", "l6", "l7"}
    wanted_false = {"l1", "l2", "l3", "l8"}
    for sink in g.sinks():
        link_map = g.payloads[sink][0].as_dict()
        named_true = {l for l in NAMED_LINKS if link_map[l] is True}
        named_false = {l for l in NAMED_LINKS if link_map[l] is False}
        if named_true == wanted_true and named_false == wanted_false:
            report(2, f"terminal map has exactly {sorted(wanted_true)} true")
            return
    raise AssertionError("no terminal state carries the expected link map")


def test_criterion_03_single_sink_after_minimization():
    for path in corpus_activities():
        g = build_stages(parse_activity_file(path))["min"]
        assert len(g.sinks()) == 1, path.name
    report(3, "every corpus activity minimizes to a single sink")


def test_criterion_04_property_suite_on_generated_activities():
    started = time.monotonic()
    checked = 0
    seed = 0
    while checked < 200:
        act = random_activity(seed, depth=4)
        seed += 1
        try:
            raw = build_raw_cg(act, max_states=4000)
        except StateCapExceeded:
            continue
        assert raw.num_states <= state_upper_bound(act), f"seed {seed - 1}"
        assert find_tau_cycle(raw) is None, f"seed {seed - 1}"
        assert find_confluence_violation(raw) is None, f"seed {seed - 1}"
        assert find_sink_shape_violation(raw) is None, f"seed {seed - 1}"
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(4, f"{checked} activities, zero violations, {elapsed:.1f}s")


def test_criterion_05_stage_invariants_across_corpus_and_generated():
    subjects = [parse_activity_file(p) for p in corpus_activities()]
    seed = 0
    added = 0
    while added < 60:
        act = random_activity(seed, depth=4)
        seed += 1
        try:
            build_raw_cg(act, max_states=2000)
        except StateCapExceeded:
            continue
        subjects.append(act)
        added += 1

    for n, act in enumerate(subjects):
        raw = build_raw_cg(act, max_states=100_000)
        prio = tau_prioritize(raw)
        out = prio.outgoing()
        for state in prio.states:
            kinds = {a == TAU for a, _ in out[state]}
            assert len(kinds) <= 1, f"subject {n}: mixed state {state}"
        compressed = tau_compress(prio)
        assert all(a != TAU for _, a, _ in compressed.transitions), f"subject {n}"
        pruned = run_to_completion(compressed)
        out = pruned.outgoing()
        for state in pruned.states:
            classes = {action_priority(a) for a, _ in out[state]}
            assert len(classes) <= 1, f"subject {n}: state {state}"
        minimal = minimize(pruned)
        block = refine_partition(minimal)
        assert len(set(block)) == minimal.num_states, f"subject {n}"
    report(5, f"stage invariants hold on {len(subjects)} subjects")


def test_criterion_06_seq_desugaring_matches_sequential_reference():
    checked = 0
    for seed in range(100):
        seq = random_atomic_seq(seed, max_len=5)
        reference = {sequential_reference_trace(seq)}
        raw = build_raw_cg(seq)
        assert complete_traces(raw) == reference, f"seed {seed} (raw)"
        final = build_stages(seq)["min"]
        assert complete_traces(final) == reference, f"seed {seed} (compiled)"
        checked += 1
    assert checked >= 100
    report(6, f"{checked} random sequences match the reference interpreter")


def test_criterion_07_pingpong_verified_quickly():
    started = time.monotonic()
    loaded = load_manifest(ROOT / "corpus" / "pingpong.cfg")
    result = explore_safety(list(loaded.services), loaded.client)
    elapsed = time.monotonic() - started
    assert isinstance(result, Verified), result
    assert result.configurations < 200
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(
        7,
        f"verified with full exhaustion, {result.configurations} configurations, "
        f"{elapsed:.3f}s",
    )


def test_criterion_08_mismatch_unsafe_with_replayable_witness_trace():
    loaded = load_manifest(ROOT / "fixtures" / "mismatch.cfg")
    result = explore_safety(list(loaded.services), loaded.client)
    assert isinstance(result, Unsafe)

    config = make_initial_config(list(loaded.services), loaded.client)
    for step in result.trace:
        assert step in successors(config), "trace step not derivable"
        config = step.result

    witness = one_step_safe(config)
    assert witness is not None
    # the witnessing instance is open on the session but no enabled
    # reception matches the queue head's operation
    instance = next(
        inst
        for idx, inst in enumerate(config.instances)
        if f"{inst.origin}[{idx}]" == witness.instance
    )
    receptions = {
        (a.op, len(a.params))
        for a, _ in instance.graph.outgoing()[instance.state]
        if a.__class__.__name__ == "Recv" and a.s == witness.session_var
    }
    assert receptions, "instance not open at the witness state"
    assert (witness.op, witness.arity) not in receptions
    report(8, f"unsafe witness replayed over {len(result.trace)} steps")


def test_criterion_09_byte_identical_reruns():
    act_path = ROOT / "corpus" / "quotecomparer.seb"
    one = to_aut(build_stages(parse_activity_file(act_path))["min"])
    two = to_aut(build_stages(parse_activity_file(act_path))["min"])
    assert one == two

    loaded = load_manifest(ROOT / "corpus" / "pingpong.cfg")
    res_one = explore_safety(list(loaded.services), loaded.client)
    reloaded = load_manifest(ROOT / "corpus" / "pingpong.cfg")
    res_two = explore_safety(list(reloaded.services), reloaded.client)
    assert res_one == res_two
    report(9, "recompilation and re-exploration are byte-identical")


def test_criterion_10_acceptance_pins_counts_not_state_ids():
    # State numberings are an artifact of exploration order; only counts
    # and link-map contents are contractual.  The counts asserted by
    # criteria 1-3 must be stable across independent compilations.
    g1 = quotecomparer_rtc()
    g2 = quotecomparer_rtc()
    assert g1.num_states == g2.num_states
    assert len(g1.sinks()) == len(g2.sinks()) == 5
    report(10, "counts and link maps pinned; state ids left free")
