import pytest

from seb.compiler import build_prioritized_cg, build_raw_cg, check_raw_properties
from seb.control import ControlGraph, Recv, Send, SesInit, TAU, sorted_transitions
from seb.export import to_aut, to_dot
from seb.parser import parse_activity, parse_activity_file
from seb.syntax import Flo, Inv, Nil
from seb.transforms import (
    STAGES,
    TransformPreconditionError,
    build_stages,
    check_stage_invariants,
    minimize,
    refine_partition,
    run_to_completion,
    tau_compress,
    tau_prioritize,
)
from seb.wellformed import validate_well_formed

from conftest import ROOT, corpus_activities
from oracles import (
    branching_bisimilar,
    complete_traces,
    random_activity,
    small_random_activities,
    strongly_bisimilar,
)


def graph(init, transitions, n=None):
    n = n if n is not None else 1 + max(
        [init] + [f for f, _, _ in transitions] + [t for _, _, t in transitions]
    )
    return ControlGraph(n, init, sorted_transitions(transitions))


A = Send("s", "a", ())
B = Send("s", "b", ())
R = Recv("s", "r", ())
I = SesInit("s", "p")

# --------------------------------------------------------------------------
# Prioritization


def test_prioritize_drops_observables_at_mixed_states():
    g = graph(0, [(0, TAU, 1), (0, A, 2), (1, A, 3), (2, TAU, 3)])
    out = tau_prioritize(g)
    labels_at_init = [a for f, a, _ in out.transitions if f == out.init]
    assert labels_at_init == [TAU]
    assert branching_bisimilar(g, out)


def test_prioritize_leaves_tau_free_graph_unchanged():
    g = graph(0, [(0, A, 1), (1, B, 2)])
    assert tau_prioritize(g).transitions == g.transitions


def test_prioritize_rejects_nonconfluent_input():
    g = graph(0, [(0, TAU, 1), (0, A, 2)])  # no completion
    with pytest.raises(TransformPreconditionError):
        tau_prioritize(g)


def test_prioritized_states_are_homogeneous_on_random_activities():
    for n, (act, raw) in enumerate(small_random_activities(50)):
        g = tau_prioritize(raw)
        out = g.outgoing()
        for state in g.states:
            kinds = {action == TAU for action, _ in out[state]}
            assert len(kinds) <= 1, n
        assert branching_bisimilar(g, raw), n


# --------------------------------------------------------------------------
# Compression


def test_compress_collapses_a_silent_chain():
    g = graph(0, [(0, TAU, 1), (1, A, 2)])
    out = tau_compress(g)
    assert out.transitions == ((0, A, 1),)


def test_compress_is_identity_on_tau_free_graphs():
    g = graph(0, [(0, A, 1), (1, B, 2)])
    assert tau_compress(g).transitions == g.transitions


def test_compress_rejects_silent_loops():
    g = graph(0, [(0, TAU, 1), (1, TAU, 0)])
    with pytest.raises(TransformPreconditionError):
        tau_compress(g)


def test_precondition_failures_are_worded_as_the_checks_word_them():
    act = Flo((Inv("s", "a"), Inv("s", "b")))  # structural bound 10
    silent_cycle = graph(0, [(0, TAU, 1), (1, TAU, 0)])
    nonconfluent = graph(0, [(0, TAU, 1), (0, A, 2)])
    for g in (silent_cycle, nonconfluent):
        first = check_raw_properties(act, g)[0]
        with pytest.raises(TransformPreconditionError) as err:
            tau_prioritize(g)
        assert str(err.value) == f"tau_prioritize: {first}"

    mixed = graph(0, [(0, TAU, 1), (0, A, 2), (1, A, 3), (2, TAU, 3)])  # confluent
    stages = build_stages(act, from_raw=True)
    stages["prio"] = mixed
    prio = check_stage_invariants(act, stages)[1]
    assert prio.stage == "prio" and len(prio.problems) == 1
    with pytest.raises(TransformPreconditionError) as err:
        tau_compress(mixed)
    assert str(err.value) == f"tau_compress: {prio.problems[0]}"


def test_compressed_graphs_are_tau_free_and_equivalent():
    for n, (act, raw) in enumerate(small_random_activities(50)):
        out = tau_compress(tau_prioritize(raw))
        assert all(a != TAU for _, a, _ in out.transitions), n
        assert branching_bisimilar(raw, out), n


# --------------------------------------------------------------------------
# Run-to-completion pruning


def test_send_beats_receive():
    g = graph(0, [(0, A, 1), (0, R, 2), (1, TAU, 3), (2, TAU, 3)])
    out = run_to_completion(g)
    assert [a for f, a, _ in out.transitions if f == 0] == [A]


def test_send_beats_session_init_beats_receive():
    g = graph(0, [(0, I, 1), (0, R, 2)])
    out = run_to_completion(g)
    assert [a for f, a, _ in out.transitions if f == 0] == [I]


def test_receive_only_states_untouched():
    g = graph(0, [(0, R, 1)])
    assert run_to_completion(g).transitions == g.transitions


def test_pruning_removes_unreachable_states():
    g = graph(0, [(0, A, 1), (0, R, 2), (2, B, 3)])
    out = run_to_completion(g)
    assert out.num_states == 2


# --------------------------------------------------------------------------
# Minimization


def test_bisimilar_sinks_merge():
    g = graph(0, [(0, A, 1), (0, A, 2)])
    out = minimize(g)
    assert out.num_states == 2
    assert len(out.sinks()) == 1


def test_minimize_is_identity_on_minimal_graphs():
    g = graph(0, [(0, A, 1), (1, B, 2)])
    assert minimize(g) == g


def test_minimize_rejects_silent_transitions():
    g = graph(0, [(0, TAU, 1)])
    with pytest.raises(TransformPreconditionError):
        minimize(g)


def _minimize_cases():
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").rglob("*.seb"))
    for path in files:
        act = parse_activity_file(path)
        if not validate_well_formed(act):
            yield path.relative_to(ROOT).as_posix(), act
    for seed in range(200):
        act = random_activity(seed, depth=4)
        if not validate_well_formed(act):
            yield f"seed {seed}", act


def test_minimize_is_strongly_bisimilar_to_its_input():
    checked = 0
    for name, act in _minimize_cases():
        stages = build_stages(act)
        assert strongly_bisimilar(stages["rtc"], stages["min"]), name
        checked += 1
    assert checked >= 150


def test_minimized_partition_is_discrete():
    for seed in range(40):
        act = random_activity(seed, depth=3)
        out = build_stages(act)["min"]
        block = refine_partition(out)
        assert len(set(block)) == out.num_states, seed


# --------------------------------------------------------------------------
# Whole pipeline


def test_nil_compiles_to_a_point():
    g = build_stages(Nil())["min"]
    assert g.num_states == 1
    assert g.transitions == ()
    assert g.sinks() == [g.init]


def test_atom_compiles_to_one_edge():
    g = build_stages(Inv("s", "op", ("x",)))["min"]
    assert g.num_states == 2
    assert g.transitions == ((0, Send("s", "op", ("x",)), 1),)


@pytest.mark.parametrize("path", corpus_activities(), ids=lambda p: p.name)
def test_every_corpus_activity_has_a_single_sink(path):
    g = build_stages(parse_activity_file(path))["min"]
    assert len(g.sinks()) == 1


# The stages each route builds, in order: the raw route prunes and
# compresses the raw closure; the fused route starts at "prio" or
# "compress" and never builds the other.
ROUTES = {
    ("raw", False): ["raw"],
    ("prio", False): ["prio"],
    ("compress", False): ["compress"],
    ("rtc", False): ["compress", "rtc"],
    ("min", False): ["compress", "rtc", "min"],
    ("raw", True): ["raw"],
    ("prio", True): ["raw", "prio"],
    ("compress", True): ["raw", "prio", "compress"],
    ("rtc", True): ["raw", "prio", "compress", "rtc"],
    ("min", True): ["raw", "prio", "compress", "rtc", "min"],
}


@pytest.mark.parametrize("from_raw", [False, True])
@pytest.mark.parametrize("upto", STAGES)
def test_build_stages_returns_the_stages_of_its_route(upto, from_raw, corpus_dir):
    act = parse_activity_file(corpus_dir / "pingpong_service.seb")
    stages = build_stages(act, upto, from_raw=from_raw)
    assert list(stages) == ROUTES[upto, from_raw]


def test_stage_invariants_hold_on_random_activities():
    for n, (act, _) in enumerate(small_random_activities(25)):
        stages = build_stages(act, from_raw=True, max_states=20000)
        for report in check_stage_invariants(act, stages):
            assert report.problems == (), (n, report)


def test_compiled_traces_are_a_subset_of_raw_traces():
    # pruning may drop schedules but never invent observable behavior
    from seb.compiler import StateCapExceeded

    checked = 0
    seed = 0
    while checked < 40:
        act = random_activity(seed, depth=3, allow_rep=False)
        seed += 1
        try:
            raw = build_raw_cg(act, max_states=400)
        except StateCapExceeded:
            continue
        final = build_stages(act)["min"]
        assert complete_traces(final) <= complete_traces(raw), seed
        checked += 1


def test_rtc_commutes_with_compression():
    subjects = [parse_activity_file(p) for p in corpus_activities()]
    subjects += [random_activity(seed, depth=3) for seed in range(200)]
    for n, act in enumerate(subjects):
        p = build_prioritized_cg(act)
        assert to_aut(run_to_completion(tau_compress(p))) == to_aut(
            tau_compress(run_to_completion(p))
        ), n


# --------------------------------------------------------------------------
# Serialization


def test_aut_header_and_tau_convention():
    g = graph(0, [(0, TAU, 1), (1, A, 2)])
    text = to_aut(g)
    assert text.splitlines()[0] == "des (0, 2, 3)"
    assert '(0, "i", 1)' in text
    assert '(1, "s!a()", 2)' in text


def test_dot_marks_terminals_and_uses_tau_glyph():
    g = graph(0, [(0, TAU, 1)])
    text = to_dot(g)
    assert "doublecircle" in text
    assert "τ" in text


def test_dot_and_aut_agree_on_counts(quotecomparer):
    g = build_stages(quotecomparer)["min"]
    dot = to_dot(g)
    aut = to_aut(g)
    assert dot.count("->") - 1 == len(g.transitions)  # one arrow for the start marker
    assert len(aut.strip().splitlines()) - 1 == len(g.transitions)


def test_quotecomparer_prioritized_graph_keeps_five_terminals(quotecomparer):
    g = build_stages(quotecomparer, "prio")["prio"]
    assert len(g.sinks()) == 5
    for sink in g.sinks():
        assert isinstance(g.payloads[sink][1], Nil)


def test_stages_list_each_transition_once():
    # Both sends reach states with one silent endpoint, which the
    # compressed graph must not list twice.
    act = parse_activity("(flo (inv s a) (inv s a))")
    for from_raw in (False, True):
        stages = build_stages(act, from_raw=from_raw)
        for stage in ("compress", "rtc"):
            g = stages[stage]
            assert len(g.transitions) == 2, (stage, from_raw)
            assert to_aut(g).splitlines()[0] == "des (0, 2, 3)", (stage, from_raw)


def test_transforms_apply_to_imported_graphs():
    # a graph the compiler did not produce
    g = graph(0, [(0, TAU, 1), (0, A, 2), (1, A, 3), (2, TAU, 3)])
    out = tau_compress(tau_prioritize(g))
    assert all(a != TAU for _, a, _ in out.transitions)
    assert branching_bisimilar(g, out)
