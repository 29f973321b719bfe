import pytest

from seb.cli import main
from seb.compiler import (
    StateCapExceeded,
    build_prioritized_cg,
    build_raw_cg,
    check_raw_properties,
    enabled_steps,
    state_upper_bound,
)
from seb.control import LinkMap, Recv, Send, SesInit, TAU, initial_link_map
from seb.parser import parse_activity
from seb.syntax import And, Flo, Inv, LinkRef, Nil, Or, Pic, Rec, Rep, Unf
from seb.transforms import STAGES, build_stages
from seb.wellformed import desugar_seq

from oracles import oracle_graph, pick_of_recs, random_activity

# --------------------------------------------------------------------------
# Step derivation


def test_plain_invocation_fires():
    c = LinkMap.of({})
    act = Inv("s", "op", ("x",))
    assert enabled_steps(c, act) == [(Send("s", "op", ("x",)), c, Nil())]


def test_false_join_triggers_dead_path_elimination():
    c = LinkMap.of({"l": False, "m": None})
    act = Inv("s", "op", ("x",), tgt=frozenset("l"), src=frozenset("m"), jcd=LinkRef("l"))
    assert enabled_steps(c, act) == [
        (TAU, LinkMap.of({"l": False, "m": False}), Nil())
    ]


# validate_well_formed rejects both: each names a link outside its tgt set.
STRAY_AT_START = Flo(
    (
        Inv("s", "a", src=frozenset("l")),
        Inv("s", "b", tgt=frozenset("l"), jcd=And(LinkRef("l"), LinkRef("m"))),
    ),
    lnk=frozenset("l"),
)
STRAY_LATER = Pic(
    ((Rec("s", "a"), Inv("s", "b", tgt=frozenset("l"), jcd=Or(LinkRef("n"), LinkRef("m")))),)
)


@pytest.mark.parametrize("act, stray", [(STRAY_AT_START, "m"), (STRAY_LATER, "m, n")],
                         ids=["at-start", "later"])
def test_join_outside_the_targets_raises_when_its_node_is_derived(act, stray):
    message = f"^join condition references links outside the tgt set: {stray}$"
    for stage in STAGES:
        for from_raw in (False, True):
            with pytest.raises(ValueError, match=message):
                build_stages(act, stage, from_raw=from_raw)
    if act is STRAY_AT_START:
        with pytest.raises(ValueError, match=message):
            enabled_steps(initial_link_map(act), act)
    else:  # only the pick's head is derived at the start
        [(action, _, _)] = enabled_steps(initial_link_map(act), act)
        assert action == Recv("s", "a")


def test_undefined_join_blocks():
    c = LinkMap.of({"l": None})
    act = Inv("s", "op", ("x",), tgt=frozenset("l"), jcd=LinkRef("l"))
    assert enabled_steps(c, act) == []


def test_session_init_and_reception_actions():
    c = LinkMap.of({})
    assert enabled_steps(c, parse_activity("(ses s p)")) == [
        (SesInit("s", "p"), c, Nil())
    ]
    assert enabled_steps(c, parse_activity("(rec s op (x y))")) == [
        (Recv("s", "op", ("x", "y")), c, Nil())
    ]


def test_firing_sets_source_links_true():
    c = LinkMap.of({"l": None})
    act = Inv("s", "op", (), src=frozenset("l"))
    [(action, c2, residual)] = enabled_steps(c, act)
    assert c2 == LinkMap.of({"l": True})


def test_flow_removes_finished_children_silently():
    c = LinkMap.of({})
    flo = Flo((Nil(), Inv("s", "a")))
    steps = enabled_steps(c, flo)
    tau_steps = [s for s in steps if s[0] == TAU]
    assert tau_steps == [(TAU, c, Flo((Inv("s", "a"),)))]
    # the observable step keeps the nil in place
    assert (Send("s", "a", ()), c, Flo((Nil(), Nil()))) in steps


def test_flow_of_single_nil_fires_own_sources():
    c = LinkMap.of({"l": None})
    flo = Flo((Nil(),), src=frozenset("l"))
    assert enabled_steps(c, flo) == [(TAU, LinkMap.of({"l": True}), Nil())]


def test_pick_commit_cancels_other_branches():
    source = (
        "(flo :lnk (l) "
        " (pic (on (rec s a () :src (l)) (nil)) (on (rec s b ()) (nil)))"
        " (inv s go :tgt (l) :jcd l))"
    )
    act = parse_activity(source)
    pic = act.children[0]
    c = LinkMap.of({"l": None})
    steps = enabled_steps(c, pic)
    by_op = {step[0].op: step for step in steps}
    # committing to branch b cancels branch a's source link
    _, c_b, residual_b = by_op["b"]
    assert c_b == LinkMap.of({"l": False})
    assert residual_b == Flo((Nil(),))
    # committing to branch a ticks it
    _, c_a, _ = by_op["a"]
    assert c_a == LinkMap.of({"l": True})


def test_repeat_unfolds_and_resets():
    rep = parse_activity(
        "(rep (do (pic (on (rec s go ()) (inv s step ()))))"
        " (until (pic (on (rec s stop ()) (nil)))))"
    )
    c = LinkMap.of({})
    steps = enabled_steps(c, rep)
    actions = {step[0] for step in steps}
    assert actions == {Recv("s", "go", ()), Recv("s", "stop", ())}
    unfolding = next(res for a, _, res in steps if a.op == "go")
    assert isinstance(unfolding, Unf)
    # run the unfolded body to nil: the silent step reinstates the repeat
    body_done = Unf(Nil(), rep.do_pic, rep.until_pic)
    [(action, c2, residual)] = enabled_steps(c, body_done)
    assert action == TAU
    assert residual == Rep(rep.do_pic, rep.until_pic)


def test_sequences_must_be_desugared_first():
    with pytest.raises(ValueError):
        enabled_steps(LinkMap.of({}), parse_activity("(seq (inv s a))"))


def test_no_duplicate_steps():
    flo = Flo((Nil(), Nil(), Inv("s", "a")))
    steps = enabled_steps(LinkMap.of({}), flo)
    assert len(steps) == len(set(steps))
    # both nil removals coincide on the same successor
    tau_results = [s for s in steps if s[0] == TAU]
    assert len(tau_results) == 1


def test_pick_of_two_equal_branches_gives_one_step(tmp_path, capsys):
    # The one rule that can derive a step twice: two branches of a pick
    # with equal heads, continuations and cancelled links.
    source = "(pic (on (rec s a) (nil)) (on (rec s a) (nil)))"
    assert len(enabled_steps(LinkMap.of({}), parse_activity(source))) == 1
    path = tmp_path / "twobranch.seb"
    path.write_text(source, encoding="utf-8")
    assert main(["compile", str(path), "--stage", "raw"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "des (0, 2, 3)"


def test_enabled_steps_come_in_action_then_state_order():
    # Derived child by child, the steps come receive, send b, drop nil,
    # send a; the result is ordered silent first, then by action, then by
    # successor state.
    c = LinkMap.of({})
    flo = Flo((Rec("s", "z"), Inv("s", "b"), Nil(), Inv("s", "a")))
    assert enabled_steps(c, flo) == [
        (TAU, c, Flo((Rec("s", "z"), Inv("s", "b"), Inv("s", "a")))),
        (Send("s", "a", ()), c, Flo((Rec("s", "z"), Inv("s", "b"), Nil(), Nil()))),
        (Send("s", "b", ()), c, Flo((Rec("s", "z"), Nil(), Nil(), Inv("s", "a")))),
        (Recv("s", "z", ()), c, Flo((Nil(), Inv("s", "b"), Nil(), Inv("s", "a")))),
    ]
    # Equal actions are ordered by the successor's link map, then residual.
    c = LinkMap.of({"l": None, "m": None})
    a_l = Inv("s", "a", (), src=frozenset("l"))
    a_m = Inv("s", "a", (), src=frozenset("m"))
    assert enabled_steps(c, Flo((a_l, a_m))) == [
        (Send("s", "a", ()), LinkMap.of({"l": None, "m": True}), Flo((a_l, Nil()))),
        (Send("s", "a", ()), LinkMap.of({"l": True, "m": None}), Flo((Nil(), a_m))),
    ]


# --------------------------------------------------------------------------
# Structural bound


def test_bound_of_nil():
    assert state_upper_bound(Nil()) == 1


def test_bound_of_flow_of_two_atoms():
    act = Flo((Inv("s", "a"), Inv("s", "b")))
    assert state_upper_bound(act) == (2 + 1) * (2 + 1) + 1


def test_bound_of_repeat_is_sum_plus_one():
    pic = Pic(((Rec("s", "go", ()), Inv("s", "x")),))
    # pic bound: (2 + 2) + 1 = 5
    assert state_upper_bound(pic) == 5
    rep = Rep(pic, pic)
    assert state_upper_bound(rep) == 5 + 5 + 1


def test_bound_of_pick_sums_continuations():
    pic = Pic(
        (
            (Rec("s", "a", ()), Inv("s", "x")),
            (Rec("s", "b", ()), Nil()),
        )
    )
    assert state_upper_bound(pic) == (2 + 2) + (1 + 2) + 1


# --------------------------------------------------------------------------
# Raw graph construction


def test_atomic_activity_graph():
    g = build_raw_cg(Inv("s", "op", ("x",)))
    assert g.num_states == 2
    assert g.transitions == ((0, Send("s", "op", ("x",)), 1),)


def test_flow_diamond_matches_reference_interpreter():
    act = parse_activity("(flo (inv s a (x)) (inv s b (y)))")
    g = build_raw_cg(act)
    n, t, _ = oracle_graph(desugar_seq(act))
    assert (g.num_states, len(g.transitions)) == (n, t) == (8, 10)


def test_raw_graph_matches_reference_on_random_activities():
    for seed in range(120):
        act = random_activity(seed, depth=3)
        g = build_raw_cg(act, max_states=20000)
        n, t, _ = oracle_graph(desugar_seq(act))
        assert (g.num_states, len(g.transitions)) == (n, t), seed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 300])
def test_linked_pick_matches_reference_interpreter(n):
    act = pick_of_recs(n, linked=True)
    g = build_raw_cg(act)
    states, count, transitions = oracle_graph(act)
    assert (g.num_states, len(g.transitions)) == (states, count)
    labels = sorted(action.render(tau="tau") for _, action, _ in g.transitions)
    assert labels == sorted(label for _, label, _ in transitions)


def test_compiling_twice_is_bit_identical():
    act = random_activity(7, depth=4)
    assert build_raw_cg(act) == build_raw_cg(act)


def test_state_cap():
    act = parse_activity(
        "(flo (inv s a) (inv s b) (inv s c) (inv s d) (inv s e))"
    )
    with pytest.raises(StateCapExceeded):
        build_raw_cg(act, max_states=10)


def test_structural_properties_on_random_activities():
    for seed in range(100):
        act = random_activity(seed, depth=3)
        g = build_raw_cg(act, max_states=20000)
        assert check_raw_properties(act, g) == [], seed


def test_prioritized_construction_equals_pruned_raw():
    from seb.transforms import tau_prioritize

    for seed in range(80):
        act = random_activity(seed, depth=3)
        fused = build_prioritized_cg(act)
        unfused = tau_prioritize(build_raw_cg(act))
        assert fused == unfused, seed
