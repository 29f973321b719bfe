import pytest

from seb.diagnostics import KIND_CLASH
from seb.parser import parse_activity, parse_activity_file
from seb.syntax import Flo, LinkRef, Seq, pred_pairs, subacts
from seb.wellformed import desugar_seq, validate_well_formed

from conftest import corpus_activities
from oracles import random_activity

FIXTURE_CODES = {
    "dup_link.seb": "DUP_LINK",
    "unscoped_link.seb": "UNSCOPED_LINK",
    "cycle.seb": "CYCLE",
    "containment_cross.seb": "CONTAINMENT_CROSS",
    "rep_incoming.seb": "REP_INCOMING",
    "rep_outgoing.seb": "REP_OUTGOING",
    "rep_escape.seb": "REP_ESCAPE",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_CODES))
def test_seeded_fixture_rejected_with_exact_code(fixtures_dir, name):
    act = parse_activity_file(fixtures_dir / name)
    codes = {d.code for d in validate_well_formed(act)}
    assert codes == {FIXTURE_CODES[name]}


@pytest.mark.parametrize("path", corpus_activities(), ids=lambda p: p.name)
def test_corpus_accepted(path):
    assert validate_well_formed(parse_activity_file(path)) == []


def test_kind_clash_detected():
    act = parse_activity("(seq (ses s p) (inv x go (s)))")
    codes = {d.code for d in validate_well_formed(act)}
    assert KIND_CLASH in codes  # s used both as session and payload


def test_reserved_names_have_fixed_kinds():
    act = parse_activity("(ses p0 q)")
    codes = {d.code for d in validate_well_formed(act)}
    assert KIND_CLASH in codes


def test_join_over_foreign_link_rejected():
    act = parse_activity(
        "(flo :lnk (l) (inv s a :src (l)) (rec s b :tgt (l) :jcd true)"
        " (inv s c :jcd l))"
    )
    codes = {d.code for d in validate_well_formed(act)}
    assert "UNSCOPED_LINK" in codes


# --------------------------------------------------------------------------
# Seq removal


def test_desugar_two_step_sequence():
    act = parse_activity("(seq (inv s a) (inv s b))")
    out = desugar_seq(act)
    assert isinstance(out, Flo)
    assert out.lnk == frozenset({"$seq0"})
    first, second = out.children
    assert first.src == frozenset({"$seq0"})
    assert second.tgt == frozenset({"$seq0"})
    assert second.jcd == LinkRef("$seq0")


def test_desugar_single_child_needs_no_links():
    act = parse_activity("(seq (inv s a))")
    out = desugar_seq(act)
    assert isinstance(out, Flo)
    assert out.lnk == frozenset()


def test_desugar_removes_every_seq_and_preserves_validity():
    for seed in range(120):
        act = random_activity(seed, depth=4)
        assert validate_well_formed(act) == []
        out = desugar_seq(act)
        assert not any(isinstance(s, Seq) for s in subacts(out).values())
        assert validate_well_formed(out) == []


def test_desugar_existing_join_is_strengthened():
    from seb.syntax import And

    act = parse_activity(
        "(flo :lnk (l) (inv s a :src (l))"
        " (seq (inv s b) (inv s c :tgt (l) :jcd l)))"
    )
    out = desugar_seq(act)
    inner = out.children[1]
    assert isinstance(inner, Flo)
    last = inner.children[1]
    assert last.tgt == frozenset({"l", "$seq0"})
    assert last.jcd == And(LinkRef("l"), LinkRef("$seq0"))


def test_pred_pairs_of_well_formed_tree_form_a_dag():
    for seed in range(80):
        act = random_activity(seed, depth=4)
        pairs = pred_pairs(act)
        succ = {}
        for a, b in pairs:
            succ.setdefault(a, set()).add(b)
        seen, stack = set(), set()

        def dfs(node):
            seen.add(node)
            stack.add(node)
            for nxt in succ.get(node, ()):
                assert nxt not in stack, f"cycle at seed {seed}"
                if nxt not in seen:
                    dfs(nxt)
            stack.discard(node)

        for node in list(succ):
            if node not in seen:
                dfs(node)
