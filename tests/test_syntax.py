from dataclasses import fields

from seb.parser import parse_activity
from seb.syntax import (
    Flo,
    Inv,
    NIL,
    Nil,
    Seq,
    TRUE,
    all_links,
    all_sources,
    all_targets,
    pred_pairs,
    structure_key,
    subacts,
    to_source,
)

from oracles import _children, _subtree_srcs, _subtree_tgts, random_activity


def test_nil_reads_empty_control_fields_it_does_not_declare():
    assert (NIL.tgt, NIL.src, NIL.lnk, NIL.jcd) == (frozenset(), frozenset(), frozenset(), TRUE)
    assert fields(Nil) == ()
    assert Nil() == NIL and hash(Nil()) == hash(NIL)
    assert repr(NIL) == "Nil()"
    assert to_source(NIL) == "(nil)"
    assert structure_key(NIL) == (0,)


def test_subacts_atomic_is_reflexive_singleton():
    act = Inv("s", "op", ("x",))
    assert subacts(act) == {(): act}


def test_subacts_structured():
    a = Inv("s", "a")
    b = Inv("s", "b")
    act = Seq((a, b))
    assert subacts(act) == {(): act, (0,): a, (1,): b}


def test_subacts_flo_strict():
    a = Inv("s", "a")
    b = Inv("s", "b")
    act = Flo((a, b))
    assert {sub for path, sub in subacts(act).items() if path} == {a, b}


def test_pred_pairs_from_links():
    act = parse_activity(
        "(flo :lnk (l) (inv s a :src (l)) (inv s b :tgt (l) :jcd l))"
    )
    assert pred_pairs(act) == {((0,), (1,))}


def test_pred_pairs_from_seq_adjacency():
    act = parse_activity("(seq (inv s a) (inv s b) (inv s c))")
    assert pred_pairs(act) == {((0,), (1,)), ((1,), (2,))}


def test_pred_pairs_empty_for_atom():
    assert pred_pairs(Inv("s", "a")) == set()


def test_path_resolution():
    act = parse_activity("(pic (on (rec s0 go ()) (seq (inv s a) (inv s b))))")
    assert subacts(act)[(1, 1)] == Inv("s", "b")


def test_link_unions():
    act = parse_activity(
        "(flo :lnk (l m) (inv s a :src (l m)) (rec s b :tgt (l) :jcd l))"
    )
    assert all_sources(act) == frozenset({"l", "m"})
    assert all_links(act) == frozenset({"l", "m"})


def test_strict_link_sets_are_the_union_of_the_children_sets():
    for seed in range(150):
        act = random_activity(seed)
        # Root first, so strict sets are computed before any subtree set is
        # cached, and then found in the cache.
        for node in subacts(act).values():
            srcs = set().union(*(_subtree_srcs(child) for child in _children(node)))
            tgts = set().union(*(_subtree_tgts(child) for child in _children(node)))
            assert all_sources(node, strict=True) == srcs
            assert all_targets(node, strict=True) == tgts
            assert all_sources(node, strict=True) is all_sources(node, strict=True)
            assert all_sources(node) == srcs | node.src
            assert all_targets(node) == tgts | node.tgt


def test_to_source_sorts_link_sets():
    act = parse_activity("(inv s op :tgt (b a) :jcd (and a b))")
    assert to_source(act) == "(inv s op :tgt (a b) :jcd (and a b))"
