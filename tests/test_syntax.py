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
    at_path,
    pred_pairs,
    structure_key,
    subacts,
    to_source,
)


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
    assert at_path(act, (1, 1)) == Inv("s", "b")


def test_link_unions():
    act = parse_activity(
        "(flo :lnk (l m) (inv s a :src (l m)) (rec s b :tgt (l) :jcd l))"
    )
    assert all_sources(act) == frozenset({"l", "m"})
    assert all_links(act) == frozenset({"l", "m"})


def test_to_source_sorts_link_sets():
    act = parse_activity("(inv s op :tgt (b a) :jcd (and a b))")
    assert to_source(act) == "(inv s op :tgt (a b) :jcd (and a b))"
