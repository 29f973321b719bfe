"""The closures emit their final numbering over hash-consed residuals.

``_closure`` numbers states as it meets them, successors in action order
and ties by ``state_key``, which is the order of ``renumber_bfs``: so
renumbering a closure's graph must leave it as it is.  Both key a run
of one action only when two or more of its successors have no number
yet, so each graph, and every stage that keeps payloads, is also checked
against ``oracles.reference_renumber_bfs``, which keys every successor.
One build numbers each residual once, so no two states share a payload
and equal residuals in one graph are one object.  Every stage keeps its
transitions as action ids over its action table; the action triples it
shows must be what those ids stand for.
"""

import pytest

from seb.compiler import (
    StateCapExceeded,
    build_compressed_cg,
    build_prioritized_cg,
    build_raw_cg,
)
from seb.control import TAU, ControlGraph, renumber_bfs, sorted_transitions
from seb.parser import parse_activity_file
from seb.transforms import build_stages
from seb.wellformed import validate_well_formed

from conftest import RAW_TOO_LARGE, ROOT
from oracles import (
    linked_flo,
    pick_of_recs,
    random_activity,
    reference_renumber_bfs,
    seq_of_invs,
)

BUILDS = {"raw": build_raw_cg, "prio": build_prioritized_cg, "compress": build_compressed_cg}


def assert_reference_order(g):
    again = reference_renumber_bfs(g)
    assert again.transitions == g.transitions
    assert again.payloads == g.payloads


def assert_stages_in_reference_order(act, from_raw, **kwargs):
    for name, g in build_stages(act, from_raw=from_raw, **kwargs).items():
        if name == "min":  # the quotient keeps no payloads
            assert g.payloads is None
        else:
            assert_reference_order(g)


def assert_final_and_hash_consed(g):
    again = renumber_bfs(g)
    assert again.transitions == g.transitions
    assert again.payloads == g.payloads
    assert_reference_order(g)
    assert len(set(g.payloads)) == g.num_states
    assert len(set(g.transitions)) == len(g.transitions)
    seen = {}
    for _, residual in g.payloads:
        assert seen.setdefault(residual, residual) is residual


def _well_formed_files():
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").rglob("*.seb"))
    for path in files:
        if not validate_well_formed(parse_activity_file(path)):
            yield path, path.relative_to(ROOT).as_posix()


def _cases():
    for path, name in _well_formed_files():
        for stage in BUILDS:
            if stage != "raw" or name not in RAW_TOO_LARGE:
                yield pytest.param(path, stage, id=f"{name}-{stage}")


def _stage_cases():
    for path, name in _well_formed_files():
        yield pytest.param(path, False, id=f"{name}-fused")
        if name not in RAW_TOO_LARGE:
            yield pytest.param(path, True, id=f"{name}-from-raw")


@pytest.mark.parametrize("path, stage", _cases())
def test_corpus_and_fixtures(path, stage):
    assert_final_and_hash_consed(BUILDS[stage](parse_activity_file(path)))


@pytest.mark.parametrize("stage", BUILDS)
def test_generated_activities(stage):
    built = 0
    for seed in range(400):
        act = random_activity(seed, depth=4)
        if validate_well_formed(act):
            continue
        try:
            g = BUILDS[stage](act, max_states=5_000)
        except StateCapExceeded:
            continue
        assert_final_and_hash_consed(g)
        built += 1
    assert built >= 300


WIDE = pytest.mark.parametrize(
    "make", [linked_flo, seq_of_invs, pick_of_recs], ids=["linked-flo", "seq-of-invs", "pick"]
)


@pytest.mark.parametrize("stage", BUILDS)
@WIDE
def test_wide_activities(make, stage):
    assert_final_and_hash_consed(BUILDS[stage](make(200)))


@pytest.mark.parametrize("path, from_raw", _stage_cases())
def test_stages_of_corpus_and_fixtures(path, from_raw):
    assert_stages_in_reference_order(parse_activity_file(path), from_raw)


@pytest.mark.parametrize("from_raw", [False, True], ids=["fused", "from-raw"])
def test_stages_of_generated_activities(from_raw):
    built = 0
    for seed in range(400):
        act = random_activity(seed, depth=4)
        if validate_well_formed(act):
            continue
        try:
            assert_stages_in_reference_order(act, from_raw, max_states=5_000)
        except StateCapExceeded:
            continue
        built += 1
    assert built >= 300


@pytest.mark.parametrize("from_raw", [False, True], ids=["fused", "from-raw"])
@WIDE
def test_stages_of_wide_activities(make, from_raw):
    assert_stages_in_reference_order(make(200), from_raw)


def assert_table_boundary(g):
    """``g``'s transitions and rows by action agree with its ids and table."""
    assert g.transitions == sorted_transitions(g.transitions)
    rows = [[] for _ in g.states]
    for frm, action, to in g.transitions:
        rows[frm].append((action, to))
    assert g.outgoing() == rows
    again = ControlGraph(g.num_states, g.init, g.transitions, g.payloads)
    assert again == g and g == again and hash(again) == hash(g)
    keys = [action.sort_key() for action in g.actions]
    assert g.actions[0] == TAU and all(x < y for x, y in zip(keys, keys[1:]))


@pytest.mark.parametrize("path, from_raw", _stage_cases())
def test_table_boundary_of_corpus_and_fixtures(path, from_raw):
    for g in build_stages(parse_activity_file(path), from_raw=from_raw).values():
        assert_table_boundary(g)


@pytest.mark.parametrize("from_raw", [False, True], ids=["fused", "from-raw"])
def test_table_boundary_of_generated_activities(from_raw):
    built = 0
    for seed in range(200):
        act = random_activity(seed, depth=4)
        if validate_well_formed(act):
            continue
        try:
            stages = build_stages(act, from_raw=from_raw, max_states=5_000)
        except StateCapExceeded:
            continue
        for g in stages.values():
            assert_table_boundary(g)
        built += 1
    assert built >= 150
