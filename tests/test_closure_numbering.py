"""The closures emit their final numbering over hash-consed residuals.

``_closure`` numbers states as it meets them, successors in action order
and ties by ``state_key``, which is the order of ``renumber_bfs``: so
renumbering a closure's graph must leave it as it is.  One build numbers
each residual once, so no two states share a payload and equal residuals
in one graph are one object.
"""

import pytest

from seb.compiler import (
    StateCapExceeded,
    build_compressed_cg,
    build_prioritized_cg,
    build_raw_cg,
)
from seb.control import renumber_bfs
from seb.parser import parse_activity_file
from seb.wellformed import validate_well_formed

from conftest import RAW_TOO_LARGE, ROOT
from oracles import linked_flo, random_activity, seq_of_invs

BUILDS = {"raw": build_raw_cg, "prio": build_prioritized_cg, "compress": build_compressed_cg}


def assert_final_and_hash_consed(g):
    again = renumber_bfs(g)
    assert again.transitions == g.transitions
    assert again.payloads == g.payloads
    assert len(set(g.payloads)) == g.num_states
    assert len(set(g.transitions)) == len(g.transitions)
    seen = {}
    for _, residual in g.payloads:
        assert seen.setdefault(residual, residual) is residual


def _cases():
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").rglob("*.seb"))
    for path in files:
        name = path.relative_to(ROOT).as_posix()
        if validate_well_formed(parse_activity_file(path)):
            continue
        for stage in BUILDS:
            if stage != "raw" or name not in RAW_TOO_LARGE:
                yield pytest.param(path, stage, id=f"{name}-{stage}")


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


@pytest.mark.parametrize("stage", BUILDS)
@pytest.mark.parametrize("make", [linked_flo, seq_of_invs], ids=["linked-flo", "seq-of-invs"])
def test_wide_activities(make, stage):
    assert_final_and_hash_consed(BUILDS[stage](make(200)))
