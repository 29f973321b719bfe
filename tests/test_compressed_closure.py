"""The compressing closure against compression of the prioritized graph.

``build_compressed_cg`` follows one silent step per state and indexes
only the states without one.  Renumbered, it must give exactly what
``tau_compress`` makes of the fused prioritized graph: the same ``.aut``
text and the same payloads, and the same ``.aut`` text after
run-to-completion and after minimization.  The closure behind the
``rtc`` and ``min`` stages of ``build_stages`` must give exactly
run-to-completion of the compressing closure, payloads included, and
its minimization.  Only these two closures drop a flow's finished child
in the step that finishes it; the raw and prioritized closures and
``enabled_steps`` keep the nil.
"""

import itertools

import pytest

from seb import compiler
from seb.compiler import (
    DEFAULT_STATE_CAP,
    StateCapExceeded,
    build_compressed_cg,
    build_prioritized_cg,
    build_raw_cg,
    enabled_steps,
)
from seb.control import initial_link_map, renumber_bfs
from seb.export import to_aut
from seb.parser import parse_activity, parse_activity_file
from seb.syntax import NIL, Flo, Inv
from seb.transforms import build_stages, minimize, run_to_completion, tau_compress
from seb.wellformed import validate_well_formed

from conftest import ROOT
from oracles import linked_flo, pick_of_recs, random_activity, seq_of_invs

# The oracle builds every silent interleaving; generated activities whose
# prioritized graph is larger than this are skipped to keep it fast.
ORACLE_CAP = 200


def assert_same_stages(act, oracle_cap=DEFAULT_STATE_CAP):
    expected = tau_compress(build_prioritized_cg(act, max_states=oracle_cap))
    got = renumber_bfs(build_compressed_cg(act))
    assert to_aut(got) == to_aut(expected)
    assert got.payloads == expected.payloads
    expected, got = run_to_completion(expected), run_to_completion(got)
    assert to_aut(got) == to_aut(expected)
    assert to_aut(minimize(got)) == to_aut(minimize(expected))
    assert_same_rtc(act)


def assert_same_rtc(act):
    expected = run_to_completion(build_compressed_cg(act))
    stages = build_stages(act, "min")
    assert to_aut(stages["rtc"]) == to_aut(expected)
    assert stages["rtc"].payloads == expected.payloads
    assert to_aut(stages["min"]) == to_aut(minimize(expected))


def _valid(path):
    return not validate_well_formed(parse_activity_file(path))


@pytest.mark.parametrize(
    "path",
    [
        path
        for folder in ("corpus", "fixtures")
        for path in sorted((ROOT / folder).rglob("*.seb"))
        if _valid(path)
    ],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_rtc_closure_on_corpus_and_fixtures(path):
    assert_same_rtc(parse_activity_file(path))


@pytest.mark.parametrize(
    "path",
    [
        path
        for folder in ("corpus", "fixtures")
        for path in sorted((ROOT / folder).glob("*.seb"))
        if _valid(path)
    ],
    ids=lambda p: p.name,
)
def test_corpus_and_fixtures(path):
    assert_same_stages(parse_activity_file(path))


# (depth, seeds, least number compared): 600 or more activities in all.
BATCHES = [(3, 300, 290), (4, 220, 200), (5, 150, 130)]


@pytest.mark.parametrize("depth, seeds, least", BATCHES)
def test_generated_activities(depth, seeds, least):
    compared = 0
    for seed in range(seeds):
        act = random_activity(seed, depth=depth)
        if validate_well_formed(act):
            continue
        try:
            assert_same_stages(act, ORACLE_CAP)
        except StateCapExceeded:
            continue
        compared += 1
    assert compared >= least


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_activity("(seq" + " (flo (nil))" * 25 + ")"),
        lambda: parse_activity("(seq" + " (flo (nil))" * 50 + ")"),
        lambda: parse_activity("(seq" + " (flo (nil))" * 100 + ")"),
        lambda: seq_of_invs(200),
        lambda: linked_flo(200),
        lambda: pick_of_recs(200),
    ],
    ids=["seq-flo-25", "seq-flo-50", "seq-flo-100", "seq-inv-200", "flo-chain-200", "pick-200"],
)
def test_wide_activities(build):
    assert_same_stages(build())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 300])
def test_linked_picks(n):
    assert_same_stages(pick_of_recs(n, linked=True))


def test_silent_loop_stops_at_the_cap(monkeypatch):
    start, other = Inv("s", "a"), Inv("s", "b")
    calls = itertools.count()

    def looping_steps(build, m, r):
        assert next(calls) < 1000, "the chase kept stepping past its cap"
        return ((0, m, build.number(other if build.nodes[r] == start else start)),)  # τ's id

    monkeypatch.setattr(compiler, "_derive", looping_steps)
    with pytest.raises(StateCapExceeded):
        build_compressed_cg(start, max_states=10)
    assert next(calls) <= 11


def _holds_finished_child(residual):
    return isinstance(residual, Flo) and len(residual.children) > 1 and NIL in residual.children


def test_only_compressing_closures_drop_a_finished_child():
    act = parse_activity("(flo (inv s a) (inv s b))")
    steps = enabled_steps(initial_link_map(act), act)
    assert any(_holds_finished_child(r) for _, _, r in steps)
    for build in (build_raw_cg, build_prioritized_cg):
        assert any(_holds_finished_child(r) for _, r in build(act).payloads), build
