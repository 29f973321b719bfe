"""Each command builds each stage of an activity once.

Counts the state-space closures (``compiler._closure``, behind both the
raw and the fused prioritized construction) and the confluence checks a
command makes, and the ordering keys (``structure_key``) the closures
take: a run of one action's successors is keyed only when two or more of
them have no number yet, and then only those, each state at most once.
"""

import sys
from collections import Counter

import pytest

import seb.compiler
import seb.control
import seb.transforms
from seb.cli import main
from seb.control import action_of
from seb.export import to_aut
from seb.compiler import (
    StateCapExceeded,
    build_compressed_cg,
    build_prioritized_cg,
    build_raw_cg,
)
from seb.parser import parse_activity_file
from seb.syntax import Flo, Inv, subacts, to_source
from seb.transforms import build_stages, check_stage_invariants
from seb.wellformed import desugar_seq, validate_well_formed

from conftest import ROOT, SILENT_LOOP
from oracles import linked_flo, pick_of_recs, random_activity, seq_of_invs


@pytest.fixture
def calls(monkeypatch):
    tally: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(seb.compiler, "_closure", counted("closure", seb.compiler._closure))
    original = seb.compiler.find_confluence_violation
    wrapper = counted("confluence", original)
    # ``from .compiler import ...`` copies the name into other modules.
    for name, module in list(sys.modules.items()):
        if name.startswith("seb") and getattr(module, "find_confluence_violation", None) is original:
            monkeypatch.setattr(module, "find_confluence_violation", wrapper)
    return tally


@pytest.mark.parametrize(
    "flags, closures, confluence",
    [((), 1, 0), (("--check-properties",), 1, 1)],
    ids=["plain", "check-properties"],
)
def test_compile_runs_one_closure(flags, closures, confluence, calls, tmp_path):
    path = tmp_path / "gen.seb"
    path.write_text(to_source(random_activity(5, depth=4)), encoding="utf-8")
    for stage in ("prio", "min"):
        calls.clear()
        assert main(["compile", str(path), "--stage", stage, *flags]) == 0
        assert calls == Counter(closure=closures, confluence=confluence), stage


@pytest.mark.parametrize(
    "manifest, activities",
    [("fixtures/flooding.cfg", 2), ("bench/inputs/qc-deployed/deployed.cfg", 4)],
)
def test_check_runs_one_closure_per_activity(manifest, activities, calls):
    assert main(["check", str(ROOT / manifest), "--max-configs", "10"]) == 4
    assert calls == Counter(closure=activities)


@pytest.fixture
def scans(monkeypatch):
    """Counts ``ControlGraph.edge_rows`` calls and silent-cycle searches."""
    tally: Counter[str] = Counter()
    rows, search = seb.control.ControlGraph.edge_rows, seb.compiler.find_tau_cycle

    def counted_rows(g):
        tally["edge_rows"] += 1
        return rows(g)

    def counted_search(g):
        tally["cycle_searches"] += 1
        return search(g)

    monkeypatch.setattr(seb.control.ControlGraph, "edge_rows", counted_rows)
    monkeypatch.setattr(seb.compiler, "find_tau_cycle", counted_search)
    return tally


def test_check_properties_scans_raw_and_prio_once(scans, tmp_path):
    # Each check and transform built the rows it read, 10 in all (raw's
    # twice, prio's three times), and prio was searched for a silent cycle
    # after raw.
    path = tmp_path / "gen.seb"
    path.write_text(to_source(random_activity(5, depth=4)), encoding="utf-8")
    assert main(["compile", str(path), "--check-properties"]) == 0
    assert scans == Counter(edge_rows=7, cycle_searches=1)


def test_silent_loop_stops_when_its_chase_meets_a_state_twice(monkeypatch, tmp_path, capsys):
    # The chase stepped between the same two states until the cap: about
    # 1.1 s and 86 MB at the default cap of 1,000,000.
    calls = Counter()
    derive = seb.compiler._derive

    def counted(*args):
        calls["derive"] += 1
        return derive(*args)

    monkeypatch.setattr(seb.compiler, "_derive", counted)
    path = tmp_path / "loop.seb"
    path.write_text(SILENT_LOOP, encoding="utf-8")
    assert main(["compile", str(path)]) == 3
    assert capsys.readouterr().err == "error: state count exceeded the safety cap of 1000000\n"
    assert calls["derive"] <= 20


@pytest.fixture
def keys(monkeypatch):
    """Counts the top-level ``structure_key`` calls of the compiler and ``control``."""
    tally: Counter[str] = Counter()
    for module in (seb.compiler, seb.control):
        def counted(act, original=module.structure_key):
            tally["keys"] += 1
            return original(act)

        monkeypatch.setattr(module, "structure_key", counted)
    return tally


def distinct_invs(n):
    return Flo(tuple(Inv("s", f"a{i}") for i in range(n)))


# Keying every successor took 39,800 keys for each of the first two raw
# closures, 200 for each pick and 5,110 for the flo of 10.
@pytest.mark.parametrize("build, make, n", [
    (build_raw_cg, seq_of_invs, 200),
    (build_compressed_cg, seq_of_invs, 200),
    (build_raw_cg, linked_flo, 200),
    (build_compressed_cg, linked_flo, 200),
    (build_raw_cg, pick_of_recs, 200),
    (build_compressed_cg, pick_of_recs, 200),
    (build_compressed_cg, distinct_invs, 10),
], ids=lambda v: getattr(v, "__name__", v))
def test_closures_key_no_state_without_ties(build, make, n, keys):
    build(make(n))
    assert keys["keys"] == 0


@pytest.mark.parametrize("build", [build_raw_cg, build_prioritized_cg, build_compressed_cg],
                         ids=["raw", "prio", "compress"])
def test_closures_key_each_state_at_most_once(build, keys):
    built = 0
    for seed in range(400):
        act = random_activity(seed, depth=4)
        if validate_well_formed(act):
            continue
        keys.clear()
        try:
            g = build(act, max_states=5_000)
        except StateCapExceeded:
            continue
        assert keys["keys"] <= g.num_states, seed
        built += 1
    assert built >= 300


def test_runs_with_one_unnumbered_successor_are_not_keyed(keys, monkeypatch):
    # Keying every run of two or more successors took 8,841 keys in these
    # raw closures and 9,250 in all their stages.
    raw = []

    def counted_raw(*args):
        before = keys["keys"]
        g = build_raw_cg(*args)
        raw.append(keys["keys"] - before)
        return g

    monkeypatch.setattr(seb.transforms, "build_raw_cg", counted_raw)
    paths = sorted((ROOT / "bench/inputs/properties").glob("*.seb"))
    assert len(paths) == 24
    for path in paths:
        build_stages(parse_activity_file(path), from_raw=True)
    assert sum(raw) <= 400
    assert keys["keys"] <= 800


def test_compressing_closure_drops_a_finished_child_in_its_step():
    # Building each flow that still held its finished child, and chasing
    # the silent drop from it, passed through 3,840 states.
    g = build_compressed_cg(distinct_invs(10), max_states=1025)
    assert g.num_states == 1024


@pytest.fixture
def action_calls(monkeypatch):
    """Counts the ``sort_key`` and ``render`` calls of the four action classes."""
    tally: Counter[str] = Counter()
    for cls in (seb.control.Tau, seb.control.SesInit, seb.control.Send, seb.control.Recv):
        for name in ("sort_key", "render"):
            def counted(self, *args, original=getattr(cls, name), name=name, **kwargs):
                tally[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    return tally


def test_actions_are_ordered_and_rendered_once_per_table_entry(action_calls):
    # Ordering and labelling transitions by their action objects took
    # 181,952 sort_key calls (152,494 in the raw closures) and 90,976
    # render calls over these 24 activities: a few per transition.
    paths = sorted((ROOT / "bench/inputs/properties").glob("*.seb"))
    assert len(paths) == 24
    for path in paths:
        act = parse_activity_file(path)
        atoms = {action_of(sub) for sub in subacts(desugar_seq(act)).values()}
        entries = len(atoms - {None}) + 1  # and τ
        action_calls.clear()
        stages = build_stages(act, from_raw=True)
        check_stage_invariants(act, stages)
        for g in stages.values():
            to_aut(g)
        assert action_calls["sort_key"] <= 2 * entries, path.name
        assert action_calls["render"] <= len(stages) * entries + 1, path.name
