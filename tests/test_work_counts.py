"""Each command builds each stage of an activity once.

Counts the state-space closures (``compiler._closure``, behind both the
raw and the fused prioritized construction) and the confluence checks a
command makes, and the ordering keys (``structure_key``) the closures
take: only successors that tie on one action are keyed, each state once.
"""

import sys
from collections import Counter

import pytest

import seb.compiler
import seb.control
from seb.cli import main
from seb.compiler import (
    StateCapExceeded,
    build_compressed_cg,
    build_prioritized_cg,
    build_raw_cg,
)
from seb.syntax import Flo, Inv, to_source
from seb.wellformed import validate_well_formed

from conftest import ROOT
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


def test_compressing_closure_drops_a_finished_child_in_its_step():
    # Building each flow that still held its finished child, and chasing
    # the silent drop from it, passed through 3,840 states.
    g = build_compressed_cg(distinct_invs(10), max_states=1025)
    assert g.num_states == 1024
