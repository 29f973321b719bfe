"""Inputs as wide as thousands of siblings, links or silent steps.

Validation and the silent-cycle search used to recurse once per step of
the paths they followed, so these inputs ended in a ``RecursionError``.
A pick's steps unioned the sources of every other branch, once per step,
so its compilation grew quadratically with its width.
"""

import time

import pytest

from seb.cli import main
from seb.compiler import find_tau_cycle
from seb.diagnostics import CYCLE
from seb.syntax import to_source
from seb.transforms import tau_compress
from seb.wellformed import validate_well_formed

from oracles import linked_flo, pick_of_recs, seq_of_invs, silent_path, silent_ring


@pytest.mark.parametrize(
    "build",
    [lambda: seq_of_invs(1000), lambda: seq_of_invs(5000), lambda: linked_flo(1001)],
    ids=["seq-1000", "seq-5000", "flo-chain-1000"],
)
def test_validate_wide_activity(build, tmp_path, capsys):
    path = tmp_path / "wide.seb"
    path.write_text(to_source(build()) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code = main(["validate", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, f"{path}: ok\n", "")
    assert elapsed < 1.0


def test_pick_of_3000_branches_compiles(tmp_path, capsys):
    path = tmp_path / "pick.seb"
    path.write_text(to_source(pick_of_recs(3000)) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code = main(["compile", str(path), "--stage", "min"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out.splitlines()[0], captured.err) == (0, "des (0, 6000, 3002)", "")
    assert elapsed < 3.0


def test_cycle_through_2000_activities_is_one_diagnostic():
    diagnostics = validate_well_formed(linked_flo(2000, ring=True))
    assert [d.code for d in diagnostics] == [CYCLE]
    assert diagnostics[0].message.count(" -> ") == 2000


def test_silent_cycle_search_on_10000_states():
    assert find_tau_cycle(silent_path(10_000)) is None
    assert find_tau_cycle(silent_ring(10_000)) == list(range(10_000)) + [0]


def test_compression_collapses_a_10000_state_silent_path():
    g = tau_compress(silent_path(10_000))
    assert (g.num_states, g.init, g.transitions) == (1, 0, ())
