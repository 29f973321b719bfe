"""Freeness by one search per variable, against the antichain reference.

``free_vars_of_graph`` follows, per variable, the transitions that do not
bind it; ``oracles.reference_free_vars_of_graph`` is the forward fixed
point over antichains of bound sets it replaced.  Both must give the same
set on every stage graph.  The regression inputs make ``n`` independent
two-way choices that each bind a different variable: the reference
carries 2^n bound sets there, the search does not.
"""

import pytest

from seb.cli import main
from seb.diagnostics import P0_REBOUND, S0_INITIATED
from seb.parser import parse_activity, parse_activity_file
from seb.transforms import build_stages
from seb.variables import classify_occurrences, free_vars, free_vars_of_graph
from seb.wellformed import validate_well_formed

from conftest import RAW_TOO_LARGE, ROOT
from oracles import reference_free_vars_of_graph, small_random_activities

# Ten independent choices: the reference carries 2^10 bound sets.
EXPONENTIAL = {"choices"}


def stage_graphs(act, with_raw=True):
    if with_raw:
        return build_stages(act, from_raw=True)
    return {**build_stages(act, "prio"), **build_stages(act)}


def validating_activities():
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").rglob("*.seb"))
    out = []
    for path in files:
        act = parse_activity_file(path)
        if not validate_well_formed(act) and path.parent.name not in EXPONENTIAL:
            out.append(pytest.param(path, id=str(path.relative_to(ROOT))))
    return out


@pytest.mark.parametrize("path", validating_activities())
def test_search_matches_reference_on_corpus_and_fixtures(path):
    too_large = path.relative_to(ROOT).as_posix() in RAW_TOO_LARGE
    stages = stage_graphs(parse_activity_file(path), not too_large)
    assert len(stages) == 5 - too_large
    for name, g in stages.items():
        assert free_vars_of_graph(g) == reference_free_vars_of_graph(g), name


def test_search_matches_reference_on_random_activities():
    compared = 0
    for n, (act, _) in enumerate(small_random_activities(300)):
        for name, g in stage_graphs(act).items():
            assert free_vars_of_graph(g) == reference_free_vars_of_graph(g), (n, name)
            compared += 1
    assert compared == 300 * 5


def test_use_and_binding_on_one_transition_count_the_use_first():
    # the reception uses x as its session before binding it as a parameter
    act = parse_activity("(rec x op (x))")
    for g in stage_graphs(act).values():
        assert free_vars_of_graph(g) == reference_free_vars_of_graph(g) == {"x"}


# --------------------------------------------------------------------------
# Independent choices between bindings


def choices(n: int) -> str:
    picks = " ".join(
        f"(pic (on (rec s a{i} (x{i})) (nil)) (on (rec s b{i} (y{i})) (nil)))"
        for i in range(n)
    )
    return f"(seq {picks} (inv s c (z)))"


def test_free_vars_of_sixteen_choices():
    assert free_vars(parse_activity(choices(16))) == {"s", "z"}


def test_validate_report_vars_on_sixteen_choices(tmp_path, capsys):
    path = tmp_path / "choices.seb"
    path.write_text(choices(16))
    assert main(["validate", "--report-vars", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{path}: ok"
    assert "  free:    s, z" in lines


def test_check_service_with_ten_choices(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["check", "fixtures/choices/choices.cfg"]) == 0
    assert capsys.readouterr().out == "Verified (27 configurations)\n"


# --------------------------------------------------------------------------
# Forbidden occurrences follow the kind of the binding position


def test_forbidden_bindings_are_reported_once_per_activity():
    report = classify_occurrences(parse_activity("(rec s op (p0 p0))"))
    assert [d.code for d in report.forbidden] == [P0_REBOUND]


def test_reserved_names_in_other_positions_are_not_forbidden():
    # s0 bound as a parameter and p0 initiated as a session are kind
    # clashes for validation, not forbidden occurrences
    for text in ("(rec s op (s0))", "(ses p0 l)", "(seq (ses s p0) (inv s0 op (p0)))"):
        assert classify_occurrences(parse_activity(text)).forbidden == (), text


def test_initiating_the_root_session_is_forbidden_at_its_path():
    report = classify_occurrences(parse_activity("(seq (inv s a) (ses s0 p))"))
    assert [(d.code, d.path) for d in report.forbidden] == [(S0_INITIATED, (1,))]
