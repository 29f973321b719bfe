"""The raw route's shared scans give what the public functions give.

``check_properties`` builds raw's and prio's edge rows once, searches raw
for a silent cycle once, and hands them to prioritization, compression
and every check.  Here each result is compared with the public functions,
each of which builds what it reads itself: the stages, the reports, the
rows, the silent cycle and the confluence check of the raw graph.
"""

import pytest

import seb.transforms
from seb.compiler import (
    StateCapExceeded,
    build_prioritized_cg,
    build_raw_cg,
    check_raw_properties,
    find_confluence_violation,
    find_tau_cycle,
)
from seb.control import ControlGraph, Send, TAU
from seb.parser import parse_activity, parse_activity_file
from seb.syntax import Flo, Inv
from seb.transforms import (
    STAGES,
    StageReport,
    TransformPreconditionError,
    build_stages,
    check_properties,
    check_stage_invariants,
    minimize,
    run_to_completion,
    tau_compress,
)
from seb.wellformed import validate_well_formed

from conftest import RAW_TOO_LARGE, ROOT, SILENT_LOOP
from oracles import random_activity

CAP = 5_000


def public_route(act):
    """The raw route's stages and reports from the public functions alone."""
    raw, prio = build_raw_cg(act, CAP), build_prioritized_cg(act, CAP)
    try:
        compress = tau_compress(prio)
    except TransformPreconditionError:  # prio has a silent cycle
        return {"raw": raw}, [StageReport("raw", tuple(check_raw_properties(act, raw)))]
    rtc = run_to_completion(compress)
    stages = {"raw": raw, "prio": prio, "compress": compress, "rtc": rtc, "min": minimize(rtc)}
    return stages, check_stage_invariants(act, stages)


def assert_scans_agree(act):
    stages, reports = check_properties(act, CAP)
    assert (stages, reports) == public_route(act)
    assert build_stages(act, from_raw=True, max_states=CAP) == stages
    raw = stages["raw"]
    out, silent, prio_out = seb.transforms._raw_route(act, STAGES.index("min"), CAP)[1]
    assert out == raw.edge_rows()
    assert prio_out == build_prioritized_cg(act, CAP).edge_rows()
    cycle = find_tau_cycle(raw)
    assert silent == (None if cycle is None else f"silent cycle through states {cycle}")
    assert find_confluence_violation(raw, out) == find_confluence_violation(raw)
    assert reports[0] == StageReport("raw", tuple(check_raw_properties(act, raw)))
    if "compress" in stages:
        assert stages["compress"] == tau_compress(stages["prio"])
    return reports


def _corpus_paths():
    paths = sorted((ROOT / "corpus").glob("*.seb")) + sorted(
        (ROOT / "bench/inputs/properties").glob("*.seb"))
    return [p for p in paths if str(p.relative_to(ROOT)) not in RAW_TOO_LARGE]


@pytest.mark.parametrize("path", _corpus_paths(), ids=lambda p: p.name)
def test_shared_scans_on_corpus_and_properties_inputs(path):
    act = parse_activity_file(path)
    if validate_well_formed(act):
        pytest.skip("not well formed")
    assert_scans_agree(act)


def test_shared_scans_on_generated_activities():
    checked = 0
    for seed in range(400):
        act = random_activity(seed, depth=4)
        if validate_well_formed(act):
            continue
        try:
            assert_scans_agree(act)
        except StateCapExceeded:
            continue
        checked += 1
    assert checked >= 300


def test_shared_scans_on_the_silent_loop():
    reports = assert_scans_agree(parse_activity(SILENT_LOOP))
    assert [r.stage for r in reports] == ["raw"]
    assert reports[0].problems[0] == "silent cycle through states [0, 1, 0]"


A = Send("s", "a")


# The raw problems are those check_raw_properties gave before the scans
# were shared.
@pytest.mark.parametrize("edges, stages, problems", [
    # Prio keeps only 0's silent edge, so it never reaches the cycle 1-3-1.
    ([(0, TAU, 2), (0, A, 1), (1, TAU, 3), (3, TAU, 1)], list(STAGES), (
        "silent cycle through states [1, 3, 1]",
        "silent step at state 0 (to 2) does not commute with s!a() (to 1)",
        "sink unreachable from state: 1",
    )),
    # Prio keeps the cycle 0-1-0: nothing after raw can be built.
    ([(0, TAU, 1), (1, TAU, 0), (0, A, 2)], ["raw"], (
        "silent cycle through states [0, 1, 0]",
        "silent step at state 0 (to 1) does not commute with s!a() (to 2)",
    )),
], ids=["raw-cycle-prio-cannot-reach", "cycle-in-prio"])
def test_route_stops_at_raw_exactly_when_prio_has_a_silent_cycle(
    edges, stages, problems, monkeypatch
):
    raw = ControlGraph(1 + max(max(f, t) for f, _, t in edges), 0, edges)
    monkeypatch.setattr(seb.transforms, "build_raw_cg", lambda act, max_states: raw)
    act = Flo((Inv("s", "a"), Inv("s", "b")))
    built, reports = check_properties(act)
    assert list(built) == stages
    assert build_stages(act, from_raw=True) == built
    assert reports == check_stage_invariants(act, built)
    assert reports[0] == StageReport("raw", problems)
    assert list(check_raw_properties(act, raw)) == list(problems)
    if "compress" in built:
        assert built["compress"] == tau_compress(built["prio"])
    else:
        with pytest.raises(TransformPreconditionError):
            tau_compress(seb.transforms._keep_highest(raw, seb.transforms._is_tau, raw.edge_rows()))
