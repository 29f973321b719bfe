"""Each CLI command runs with the cyclic collector paused.

The pause is safe only while the compile path and the explorer leave no
reference cycles behind: with the collector off, ``gc.collect()`` counts
what they left.  ``main`` must then leave the collector as it found it,
on every exit path.
"""

import gc

import pytest

import seb.cli
from seb.cli import main
from seb.configs import explore_safety
from seb.manifest import load_manifest
from seb.parser import parse_activity_file
from seb.transforms import build_stages, check_stage_invariants
from seb.wellformed import validate_well_formed

from conftest import ROOT


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was:
        gc.enable()


def test_parsing_and_validation_leave_no_cycles(collector_off):
    act = parse_activity_file(ROOT / "corpus/quotecomparer.seb")
    assert validate_well_formed(act) == []
    assert gc.collect() == 0


def test_raw_route_and_its_checks_leave_few_cycles(collector_off, quotecomparer):
    check_stage_invariants(quotecomparer, build_stages(quotecomparer, from_raw=True))
    assert gc.collect() == 0


def test_fused_route_leaves_few_cycles(collector_off, quotecomparer):
    build_stages(quotecomparer)
    assert gc.collect() == 0


def test_exploration_leaves_no_cycles(collector_off):
    loaded = load_manifest(ROOT / "fixtures/qc3/deployed.cfg")
    gc.collect()
    explore_safety(list(loaded.services), loaded.client)
    assert gc.collect() == 0


# --------------------------------------------------------------------------
# main leaves the collector as it found it

# Functions the commands call, wrapped to record the collector's state.
WORK = ("parse_activity_file", "build_stages", "free_vars", "load_manifest",
        "explore_safety", "simulate")


def broken(*args, **kwargs):
    raise RuntimeError("boom")


def interrupted(*args, **kwargs):
    raise KeyboardInterrupt


def exhausted(*args, **kwargs):
    raise MemoryError


CASES = [
    pytest.param(["compile", "corpus/pingpong_client.seb"], 0, None, id="compile"),
    pytest.param(["compile", "corpus/pingpong_client.seb", "--check-properties"], 0, None,
                 id="compile-check-properties"),
    pytest.param(["check", "corpus/pingpong.cfg"], 0, None, id="check"),
    pytest.param(["validate", "corpus/pingpong_client.seb", "--report-vars"], 0, None,
                 id="validate-report-vars"),
    pytest.param(["simulate", "corpus/pingpong.cfg", "--steps", "6"], 0, None, id="simulate"),
    pytest.param(["compile", "no_such_file.seb"], 2, None, id="missing-file"),
    pytest.param(["compile", "corpus/quotecomparer.seb", "--max-states", "10"], 3, None,
                 id="state-cap"),
    pytest.param(["compile", "corpus/pingpong_client.seb"], 5, broken, id="internal-error"),
    pytest.param(["compile", "corpus/pingpong_client.seb"], 3, exhausted, id="out-of-memory"),
]


@pytest.fixture
def record(monkeypatch):
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)

        return wrapper

    for name in WORK:
        monkeypatch.setattr(seb.cli, name, recording(getattr(seb.cli, name)))
    return seen, recording


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code, replacement", CASES)
def test_main_restores_the_collector(argv, code, replacement, collector, record, monkeypatch,
                                     capfd):
    monkeypatch.chdir(ROOT)
    seen, recording = record
    if replacement is not None:
        monkeypatch.setattr(seb.cli, "build_stages", recording(replacement))
    assert main(argv) == code
    assert gc.isenabled() is collector
    assert seen and not any(seen)
    if replacement is exhausted:  # written straight to file descriptor 2
        assert capfd.readouterr().err == "error: out of memory\n"


def test_main_restores_the_collector_on_an_uncaught_interrupt(collector, record, monkeypatch):
    monkeypatch.chdir(ROOT)
    seen, recording = record
    monkeypatch.setattr(seb.cli, "explore_safety", recording(interrupted))
    with pytest.raises(KeyboardInterrupt):
        main(["check", "corpus/pingpong.cfg"])
    assert gc.isenabled() is collector
    assert seen and not any(seen)
