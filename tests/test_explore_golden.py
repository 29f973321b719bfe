"""Golden digests of the explorer's observable output.

The digests were recorded from the explorer before its successor tables
and configuration hashes were cached; the qc-deployed step renders were
recorded before ``successors`` became one pass over the instances.  They
pin the step order: the rules SES1, SES2, INV and REC over the instances,
each in edge order, which fixes the BFS order, the actor a configuration
expands alone, the configuration counts, the verdicts, the traces and the
exit codes.
"""

import hashlib

import pytest

from seb.cli import main
from seb.configs import make_initial_config, successors
from seb.manifest import load_manifest

from conftest import ROOT

MISMATCH = ("91eb2d84fc12027038892957666228ac078c234bb914085f0546ca20dda51c56", 1)
# Re-recorded when partial-order reduction cut both counts: pingpong.cfg
# from 8 configurations to 7, looping.cfg from 8 to 7.
PINGPONG = ("c1935340257b8fe05fbc2007dd97e8cdf26d2e80e5bddb0cc5e9bef44473bb01", 0)
# looping.cfg is finite up to symmetry: at every bound it prints
# "Verified (7 configurations)", as pingpong.cfg does.
LOOPING = PINGPONG

CHECK_TRACE_DIGESTS = {
    ("fixtures/mismatch.cfg", 10): MISMATCH,
    ("fixtures/mismatch.cfg", 500): MISMATCH,
    ("fixtures/mismatch.cfg", 2000): MISMATCH,
    ("corpus/pingpong.cfg", 10): PINGPONG,
    ("corpus/pingpong.cfg", 500): PINGPONG,
    ("corpus/pingpong.cfg", 2000): PINGPONG,
    ("corpus/looping.cfg", 10): LOOPING,
    ("corpus/looping.cfg", 500): LOOPING,
    ("corpus/looping.cfg", 2000): LOOPING,
}

# SHA-256 over every ``ConfigStep.render()`` (one per line) that
# ``successors`` returns for the first 500 configurations of each manifest,
# taken in breadth-first discovery order.  looping.cfg deploys one service;
# qc-deployed deploys three, so it also pins SES2 across services and the
# interleaving of INV and REC over several instances.
STEP_RENDER_DIGESTS = {
    "corpus/looping.cfg": "41abc3a893b94ada1a7075c99ede71b07125724d498a4a95660f95c67a1aac09",
    "bench/inputs/qc-deployed/deployed.cfg": (
        "a826a938bcd48ea48dabf4e3856845d407892a63ed2a11e7632606e3c166f994"
    ),
}


@pytest.fixture(autouse=True)
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize(
    "manifest, max_configs", sorted(CHECK_TRACE_DIGESTS), ids=lambda v: str(v)
)
def test_check_trace_output_matches_golden(manifest, max_configs, capsys):
    code = main(["check", manifest, "--trace", "--max-configs", str(max_configs)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, code) == CHECK_TRACE_DIGESTS[(manifest, max_configs)], out


@pytest.mark.parametrize("manifest", sorted(STEP_RENDER_DIGESTS))
def test_successor_renders_in_bfs_order_match_golden(manifest):
    loaded = load_manifest(ROOT / manifest)
    initial = make_initial_config(list(loaded.services), loaded.client)
    seen = {initial}
    order = [initial]
    digest = hashlib.sha256()
    index = 0
    while index < min(len(order), 500):
        for step in successors(order[index]):
            digest.update(step.render().encode("utf-8") + b"\n")
            if step.result not in seen:
                seen.add(step.result)
                order.append(step.result)
        index += 1
    assert index == 500
    assert digest.hexdigest() == STEP_RENDER_DIGESTS[manifest]
