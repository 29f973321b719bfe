"""Golden digests of ``seb simulate`` output.

``simulate`` is the only command that prints a configuration's session
bindings.  Each digest is the SHA-256 of stdout for ``--steps 80`` at one
seed, with the exit code.  On ``looping.cfg`` the final configuration
holds 14 pairs, so the digests also pin their order: by the first id's
name, so ``#10 ~ #11`` prints before ``#2 ~ #3``.  On the deployed
quotecomparer, two searches spawn instances of three services, so the
digests pin the order in which those spawns and their replies race.
"""

import hashlib

import pytest

from seb.cli import main

from conftest import ROOT

PINGPONG_A = ("455715d3a0d1f39edaf1a324ac9421fd474f31f421bd78eb552a8a5a798cd004", 0)
PINGPONG_B = ("9903622b35bf2b46cba307bd8521c3f246f49fb4ba6d617bbc2c41df446dd15a", 0)
MISMATCH_A = ("cef1c0469772aa36bf0a91877b93897e055c6587d405de29dec2896cf04417ed", 0)
MISMATCH_B = ("da49b4ea5aba91f5c620d5a904b69252f61c8f6c51e81fd438fa81f23c0e6cd3", 0)

SIMULATE_DIGESTS = {
    "bench/inputs/qc-deployed/deployed.cfg": [
        ("c84e188ba41a31bc23aa20834fa53bf9eaa06d66f56bad5e283f9087f129248b", 0),
        ("0baf87fabc05d72844bbe4c2c3b68c77a9b233a2509182c5d2e47f8bc1093645", 0),
        ("313adedaccb47f4ff66ac3f547c0381574979e9d357fcee63ec375efc03495e1", 0),
        ("b1599f9515789ad3d51b60334c2a73ef1f827fea3cbb7c8b8061acbfacac17d2", 0),
        ("7a9b1d562ad9687765dd98567a2189acffdd9f5e5616c93aa3c455e7fe50729e", 0),
        ("13c69933cd910fee5397646a2db18934ceb3e3d4c64b9758b0d5df534f96c93b", 0),
        ("e20f11182066b351ddfd4e339a6d154b5e4fda98cd0a6aa1d9b922e739a0066f", 0),
        ("e13c993507009ad509be85a4258a019b9c5c2fad95568b85540c0cb44fe26a2e", 0),
        ("8a25bd246b40b89998afe4db34bf0b04ab16575865522bf028ab2f0ac0ce7b48", 0),
        ("971ecc84ff0148d1ba58c21c54c41d679af67c805fc9342954f10f144ae0bd15", 0),
    ],
    "corpus/pingpong.cfg": [
        PINGPONG_A, PINGPONG_B, PINGPONG_B, PINGPONG_B, PINGPONG_A,
        PINGPONG_A, PINGPONG_A, PINGPONG_B, PINGPONG_A, PINGPONG_A,
    ],
    "corpus/looping.cfg": [
        ("0eb35b72eea7e1928bd54b3a2388318c58d5ece0a36f74b131d51b40e615b45e", 0),
        ("fc1b17ff0ebb2d78aac0c7830a83c4c1f3cb5bd8b5f434fa21b691aa782e4ebd", 0),
        ("0f918eb1635eb18cb96cd4312e4efd4007ed096081e1831f745dec7465c966e8", 0),
        ("d5e0a2592a5cc9b18a39259d28fa5f12dbbd929f0a96b23a8b6d625a2f9bc3a8", 0),
        ("04b696ec43213c6b43a00120599ad2afb08b015182c70345a249e8e56b0aa431", 0),
        ("a77762fcd97ac7c713cdf22be845e8ad01793f3584e9e1b960422f8ba74910f6", 0),
        ("ff19f8916e7d4a3e39fc5ab6202dae78bb098f999b261af7ab38acac50cdef9e", 0),
        ("1731e13d674480b7329adac57b04bb5b2f7920691bca0c5912d80b605f74f9cc", 0),
        ("ef8a7218d2f5fd1c266693457a49d6b9b143ecf45ad2be69ec75ecc3428b8edd", 0),
        ("fcdc1e3e44fd78cb771b62b75ebfa26c50ebb4253b72f012e63853bab3ece18a", 0),
    ],
    "fixtures/mismatch.cfg": [
        MISMATCH_A, MISMATCH_B, MISMATCH_B, MISMATCH_B, MISMATCH_A,
        MISMATCH_A, MISMATCH_A, MISMATCH_B, MISMATCH_A, MISMATCH_A,
    ],
}


@pytest.fixture(autouse=True)
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("manifest", sorted(SIMULATE_DIGESTS))
@pytest.mark.parametrize("seed", range(10))
def test_simulate_output_matches_golden(manifest, seed, capsys):
    code = main(["simulate", manifest, "--seed", str(seed), "--steps", "80"])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, code) == SIMULATE_DIGESTS[manifest][seed], out
