"""Golden digests of ``compile`` output at every stage.

The digests were recorded before the pipeline was changed to build each
stage once.  Each digest covers, in order, every variant of one input:
its arguments, its exit code and the SHA-256 of its stdout and of its
stderr (with the input's path replaced, so temporary paths do not
count).  The exit codes are also kept in the clear.  When every check
passes, ``--check-properties`` changes no output, so both runs of an
input share one digest.

Inputs: the corpus and fixture activities, the ``seq`` family of n
silent flows for n = 25 and 50, and ``random_activity(seed, depth=4)``
for seeds 0-29.  Every input but quotecomparer is also compiled with
``--check-properties``.  quotecomparer skips the ``raw`` stage, whose
53,494-state closure alone takes seconds.
"""

import hashlib

import pytest

from seb.cli import main
from seb.syntax import to_source

from conftest import ROOT
from oracles import random_activity

VARIANTS = (
    ("--stage", "raw"),
    ("--stage", "prio"),
    ("--stage", "compress"),
    ("--stage", "rtc"),
    ("--stage", "min"),
    ("--stage", "prio", "--format", "dot", "--keep-payloads"),
)

QUOTECOMPARER = "corpus/quotecomparer.seb"
SEQ_SIZES = (25, 50)
RANDOM_SEEDS = range(30)


def input_names() -> list[str]:
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").glob("*.seb"))
    names = [str(p.relative_to(ROOT)) for p in files]
    names += [f"seq/{n}" for n in SEQ_SIZES]
    names += [f"random/{seed}" for seed in RANDOM_SEEDS]
    return names


def input_text(name: str) -> str:
    kind, _, arg = name.partition("/")
    if kind == "seq":
        return "(seq" + " (flo (nil))" * int(arg) + ")\n"
    if kind == "random":
        return to_source(random_activity(int(arg), depth=4)) + "\n"
    return (ROOT / name).read_text(encoding="utf-8")


def compile_variants(name: str, checked: bool, tmp_path, capsys) -> tuple[str, tuple[int, ...]]:
    """Run every variant of one input; return the combined digest and the exit codes."""
    path = tmp_path / "input.seb"
    path.write_text(input_text(name), encoding="utf-8")
    digest = hashlib.sha256()
    codes = []
    for variant in VARIANTS:
        if name == QUOTECOMPARER and variant == ("--stage", "raw"):
            continue
        argv = ["compile", str(path), *variant] + (["--check-properties"] if checked else [])
        code = main(argv)
        captured = capsys.readouterr()
        out = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        err = captured.err.replace(str(path), "<input>")
        err = hashlib.sha256(err.encode("utf-8")).hexdigest()
        digest.update(f"{' '.join(variant)} | {code} | {out} | {err}\n".encode("utf-8"))
        codes.append(code)
    return digest.hexdigest(), tuple(codes)


# input name -> (digest, exit code of each variant)
GOLDEN = {
    "corpus/looping_client.seb": ("a17157e184469afcf4a3d4738cf158a0f86c7f770ce0196e971875fd4b203ed9", (0, 0, 0, 0, 0, 0)),
    "corpus/looping_service.seb": ("977fbb38e69a8b7a9483dd980d29bf930894f59a320e6ae35c2fee99eae52bf5", (0, 0, 0, 0, 0, 0)),
    "corpus/pingpong_client.seb": ("b2be4f71ffaece66ad32d521843f6a759ab480ba86b50e3ebe5134533c762a35", (0, 0, 0, 0, 0, 0)),
    "corpus/pingpong_service.seb": ("df67fce4ad4d06473e0e6bf53568147a92fe6b7f5dcbcfd204c10ce1075a39a0", (0, 0, 0, 0, 0, 0)),
    "corpus/quotecomparer.seb": ("b3c2fc6a2577166e818510d3ba5d70173e01c8d3835c44bc33ba00bea35f0832", (0, 0, 0, 0, 0)),
    "fixtures/atomic_inv.seb": ("16014ab564d303e7f067878021d44d7a5e03c8937f4a9030930bf41c53f69d0f", (0, 0, 0, 0, 0, 0)),
    "fixtures/containment_cross.seb": ("1e4a84cef8deacc8ce18ce962e18921a191d5f495f1c7d7b666e305a61020549", (1, 1, 1, 1, 1, 1)),
    "fixtures/cycle.seb": ("9cd4a02b5bb9f46ea9bcd13b3eb19466039c366b39bd051fd9a571648e765d18", (1, 1, 1, 1, 1, 1)),
    "fixtures/dup_link.seb": ("11087bba6f9c33e7bb237a499cd299eeacc91e397a4680c6d51304c1e1709c48", (1, 1, 1, 1, 1, 1)),
    "fixtures/linked_pick.seb": ("fc4b190e2c0e035f1bf4b3fa143e4dbd139534a8a0a2829a41d1d392dbdc05fa", (0, 0, 0, 0, 0, 0)),
    "fixtures/mismatch_client.seb": ("0144d442d92a8b280c49f33cb578948014ad8eb3899962faaad92f815a09dca3", (0, 0, 0, 0, 0, 0)),
    "fixtures/rep_escape.seb": ("6eb26a42a99ad8f245b80d0c9b63a8d45bee165897a8a27b346eda598dc351b8", (1, 1, 1, 1, 1, 1)),
    "fixtures/rep_incoming.seb": ("36b120d2f87c1ec75183537dbcb61690a300405b8d5479ea7e0080a2dec6dd6c", (1, 1, 1, 1, 1, 1)),
    "fixtures/rep_outgoing.seb": ("bee3ef3c216c22d80b3d455d6532d11159dc1a9cf9b83c596521b841fa3524fa", (1, 1, 1, 1, 1, 1)),
    "fixtures/unscoped_link.seb": ("8b75f2d2447757a989eba4751b53487b1c4db5d92f8ee88aefa039cab4b78245", (1, 1, 1, 1, 1, 1)),
    "random/0": ("119158fbacb444d7785dd18992004c802360ec0654d98afac8545c2025145f9a", (0, 0, 0, 0, 0, 0)),
    "random/1": ("f908da186a94af0597436be7bef8f6ff2f115ba5145ef98a3740e1095bd94265", (0, 0, 0, 0, 0, 0)),
    "random/10": ("1de27cfa630649711df5a8dd141a1f4c1d802e059e87c9d218ff699d4bd04267", (0, 0, 0, 0, 0, 0)),
    "random/11": ("7c6797bbafe87be8c8d8810da9019887cbeb604541be84dae57a50902a565246", (0, 0, 0, 0, 0, 0)),
    "random/12": ("e13a7dbba0b5287c8b517aa2af811e910db0bde57b9396f9e0235a9369a07a62", (0, 0, 0, 0, 0, 0)),
    "random/13": ("6b5d649cc3e2ffb53809b6b5e80da87bea29aed7372aa8e3551b34b3fac15b96", (0, 0, 0, 0, 0, 0)),
    "random/14": ("0705a748cbef51b17f0672ddf13893eac5a6b90ba4db5dfabcdaf9f558b27c2c", (0, 0, 0, 0, 0, 0)),
    "random/15": ("335145aaa49477fffdc40decae3c873fa08a5dc5a0f52fda8c14b63f4ddc1ba6", (0, 0, 0, 0, 0, 0)),
    "random/16": ("464232ceccac5b377e9518918231c95e1f13ad90ee0efc20c68a9d6cea3f4e9b", (0, 0, 0, 0, 0, 0)),
    "random/17": ("db0ef3baae86050e4c94a9c1aaa4a46526462248dbbe0825a3706d813e6dd2d8", (0, 0, 0, 0, 0, 0)),
    "random/18": ("42713d609948fbd699574a8b6e854fb677dafd090a22f5ca4385ac32d418dcee", (0, 0, 0, 0, 0, 0)),
    "random/19": ("efdf7d3a741b4df3c7f3fe034f53ca3229a26f60bd17dd3f82a82eedf164f9bb", (0, 0, 0, 0, 0, 0)),
    "random/2": ("dd811e1041da123fe34e4cadf7f5ded7689d7422e932bdcbc964b5a36f5409fd", (0, 0, 0, 0, 0, 0)),
    "random/20": ("421a464e56750210f3cfc58bdb5325d2e8c7fa42d9c5a483a235e2209ceee9cc", (0, 0, 0, 0, 0, 0)),
    "random/21": ("1ad4402788a60195a3c4de23aa3f45def9112086a8b80b76040260ff5d161e35", (0, 0, 0, 0, 0, 0)),
    "random/22": ("63cf2938d1d5eb8ffc97f8f7a8432970b539e11a1912c24252cc8dfea675eee1", (0, 0, 0, 0, 0, 0)),
    "random/23": ("e074693847546c5cec5e03c8b928e9abcee8cdecd4e8cd808115a3e7ee857d69", (0, 0, 0, 0, 0, 0)),
    "random/24": ("eef604ec3254be9eeeaa48635d76c8d5ce5d1704d1eed3663a133f6a44550cc8", (0, 0, 0, 0, 0, 0)),
    "random/25": ("d268512183f3cc23a8ca0cb7dbfbda9cf285c69af7426a2bd47b7fac787cca1c", (0, 0, 0, 0, 0, 0)),
    "random/26": ("03a8369b82eacc0583a0841f3f89ae3a7995290cf979303f705713400e805c8d", (0, 0, 0, 0, 0, 0)),
    "random/27": ("f803a49ef0e4eac88bcb2f44420cd5c9cfe81a86ea594b3bd4827204bfc91d30", (0, 0, 0, 0, 0, 0)),
    "random/28": ("56e3c7676f022fbb3f0772a00a7ea7b451ccdbce8dfec7056061cf5c625b8325", (0, 0, 0, 0, 0, 0)),
    "random/29": ("427c39490b48c2e67ab2a5bfcff05540b3e6515f98be599548117a0dc0b1a7be", (0, 0, 0, 0, 0, 0)),
    "random/3": ("e656297633151dbdb6ab9f4523a1b5e8b7336463d79242c4d0b7a5f0052404fc", (0, 0, 0, 0, 0, 0)),
    "random/4": ("09cc218e058a5c2e06f83759659975a8941f2a1e60add2d4dab72d4f8b2910d3", (0, 0, 0, 0, 0, 0)),
    "random/5": ("9eb294bf05869052661fadf9d3be299f4517c9dc9592e4fe3db68bc1acd2e60e", (0, 0, 0, 0, 0, 0)),
    "random/6": ("610ea720d44310c49c61be1eeaeebcb846bccffd702cfcba8cc00be02c364696", (0, 0, 0, 0, 0, 0)),
    "random/7": ("f908da186a94af0597436be7bef8f6ff2f115ba5145ef98a3740e1095bd94265", (0, 0, 0, 0, 0, 0)),
    "random/8": ("8db9ceaa06f5692d8a063a86202c8919553d082473d7ed1588d9212fabafaf06", (0, 0, 0, 0, 0, 0)),
    "random/9": ("942689fc6588b35535013ee8c63a5c89fc28c44d2cb7e63e0aa4c9bde25b225b", (0, 0, 0, 0, 0, 0)),
    "seq/25": ("7cbcdfc38ab68c2d0b29538a8e04ad8ae335741b909c8e33aec8d0148a602248", (0, 0, 0, 0, 0, 0)),
    "seq/50": ("4ee60a41196cc2fc0dba1b4bf84ba0096a3313789a9dba850f89ba8d2b9ca6b2", (0, 0, 0, 0, 0, 0)),
}


CASES = [(name, False) for name in GOLDEN]
CASES += [(name, True) for name in GOLDEN if name != QUOTECOMPARER]


@pytest.mark.parametrize("name, checked", CASES, ids=lambda v: str(v))
def test_compile_output_matches_golden(name, checked, tmp_path, capsys):
    assert compile_variants(name, checked, tmp_path, capsys) == GOLDEN[name]


def test_golden_covers_every_input():
    assert sorted(GOLDEN) == sorted(input_names())
