"""The least ``max_states`` cap at which each stage builds.

The caps were recorded before the closures stopped sorting their derived
steps, so they pin how many states each closure explores: the raw
closure, the fused prioritized closure behind ``prio`` and the
compressing closure behind ``min``, which also counts the states its
silent chase passes through.  Each stage must build at its recorded cap
and raise ``StateCapExceeded`` one below it.

Inputs: the corpus and fixture activities that validate, a ``seq`` of 25
silent flows, ``seq_of_invs(30)``, ``linked_flo(30)`` and
``random_activity(seed, depth=4)`` for seeds 0-39.  quotecomparer skips
the ``raw`` stage, whose 53,494-state closure takes about 10 s a build.
"""

import pytest

from seb.compiler import StateCapExceeded
from seb.parser import parse_activity, parse_activity_file
from seb.transforms import build_stages

from conftest import ROOT
from oracles import linked_flo, random_activity, seq_of_invs

STAGES = ("raw", "prio", "min")

# input name -> least cap at raw, prio and min (None: not checked)
LEAST_CAP = {
    "corpus/looping_client.seb": (37, 15, 15),
    "corpus/looping_service.seb": (4, 4, 4),
    "corpus/pingpong_client.seb": (10, 7, 7),
    "corpus/pingpong_service.seb": (4, 4, 4),
    "corpus/quotecomparer.seb": (None, 429, 163),
    "fixtures/atomic_inv.seb": (2, 2, 2),
    "fixtures/mismatch_client.seb": (10, 7, 7),
    "seq-flo-25": (351, 351, 51),
    "seq-inv-30": (496, 61, 61),
    "flo-chain-30": (496, 61, 61),
    "random-0": (22, 21, 21),
    "random-1": (2, 2, 2),
    "random-2": (93, 61, 54),
    "random-3": (2, 2, 2),
    "random-4": (2, 2, 2),
    "random-5": (349, 89, 87),
    "random-6": (7, 6, 6),
    "random-7": (2, 2, 2),
    "random-8": (2, 2, 2),
    "random-9": (182, 40, 40),
    "random-10": (63, 17, 17),
    "random-11": (148, 53, 53),
    "random-12": (169, 39, 39),
    "random-13": (2, 2, 2),
    "random-14": (2, 2, 2),
    "random-15": (12, 11, 11),
    "random-16": (510, 62, 54),
    "random-17": (53, 36, 36),
    "random-18": (2, 2, 2),
    "random-19": (1038, 396, 396),
    "random-20": (6, 6, 6),
    "random-21": (2, 2, 2),
    "random-22": (60, 35, 35),
    "random-23": (97, 50, 50),
    "random-24": (310, 96, 96),
    "random-25": (3, 3, 3),
    "random-26": (43, 33, 33),
    "random-27": (12, 9, 9),
    "random-28": (2, 2, 2),
    "random-29": (2270, 272, 272),
    "random-30": (130, 65, 65),
    "random-31": (2, 2, 2),
    "random-32": (2, 2, 2),
    "random-33": (39, 32, 30),
    "random-34": (24, 12, 12),
    "random-35": (4, 4, 4),
    "random-36": (2, 2, 2),
    "random-37": (19, 19, 19),
    "random-38": (86, 38, 38),
    "random-39": (2, 2, 2),
}


def build_input(name: str):
    if name == "seq-flo-25":
        return parse_activity("(seq" + " (flo (nil))" * 25 + ")")
    if name == "seq-inv-30":
        return seq_of_invs(30)
    if name == "flo-chain-30":
        return linked_flo(30)
    if name.startswith("random-"):
        return random_activity(int(name.removeprefix("random-")), depth=4)
    return parse_activity_file(ROOT / name)


@pytest.mark.parametrize("name", LEAST_CAP)
def test_each_stage_builds_at_its_least_cap_and_not_below(name):
    act = build_input(name)
    for stage, cap in zip(STAGES, LEAST_CAP[name]):
        if cap is None:
            continue
        build_stages(act, stage, max_states=cap)
        with pytest.raises(StateCapExceeded):
            build_stages(act, stage, max_states=cap - 1)
