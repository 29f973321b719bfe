"""Exploration by deltas, checked step by step against the full computations.

``explore_safety`` keys and checks only its initial configuration from
scratch.  A successor's live entries, and so its key, are built from its
parent's (``_step_entries``); its safety is read off the step that
reached it (``_step_witness``); and the actor expanded alone is read off
each row's class (``StateEdges.only``).  These tests compare each with
the computation from scratch on every step of configurations reached by
full expansion (``reached``), over the corpus, the fixtures and
generated manifests.
"""

import random

from seb.configs import (
    SessionId,
    _ample,
    _entries,
    _key,
    _step_entries,
    _step_witness,
    canonical_key,
    one_step_safe,
    successors,
)
from seb.control import Recv, SesInit, Send
from seb.manifest import load_manifest
from seb.parser import InputError

from conftest import ROOT
from oracles import ManifestGenerator, RaceGenerator, write_manifest
from test_partial_order import reached


def edge_rule_ample(config):
    """``_ample`` as it read a row: its first and last edges say what all are.

    Edge rows sort by action class, then by session variable.
    """
    session_queue = dict(config.sessions)
    sender = receiver = None
    for idx, inst in enumerate(config.instances):
        edges = inst.edges.all
        if not edges:
            continue
        first, last = edges[0][0], edges[-1][0]
        if isinstance(first, SesInit) and isinstance(last, SesInit):
            return idx
        if sender is None and isinstance(first, Send) and isinstance(last, Send):
            sender = idx
        elif receiver is None and isinstance(first, Recv) and first.s == last.s:
            [(_, slot, accepted)] = inst.edges.receptions
            own = inst.var_map[slot][1]
            queue = session_queue.get(own.number) if isinstance(own, SessionId) else None
            if queue and (queue[0].op, len(queue[0].payload)) in accepted:
                receiver = idx
    service_queue = dict(config.locations)
    for svc in config.services:
        if svc.location.name in service_queue:
            return svc.name
    return receiver if sender is None else sender


def check_deltas(loaded, limit: int, tally) -> None:
    """Compare every step of up to ``limit`` reached configurations; count into ``tally``."""
    shapes: dict = {}
    for config in reached(loaded, limit):
        assert _ample(config) == edge_rule_ample(config)
        safe = one_step_safe(config) is None
        entries = _entries(config, shapes)
        for step in successors(config):
            if step.result.fault is not None:
                continue
            succ = _step_entries(entries, step, shapes)
            assert succ == _entries(step.result, shapes)
            key, longest = _key(succ, step.result)
            assert key == canonical_key(step.result, shapes)
            assert longest == max((len(items) for _, items in key[-1]), default=0)
            tally["steps"] += 1
            if safe:
                witness = _step_witness(step, succ)
                assert witness == one_step_safe(step.result), step.render()
                tally["witnesses"] += witness is not None


def test_step_deltas_match_full_computations(tmp_path):
    tally = {"steps": 0, "witnesses": 0}
    manifests = sorted(ROOT.glob("corpus/*.cfg")) + sorted(ROOT.glob("fixtures/**/*.cfg"))
    for path in manifests:
        try:
            loaded = load_manifest(path)
        except InputError:
            continue  # a fixture of a rejected manifest
        check_deltas(loaded, 300, tally)
    for make, seeds in ((ManifestGenerator, 300), (RaceGenerator, 100)):
        for seed in range(seeds):
            files = make(random.Random(seed)).manifest()
            directory = tmp_path / f"{make.__name__}{seed}"
            check_deltas(load_manifest(write_manifest(directory, files)), 40, tally)
    assert tally["steps"] >= 20_000, tally
    assert tally["witnesses"] >= 300, tally
