"""The one iterative cycle search against the recursive searches it replaced.

``recursive_precedence_cycle`` and ``recursive_tau_cycle`` in
``oracles.py`` are the recursive searches validation and the silent-cycle
check used before; the iterative search must return exactly the same
closed cycle, or None, on every graph.
"""

import random

from seb.compiler import find_tau_cycle
from seb.control import TAU, ControlGraph, Send, find_cycle
from seb.parser import parse_activity_file
from seb.transforms import build_stages

from conftest import corpus_activities
from oracles import (
    random_activity,
    recursive_precedence_cycle,
    recursive_tau_cycle,
    silent_path,
    silent_ring,
)

GRAPHS = 10_000
OBSERVABLE = Send("s", "a")


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 2 * n + 1))]


def test_find_cycle_matches_the_recursive_searches_on_random_digraphs():
    rng = random.Random(2012)
    found = 0
    for _ in range(GRAPHS):
        n = rng.randrange(1, 9)
        edges: dict[int, set[int]] = {}
        for a, b in random_edges(rng, n):
            edges.setdefault(a, set()).add(b)
        expected = recursive_precedence_cycle(edges)
        successors = {v: sorted(succs) for v, succs in edges.items()}
        assert find_cycle(sorted(edges), successors) == expected
        found += expected is not None

        transitions = [
            (a, TAU if rng.random() < 0.7 else OBSERVABLE, b) for a, b in random_edges(rng, n)
        ]
        g = ControlGraph(n, 0, tuple(transitions))
        assert find_tau_cycle(g) == recursive_tau_cycle(g)
    # both outcomes are well represented
    assert GRAPHS // 10 < found < GRAPHS - GRAPHS // 10


def test_find_tau_cycle_matches_the_recursive_search_on_compiled_graphs():
    acts = [parse_activity_file(p) for p in corpus_activities()]
    acts += [random_activity(seed, depth=3) for seed in range(60)]
    for act in acts:
        g = build_stages(act, "prio")["prio"]
        assert find_tau_cycle(g) is None
        assert recursive_tau_cycle(g) is None
    for n in range(1, 30):
        assert find_tau_cycle(silent_ring(n)) == recursive_tau_cycle(silent_ring(n))
        assert find_tau_cycle(silent_path(n)) is recursive_tau_cycle(silent_path(n)) is None
