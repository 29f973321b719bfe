"""The confluence check through per-action tables, against the edge-set scan.

``find_confluence_violation`` groups a silent target's successors by
action and a state's silent successors into a set;
``oracles.reference_confluence_violation`` is the scan over edge sets it
replaced.  Both must return the same (state, g1, action, g2), or None, on
every raw graph, and on mutants of them with a few transitions dropped,
where violations occur.
"""

import random

import pytest

from seb.compiler import build_raw_cg, find_confluence_violation
from seb.control import TAU, ControlGraph, Recv, Send
from seb.parser import parse_activity_file
from seb.wellformed import validate_well_formed

from conftest import RAW_TOO_LARGE, ROOT
from oracles import reference_confluence_violation, small_random_activities

PROPERTY_INPUTS = sorted((ROOT / "bench" / "inputs" / "properties").glob("*.seb"))
MUTANTS_PER_GRAPH = 10


def agree(g: ControlGraph):
    found = find_confluence_violation(g)
    assert found == reference_confluence_violation(g)
    return found


def mutants(g: ControlGraph, rng: random.Random, count: int):
    """``count`` copies of ``g``, each with one to three transitions dropped."""
    for _ in range(count):
        n = len(g.transitions)
        dropped = set(rng.sample(range(n), min(n, rng.randint(1, 3))))
        kept = tuple(t for i, t in enumerate(g.transitions) if i not in dropped)
        yield ControlGraph(g.num_states, g.init, kept)


def validating_activities():
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").rglob("*.seb"))
    for path in files:
        name = path.relative_to(ROOT).as_posix()
        if name not in RAW_TOO_LARGE and not validate_well_formed(parse_activity_file(path)):
            yield pytest.param(path, id=name)


@pytest.mark.parametrize("path", validating_activities())
def test_corpus_and_fixtures(path):
    g = build_raw_cg(parse_activity_file(path))
    assert agree(g) is None
    for mutant in mutants(g, random.Random(path.name), 5):
        agree(mutant)


def test_generated_activities_and_their_mutants():
    rng = random.Random(2012)
    violations = 0
    for n, (_, g) in enumerate(small_random_activities(300, depth=4, max_raw_states=2_000)):
        assert agree(g) is None, n
        for mutant in mutants(g, rng, 2):
            violations += agree(mutant) is not None
    assert violations > 150


def test_mutants_of_the_property_workload_graphs():
    assert len(PROPERTY_INPUTS) == 24
    rng = random.Random(25)
    violations = 0
    for path in PROPERTY_INPUTS:
        g = build_raw_cg(parse_activity_file(path))
        assert agree(g) is None, path.name
        for mutant in mutants(g, rng, MUTANTS_PER_GRAPH):
            violations += agree(mutant) is not None
    assert violations > len(PROPERTY_INPUTS) * MUTANTS_PER_GRAPH // 2


def test_random_graphs():
    """Arbitrary graphs, with repeated edges and silent self-loops."""
    rng = random.Random(7)
    actions = (TAU, TAU, Send("s", "a"), Send("s", "b"), Recv("s", "a"))
    outcomes = set()
    for _ in range(5_000):
        n = rng.randrange(1, 7)
        transitions = tuple(
            (rng.randrange(n), rng.choice(actions), rng.randrange(n))
            for _ in range(rng.randrange(0, 3 * n))
        )
        outcomes.add(agree(ControlGraph(n, 0, transitions)) is None)
    assert outcomes == {True, False}
