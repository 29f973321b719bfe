"""The explorer's canonical key: symmetry reduction and reclaimed instances.

``explore_safety`` tells configurations apart by ``canonical_key``, which
forgets finished instances, the queues of dead sessions, the order of
the instances and the names of session ids.  These tests pin what the key
keeps and forgets, and check the reduced explorer against the unreduced
one in ``oracles.py`` on generated manifests.
"""

import random
import re
from collections import Counter
from dataclasses import replace

from seb.cli import main
from seb.configs import (
    Exhausted,
    Instance,
    NewSession,
    OpMessage,
    RunningConfiguration,
    SessionId,
    Unsafe,
    Verified,
    canonical_key,
    explore_safety,
    make_initial_config,
    make_var_map,
    one_step_safe,
    successors,
)
from seb.manifest import load_manifest

from conftest import ROOT
from oracles import ManifestGenerator, unreduced_explore_safety, write_manifest

QC_DEPLOYED = "bench/inputs/qc-deployed/deployed.cfg"


def reachable(manifest: str, limit: int) -> list[RunningConfiguration]:
    """Concrete configurations in breadth-first order, at most ``limit``."""
    loaded = load_manifest(ROOT / manifest)
    initial = make_initial_config(list(loaded.services), loaded.client)
    seen = {initial}
    order = [initial]
    for config in order:
        for step in successors(config):
            if step.result not in seen and len(order) < limit:
                seen.add(step.result)
                order.append(step.result)
    return order


def step_by(config: RunningConfiguration, rendered: str) -> RunningConfiguration:
    [step] = [s for s in successors(config) if s.render().startswith(rendered)]
    return step.result


def shape(inst: Instance) -> tuple:
    """What the key sorts an instance by, written out independently."""
    blanked = tuple(
        (var, ("session", v.number % 2) if isinstance(v, SessionId) else v)
        for var, v in inst.var_map
    )
    return (inst.origin, id(inst.graph), inst.state, blanked)


def renamed(config: RunningConfiguration, rng: random.Random) -> RunningConfiguration:
    """``config`` with its session pairs renamed and its instances shuffled.

    Pairs keep their parity; instances of one shape keep their relative
    order, which the key falls back on to break ties.
    """
    pairs = list(range(config.fresh_counter // 2))
    rng.shuffle(pairs)

    def rename(value):
        if not isinstance(value, SessionId):
            return value
        k = value.number
        return SessionId(2 * pairs[k >> 1] + (k & 1))

    shapes = sorted({shape(inst) for inst in config.instances}, key=repr)
    rng.shuffle(shapes)
    rank = {s: i for i, s in enumerate(shapes)}
    instances = tuple(
        Instance(inst.origin, make_var_map({v: rename(x) for v, x in inst.var_map}),
                 inst.graph, inst.state)
        for inst in sorted(config.instances, key=lambda inst: rank[shape(inst)])
    )
    def renew(items):
        return tuple(NewSession(rename(m.session)) if isinstance(m, NewSession) else m
                     for m in items)

    locations = tuple((name, renew(items)) for name, items in config.locations)
    sessions = tuple(sorted(
        (rename(SessionId(k)).number, renew(items)) for k, items in config.sessions
    ))
    return RunningConfiguration(config.services, instances, locations, sessions,
                                config.fresh_counter)


def test_key_ignores_session_names_and_instance_order():
    rng = random.Random(7)
    moved = 0
    for manifest in ("corpus/pingpong.cfg", QC_DEPLOYED):
        for config in reachable(manifest, 400):
            shapes: dict = {}
            key = canonical_key(config, shapes)
            variant = renamed(config, rng)
            moved += variant != config
            assert canonical_key(variant, shapes) == key
    assert moved > 200


def test_configurations_with_one_key_are_alike():
    # Equal keys must mean symmetric configurations: equally safe, with
    # the same steps.  The key merges many reachable configurations.
    for manifest in ("corpus/looping.cfg", QC_DEPLOYED):
        shapes: dict = {}
        seen: dict = {}
        configs = reachable(manifest, 600)
        for config in configs:
            steps = successors(config)
            alike = (one_step_safe(config) is None, sorted(s.rule for s in steps))
            assert seen.setdefault(canonical_key(config, shapes), alike) == alike
        assert len(seen) < len(configs), manifest


def test_key_forgets_finished_instances_and_dead_queues():
    final = reachable("corpus/pingpong.cfg", 1000)[-1]
    assert final.instances and not any(inst.edges.all for inst in final.instances)
    shapes: dict = {}
    key = canonical_key(final, shapes)
    assert key == (0, ())
    # A late message to a session that only finished instances hold.
    late = replace(final, locations=(), sessions=((0, (OpMessage("late", ()),)),))
    assert canonical_key(late, shapes) == key


def test_pending_request_keeps_its_session_alive():
    # The client sends on its session before the service has consumed the
    # request: no instance holds #1 yet, but the pending new(#1) names it,
    # so its queue is part of the key.
    [initial] = reachable("corpus/pingpong.cfg", 1)
    requested = step_by(initial, "SES1")
    sent = step_by(requested, "INV")
    assert [d.render() for d, _ in sent.queues] == ["pingloc", "#1"]
    shapes: dict = {}
    dropped = replace(sent, sessions=())
    assert canonical_key(sent, shapes) != canonical_key(dropped, shapes)


def test_key_keeps_every_message_of_a_live_queue():
    [initial] = reachable("corpus/pingpong.cfg", 1)
    sent = step_by(step_by(initial, "SES1"), "INV")
    [(session, [ping])] = sent.sessions
    shapes: dict = {}
    keys = {
        canonical_key(replace(sent, sessions=((session, items),)), shapes)
        for items in ((ping,), (ping, ping), (ping, OpMessage("pong", ())))
    }
    assert len(keys) == 3


def test_looping_is_verified_at_the_default_bounds(capsys):
    assert main(["check", "corpus/looping.cfg"]) == 0
    assert capsys.readouterr().out == "Verified (7 configurations)\n"


def test_qc_deployed_is_verified_within_ten_thousand(capsys):
    assert main(["check", QC_DEPLOYED, "--max-configs", "10000"]) == 0
    assert capsys.readouterr().out == "Verified (140 configurations)\n"


def test_flooding_reaches_the_queue_bound(capsys):
    assert main(["check", "fixtures/flooding.cfg"]) == 4
    assert capsys.readouterr().out == (
        "Exhausted (queue length limit; 201 configurations, "
        "max-configs=100000, max-queue=16)\n"
    )


def assert_replays(loaded, result: Unsafe) -> None:
    config = make_initial_config(list(loaded.services), loaded.client)
    for step in result.trace:
        assert step in successors(config)
        config = step.result
    if result.fault is not None:
        assert config.fault == result.fault
    else:
        assert one_step_safe(config) == result.witness


def test_reduced_explorer_agrees_with_unreduced_oracle(tmp_path):
    outcomes = Counter()
    shared_services = 0
    for seed in range(300):
        files = ManifestGenerator(random.Random(seed)).manifest()
        loaded = load_manifest(write_manifest(tmp_path / str(seed), files))
        services = list(loaded.services)
        oracle = unreduced_explore_safety(services, loaded.client, max_configs=2000)
        reduced = explore_safety(services, loaded.client, max_configs=20000)
        if not isinstance(oracle, Exhausted):
            assert type(reduced) is type(oracle), (seed, oracle, reduced)
        if isinstance(reduced, Unsafe):
            assert_replays(loaded, reduced)
        outcomes[type(oracle).__name__, type(reduced).__name__] += 1
        locations = re.findall(r"\(ses \w+ (l\d+)\)", files["client.seb"])
        shared_services += len(locations) > len(set(locations))
    assert outcomes["Verified", "Verified"] >= 50, outcomes
    assert outcomes["Unsafe", "Unsafe"] >= 50, outcomes
    assert outcomes["Exhausted", "Verified"] >= 5, outcomes
    assert shared_services >= 50
