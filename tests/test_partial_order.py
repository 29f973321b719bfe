"""Partial-order reduction in the explorer, checked against full expansion.

``explore_safety`` expands the steps of one independent actor where it
can.  These tests check it against the explorers in ``oracles.py`` that
expand every step (``symmetric_explore_safety`` with the same canonical
key, ``unreduced_explore_safety`` with none), on generated manifests and
on small manifests that pin the cases the reduction must not get wrong:
racing session initiations, a fault reached through a reduced expansion
and a cycle that would put a step off forever without the proviso.  The
actor read off a configuration is checked against the choice made from
the full step list (``reference_ample``).
"""

import random
from collections import Counter, deque

from seb.cli import main
from seb.configs import (
    Exhausted,
    Unsafe,
    Verified,
    _ample,
    explore_safety,
    make_initial_config,
    one_step_safe,
    successors,
)
from seb.diagnostics import UNDEFINED_PAYLOAD
from seb.manifest import load_manifest
from seb.parser import InputError

from conftest import ROOT
from oracles import (
    ManifestGenerator,
    reference_ample,
    symmetric_explore_safety,
    unreduced_explore_safety,
    write_manifest,
)


def replay(loaded, result: Unsafe) -> list:
    """The configurations ``result.trace`` passes through, each step checked."""
    config = make_initial_config(list(loaded.services), loaded.client)
    passed = [config]
    for step in result.trace:
        assert step in successors(config)
        config = step.result
        passed.append(config)
    if result.fault is not None:
        assert config.fault == result.fault
    else:
        assert one_step_safe(config) == result.witness
    return passed


def check_against_oracles(loaded, unreduced_limit: int = 2000):
    """The reduced and symmetric verdicts, after checking them against each other.

    The reduced verdict must be the symmetric one, and the unreduced one
    whenever that one ends within ``unreduced_limit`` configurations; the
    reduced count is no greater than the symmetric count, and an unsafe
    trace replays, though it need not be as short as the oracles'.
    """
    services = list(loaded.services)
    reduced = explore_safety(services, loaded.client)
    symmetric = symmetric_explore_safety(services, loaded.client)
    unreduced = unreduced_explore_safety(services, loaded.client, max_configs=unreduced_limit)
    assert type(reduced) is type(symmetric), (symmetric, reduced)
    if not isinstance(unreduced, Exhausted):
        assert type(reduced) is type(unreduced), (unreduced, reduced)
    assert reduced.configurations <= symmetric.configurations
    if isinstance(reduced, Unsafe):
        replay(loaded, reduced)
    return reduced, symmetric


def test_reduced_explorer_agrees_with_full_expansion(tmp_path):
    outcomes = Counter()
    smaller = 0
    for seed in range(500):
        files = ManifestGenerator(random.Random(seed)).manifest()
        loaded = load_manifest(write_manifest(tmp_path / str(seed), files))
        reduced, symmetric = check_against_oracles(loaded, unreduced_limit=500)
        outcomes[type(reduced).__name__] += 1
        smaller += reduced.configurations < symmetric.configurations
    assert outcomes["Verified"] >= 150 and outcomes["Unsafe"] >= 150, outcomes
    assert smaller >= 250, smaller


def reached(loaded, limit: int) -> list:
    """Up to ``limit`` fault-free configurations reachable by every step, breadth first."""
    initial = make_initial_config(list(loaded.services), loaded.client)
    seen = {initial}
    queue = deque([initial])
    out = []
    while queue and len(out) < limit:
        config = queue.popleft()
        out.append(config)
        for step in successors(config):
            if step.result.fault is None and step.result not in seen:
                seen.add(step.result)
                queue.append(step.result)
    return out


def check_actor_choice(loaded, limit: int) -> int:
    """Check ``_ample`` and ``successors(config, actor)`` on reached configurations.

    The actor read off a configuration must be the one the reference picks
    from the full step list, and each actor's steps must be the full list
    filtered to that actor, in order.  Returns how many configurations
    have an actor.
    """
    def actor_of(step):
        return step.who if isinstance(step.who, str) else step.who[1]

    picked = 0
    for config in reached(loaded, limit):
        steps = successors(config)
        chosen = reference_ample(config, steps)
        actor = _ample(config)
        assert actor == (None if chosen is None else actor_of(steps[chosen[0]]))
        if actor is not None:
            picked += 1
            assert successors(config, actor) == [steps[i] for i in chosen]
        for other in [*range(len(config.instances)), *(svc.name for svc in config.services)]:
            assert successors(config, other) == [s for s in steps if actor_of(s) == other]
    return picked


def test_actor_is_chosen_from_the_configuration_as_from_the_steps(tmp_path):
    picked = 0
    manifests = sorted(ROOT.glob("corpus/*.cfg")) + sorted(ROOT.glob("fixtures/**/*.cfg"))
    for path in manifests + sorted(ROOT.glob("bench/inputs/*/*.cfg")):
        try:
            loaded = load_manifest(path)
        except InputError:
            continue  # a fixture of a rejected manifest
        picked += check_actor_choice(loaded, limit=300)
    for seed in range(300):
        files = ManifestGenerator(random.Random(seed)).manifest()
        picked += check_actor_choice(
            load_manifest(write_manifest(tmp_path / str(seed), files)), limit=40
        )
    assert picked >= 3000, picked


def test_qc3_verdict_is_exact(capsys):
    assert main(["check", str(ROOT / "fixtures/qc3/deployed.cfg")]) == 0
    assert capsys.readouterr().out == "Verified (4159 configurations)\n"


def test_qc3_is_verified_within_twenty_thousand(capsys):
    assert main(["check", str(ROOT / "fixtures/qc3/deployed.cfg")]) == 0
    out = capsys.readouterr().out
    count = int(out.removeprefix("Verified (").removesuffix(" configurations)\n"))
    assert count <= 20_000


# --------------------------------------------------------------------------
# Small manifests

RELAY = "(pic (on (rec s0 go ()) (seq (ses t q) (inv t hello ()) (rec t bye ()))))\n"


def test_instances_racing_session_initiations(tmp_path):
    # The client starts two relays; each relay initiates a session with the
    # same target service, so their SES1 steps race to one queue.  SES1 is
    # never expanded alone, so both orders are explored.
    for answer, verdict in (("bye", Verified), ("bad", Unsafe)):
        files = {
            "relay.seb": RELAY,
            "target.seb": f"(pic (on (rec s0 hello ()) (inv s0 {answer} ())))\n",
            "client.seb": "(flo (seq (ses a r) (inv a go ())) (seq (ses b r) (inv b go ())))\n",
            "deployed.cfg": (
                "(service relay :file relay.seb :at rloc :bind (q tloc))\n"
                "(service target :file target.seb :at tloc)\n"
                "(client :file client.seb :bind (r rloc))\n"
            ),
        }
        loaded = load_manifest(write_manifest(tmp_path / answer, files))
        reduced, symmetric = check_against_oracles(loaded)
        assert isinstance(reduced, verdict)
        assert reduced.configurations < symmetric.configurations


def test_fault_reached_through_a_reduced_expansion(tmp_path):
    # Once the client has sent ack, its faulty send and the service's
    # reception of ack are both enabled; the client only sends, and sends
    # come first in step order, so its send is expanded alone and faults.
    files = {
        "ping.seb": "(pic (on (rec s0 ping ()) (seq (inv s0 pong ()) (rec s0 ack ()))))\n",
        "client.seb": (
            "(seq (ses s p) (inv s ping ()) (rec s pong ()) (inv s ack ()) "
            "(inv s ping (hole)))\n"
        ),
        "deployed.cfg": (
            "(service ping :file ping.seb :at pingloc)\n"
            "(client :file client.seb :bind (p pingloc))\n"
        ),
    }
    loaded = load_manifest(write_manifest(tmp_path, files))
    reduced, _ = check_against_oracles(loaded)
    assert isinstance(reduced, Unsafe)
    assert reduced.fault.code == UNDEFINED_PAYLOAD
    before = replay(loaded, reduced)[-2]
    assert {step.who for step in successors(before)} == {("client", 0), ("ping", 1)}


def test_cycle_proviso_takes_the_step_a_cycle_puts_off(tmp_path):
    # The client and the pinger play ping-pong forever, each turn expanded
    # alone; the checker's first reception, always enabled, comes later in
    # step order.  Only the proviso, which expands fully where the turn
    # closes a cycle, takes it and finds the checker unable to receive oops.
    loop = (
        "(rep (do (pic (on (rec {s} {get} ()) (inv {s} {put} ())))) "
        "(until (pic (on (rec {s} stop ()) (nil)))))"
    )
    files = {
        "pinger.seb": (
            f"(pic (on (rec s0 ping ()) (seq (inv s0 pong ()) "
            f"{loop.format(s='s0', get='ping', put='pong')})))\n"
        ),
        "checker.seb": "(pic (on (rec s0 go ()) (pic (on (rec s0 fine ()) (nil)))))\n",
        "client.seb": (
            "(seq (ses s p) (ses t c) (inv t go ()) (inv t oops ()) (inv s ping ()) "
            f"{loop.format(s='s', get='pong', put='ping')})\n"
        ),
        "deployed.cfg": (
            "(service pinger :file pinger.seb :at pingloc)\n"
            "(service checker :file checker.seb :at checkloc)\n"
            "(client :file client.seb :bind (p pingloc) (c checkloc))\n"
        ),
    }
    loaded = load_manifest(write_manifest(tmp_path, files))
    reduced, _ = check_against_oracles(loaded)
    assert isinstance(reduced, Unsafe)
    assert reduced.witness.instance == "checker[2]"
    assert reduced.witness.op == "oops"
