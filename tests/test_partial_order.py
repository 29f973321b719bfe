"""Partial-order reduction in the explorer, checked against full expansion.

``explore_safety`` expands the steps of one independent actor where it
can, session initiations included.  These tests check it against the
explorers in ``oracles.py`` that expand every step
(``symmetric_explore_safety`` with the same canonical key,
``unreduced_explore_safety`` with none), on generated manifests and on
small manifests that pin the cases the reduction must not get wrong:
session initiations racing to one location, one appended there later,
faults reached through a reduced expansion, an initiation over the queue
bound and a cycle that would put a step off forever without the
proviso.  The actor read off a configuration is checked against the
choice made from the full step list (``reference_ample``).
"""

import random
from collections import Counter, deque
from dataclasses import replace

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
from seb.control import SesInit
from seb.diagnostics import BROKEN_BINDING, UNDEFINED_PAYLOAD
from seb.manifest import load_manifest
from seb.parser import InputError

from conftest import ROOT
from oracles import (
    ManifestGenerator,
    RaceGenerator,
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


def check_against_oracles(loaded, unreduced_limit: int = 2000, max_queue_len: int = 16):
    """The reduced and symmetric verdicts, after checking them against each other.

    The reduced verdict must be the symmetric one, and the unreduced one
    whenever that one ends within ``unreduced_limit`` configurations.  An
    unsafe trace replays, though it need not be as short as the oracles':
    the reduced search may find its witness deeper, after visiting more
    configurations.  Otherwise the reduced count is no greater than the
    symmetric count.
    """
    services = list(loaded.services)
    reduced = explore_safety(services, loaded.client, max_queue_len=max_queue_len)
    symmetric = symmetric_explore_safety(services, loaded.client, max_queue_len=max_queue_len)
    unreduced = unreduced_explore_safety(
        services, loaded.client, max_configs=unreduced_limit, max_queue_len=max_queue_len
    )
    assert type(reduced) is type(symmetric), (symmetric, reduced)
    if not isinstance(unreduced, Exhausted):
        assert type(reduced) is type(unreduced), (unreduced, reduced)
    if isinstance(reduced, Unsafe):
        replay(loaded, reduced)
    else:
        assert reduced.configurations <= symmetric.configurations
    return reduced, symmetric


def test_reduced_explorer_agrees_with_full_expansion(tmp_path):
    outcomes = Counter()
    smaller = 0
    for seed in range(2000):
        files = ManifestGenerator(random.Random(seed)).manifest()
        loaded = load_manifest(write_manifest(tmp_path / str(seed), files))
        reduced, symmetric = check_against_oracles(loaded, unreduced_limit=500)
        outcomes[type(reduced).__name__] += 1
        smaller += reduced.configurations < symmetric.configurations
    assert outcomes["Verified"] >= 600 and outcomes["Unsafe"] >= 600, outcomes
    assert smaller >= 1000, smaller


def test_reduced_explorer_agrees_on_racing_initiators(tmp_path):
    # Services race to initiate with shared targets, which no manifest of
    # ManifestGenerator does: its client is the only initiator.
    outcomes = Counter()
    smaller = 0
    for seed in range(300):
        files = RaceGenerator(random.Random(seed)).manifest()
        loaded = load_manifest(write_manifest(tmp_path / str(seed), files))
        reduced, symmetric = check_against_oracles(loaded, unreduced_limit=500)
        outcomes[type(reduced).__name__] += 1
        smaller += reduced.configurations < symmetric.configurations
    assert outcomes["Verified"] >= 90 and outcomes["Unsafe"] >= 90, outcomes
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
    assert capsys.readouterr().out == "Verified (589 configurations)\n"


def test_qc4_verdict_is_exact(capsys):
    assert main(["check", str(ROOT / "fixtures/qc4/deployed.cfg")]) == 0
    assert capsys.readouterr().out == "Verified (2634 configurations)\n"


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
    # same target service, so their SES1 steps race to one queue.  Each
    # relay's SES1 is expanded alone, the first relay's first; the other
    # order differs only in which target instance serves which relay.
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


def races(loaded) -> bool:
    """Whether the first of two initiators ready at one location is ever expanded alone.

    An initiator is an instance whose current edges are all session
    initiations.
    """
    for config in reached(loaded, 2000):
        ready = [
            (idx, {dict(inst.var_map).get(action.p) for action, _, _ in inst.edges.all})
            for idx, inst in enumerate(config.instances)
            if inst.edges.all and all(isinstance(a, SesInit) for a, _, _ in inst.edges.all)
        ]
        if len(ready) > 1 and _ample(config) == ready[0][0] and any(
            ready[0][1] & targets for _, targets in ready[1:]
        ):
            return True
    return False


def relay(first: str, request: str, reply: str) -> str:
    return (
        f"(pic (on (rec s0 go ()) (seq {first}(ses t q) (inv t {request} ()) "
        f"(rec t {reply} ()))))\n"
    )


def test_initiators_racing_to_one_location_then_doing_different_things(tmp_path):
    # Two services initiate a session with one target, so their SES1 steps
    # race to its queue; then one says hello and the other ping.  Where both
    # are ready, the search expands the first alone and never queues the
    # other's request first, which the argument shows loses nothing: a wrong
    # answer to ping is found all the same.
    for answer, verdict in (("pong", Verified), ("bye", Unsafe)):
        files = {
            "alpha.seb": relay("", "hello", "bye"),
            "beta.seb": relay("", "ping", "pong"),
            "target.seb": (
                "(pic (on (rec s0 hello ()) (inv s0 bye ())) "
                f"(on (rec s0 ping ()) (inv s0 {answer} ())))\n"
            ),
            "client.seb": "(flo (seq (ses a ra) (inv a go ())) (seq (ses b rb) (inv b go ())))\n",
            "deployed.cfg": (
                "(service alpha :file alpha.seb :at aloc :bind (q tloc))\n"
                "(service beta :file beta.seb :at bloc :bind (q tloc))\n"
                "(service target :file target.seb :at tloc)\n"
                "(client :file client.seb :bind (ra aloc) (rb bloc))\n"
            ),
        }
        loaded = load_manifest(write_manifest(tmp_path / answer, files))
        assert races(loaded)
        reduced, symmetric = check_against_oracles(loaded)
        assert isinstance(reduced, verdict)
        if verdict is Unsafe:
            assert reduced.witness.instance.startswith("beta")
        else:
            assert reduced.configurations < symmetric.configurations


def test_a_third_initiator_appending_to_the_location_later(tmp_path):
    # A third service initiates with the same target only after a second
    # message, so its request may queue behind one the search appended by
    # expanding an initiator alone, and be consumed later than it could be.
    for answer, verdict in (("bye", Verified), ("pong", Unsafe)):
        files = {
            "alpha.seb": relay("", "hello", "bye"),
            "beta.seb": relay("", "hello", "bye"),
            "gamma.seb": relay("(rec s0 again ()) ", "hey", "bye"),
            "target.seb": (
                "(pic (on (rec s0 hello ()) (inv s0 bye ())) "
                f"(on (rec s0 hey ()) (inv s0 {answer} ())))\n"
            ),
            "client.seb": (
                "(flo (seq (ses a ra) (inv a go ())) (seq (ses b rb) (inv b go ())) "
                "(seq (ses c rc) (inv c go ()) (inv c again ())))\n"
            ),
            "deployed.cfg": (
                "(service alpha :file alpha.seb :at aloc :bind (q tloc))\n"
                "(service beta :file beta.seb :at bloc :bind (q tloc))\n"
                "(service gamma :file gamma.seb :at gloc :bind (q tloc))\n"
                "(service target :file target.seb :at tloc)\n"
                "(client :file client.seb :bind (ra aloc) (rb bloc) (rc gloc))\n"
            ),
        }
        loaded = load_manifest(write_manifest(tmp_path / answer, files))
        assert races(loaded)
        reduced, _ = check_against_oracles(loaded)
        assert isinstance(reduced, verdict)
        if verdict is Unsafe:
            assert reduced.witness.instance.startswith("gamma")


def test_session_initiation_fault_reached_through_a_reduced_expansion(tmp_path):
    # Each relay initiates on the location it is sent; the second is sent
    # text.  Its faulty SES1 is the only step of an instance whose edges are
    # all initiations, so it is expanded alone while others can move.
    files = {
        "relay.seb": "(pic (on (rec s0 go (q)) (seq (ses t q) (inv t hello ()))))\n",
        "target.seb": "(pic (on (rec s0 hello ()) (nil)))\n",
        "client.seb": "(flo (seq (ses a r) (inv a go (good))) (seq (ses b r) (inv b go (bad))))\n",
        "deployed.cfg": (
            "(service relay :file relay.seb :at rloc)\n"
            "(service target :file target.seb :at tloc)\n"
            '(client :file client.seb :bind (r rloc) (good tloc) (bad "nowhere"))\n'
        ),
    }
    loaded = load_manifest(write_manifest(tmp_path, files))
    reduced, _ = check_against_oracles(loaded)
    assert isinstance(reduced, Unsafe)
    assert reduced.fault.code == BROKEN_BINDING
    assert reduced.trace[-1].rule == "SES1"
    before = replay(loaded, reduced)[-2]
    faulty = reduced.trace[-1].who
    assert _ample(before) == faulty[1]
    assert {step.who for step in successors(before)} - {faulty}


def test_session_initiation_over_the_queue_bound_expands_fully(tmp_path):
    # The client's second initiation would make the target's queue longer
    # than --max-queue 1 before the target consumes the first request.  The
    # client is the actor to expand alone, so only the proviso's full
    # expansion lets the target consume first and the search go on.
    for accepted, verdict in (("go", Exhausted), ("hello", Unsafe)):
        files = {
            "target.seb": f"(pic (on (rec s0 {accepted} ()) (nil)))\n",
            "client.seb": "(seq (ses a l) (ses b l) (inv a go ()) (inv b go ()))\n",
            "deployed.cfg": (
                "(service target :file target.seb :at tloc)\n"
                "(client :file client.seb :bind (l tloc))\n"
            ),
        }
        loaded = load_manifest(write_manifest(tmp_path / accepted, files))
        initial = make_initial_config(list(loaded.services), loaded.client)
        [first] = successors(initial)
        assert _ample(first.result) == 0
        [second] = successors(first.result, 0)
        assert [len(queue) for _, queue in second.result.locations] == [2]
        reduced, symmetric = check_against_oracles(loaded, max_queue_len=1)
        assert isinstance(reduced, verdict)
        if verdict is Exhausted:  # the same bound and reason, if fewer configurations
            assert replace(reduced, configurations=0) == replace(symmetric, configurations=0)
        assert main(["check", str(tmp_path / accepted / "deployed.cfg"), "--max-queue", "1"]) == (
            4 if verdict is Exhausted else 1
        )
