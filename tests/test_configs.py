import itertools
from dataclasses import replace

import pytest

from seb.configs import (
    ConfigurationError,
    Data,
    DeployableService,
    Exhausted,
    Instance,
    NewSession,
    OpMessage,
    ServiceLoc,
    SessionId,
    Unsafe,
    Verified,
    check_well_partnered,
    explore_safety,
    make_client,
    make_initial_config,
    make_service,
    make_var_map,
    one_step_safe,
    simulate,
    successors,
)
from seb.control import ControlGraph, Recv, occurrences
from seb.diagnostics import (
    BROKEN_BINDING,
    CLIENT_SHAPE,
    DANGLING_PARTNER,
    DUP_LOCATION,
    UNDEFINED_FREE,
    UNDEFINED_PAYLOAD,
    Diagnostic,
)
from seb.manifest import load_manifest
from seb.parser import InputError, parse_activity
from seb.transforms import build_stages
from seb.variables import classify_occurrences, free_vars

from conftest import ROOT


def service_from(source: str, name: str, at: str, **binds) -> DeployableService:
    act = parse_activity(source)
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars | {"p0"}}
    var_map["p0"] = ServiceLoc(at)
    for var, value in binds.items():
        var_map[var] = value
    return make_service(name, var_map, act, build_stages(act)["min"], free_vars(act))


def client_from(source: str, services, **binds) -> Instance:
    act = parse_activity(source)
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars}
    for var, value in binds.items():
        var_map[var] = value
    return make_client(var_map, build_stages(act)["min"], services, free_vars(act))


PING_SERVICE = "(pic (on (rec s0 ping (x)) (inv s0 pong (x))))"
PING_CLIENT = "(seq (ses s p) (inv s ping (msg)) (rec s pong (y)))"


@pytest.fixture
def ping_setup():
    svc = service_from(PING_SERVICE, "ping", "svc")
    client = client_from(PING_CLIENT, [svc], p=ServiceLoc("svc"), msg=Data("hi"))
    return svc, client


# --------------------------------------------------------------------------
# Well-partneredness


def test_two_services_with_clients_pointing_correctly():
    a = service_from(PING_SERVICE, "a", "la")
    b = service_from(
        "(pic (on (rec s0 go (x)) (seq (ses r peer) (inv r ping (x)))))",
        "b",
        "lb",
        peer=ServiceLoc("la"),
    )
    assert check_well_partnered([a, b]) == []


def test_duplicate_location_rejected():
    a = service_from(PING_SERVICE, "a", "same")
    b = service_from(PING_SERVICE, "b", "same")
    assert [d.code for d in check_well_partnered([a, b])] == [DUP_LOCATION]


def test_dangling_partner_rejected():
    b = service_from(
        "(pic (on (rec s0 go (x)) (seq (ses r peer) (inv r ping (x)))))",
        "b",
        "lb",
        peer=ServiceLoc("nowhere"),
    )
    assert [d.code for d in check_well_partnered([b])] == [DANGLING_PARTNER]


# --------------------------------------------------------------------------
# Initial configuration


def test_initial_config_shape(ping_setup):
    svc, client = ping_setup
    config = make_initial_config([svc], client)
    assert len(config.services) == 1
    assert len(config.instances) == 1
    assert config.queues == ()
    assert config.bindings == ()


def test_client_starting_with_send_rejected():
    svc = service_from(PING_SERVICE, "ping", "svc")
    with pytest.raises(ConfigurationError) as err:
        client_from("(inv s ping (x))", [svc])
    assert any(d.code == CLIENT_SHAPE for d in err.value.diagnostics)


def test_client_with_undefined_location_rejected():
    svc = service_from(PING_SERVICE, "ping", "svc")
    with pytest.raises(ConfigurationError) as err:
        client_from(PING_CLIENT, [svc], msg=Data("hi"))
    assert any(d.code == UNDEFINED_FREE for d in err.value.diagnostics)


# --------------------------------------------------------------------------
# The step relation, applied by hand


def test_session_initiation_then_spawn_then_send(ping_setup):
    svc, client = ping_setup
    config = make_initial_config([svc], client)

    [ses1] = successors(config)
    assert ses1.rule == "SES1"
    after_init = ses1.result
    assert dict(after_init.queues).get(ServiceLoc("svc"), ()) == (NewSession(SessionId(1)),)
    assert after_init.bindings == ((SessionId(0), SessionId(1)),)
    assert dict(after_init.instances[0].var_map)["s"] == SessionId(0)

    rules = {step.rule: step for step in successors(after_init)}
    assert set(rules) == {"SES2", "INV"}

    after_spawn = rules["SES2"].result
    assert len(after_spawn.instances) == 2
    spawned = after_spawn.instances[1]
    assert spawned.origin == "ping"
    assert dict(spawned.var_map)["s0"] == SessionId(1)
    assert dict(after_spawn.queues).get(ServiceLoc("svc"), ()) == ()

    after_send = next(s for s in successors(after_spawn) if s.rule == "INV").result
    assert dict(after_send.queues).get(SessionId(1), ()) == (OpMessage("ping", (Data("hi"),)),)


def test_partners_and_bindings_follow_the_fresh_counter(ping_setup):
    svc, client = ping_setup
    config = replace(make_initial_config([svc], client), fresh_counter=22)
    assert config.partner(SessionId(10)) == SessionId(11)
    assert config.partner(SessionId(11)) == SessionId(10)
    assert config.partner(SessionId(21)) == SessionId(20)
    assert config.partner(SessionId(22)) is None
    firsts = [a.number for a, _ in config.bindings]
    assert firsts == [0, 10, 12, 14, 16, 18, 2, 20, 4, 6, 8]
    assert all(b.number == a.number + 1 for a, b in config.bindings)


def test_queues_list_locations_then_sessions_in_text_order(ping_setup):
    svc, client = ping_setup
    request = (NewSession(SessionId(3)),)
    ping, pong = (OpMessage("ping", ()),), (OpMessage("pong", ()),)
    config = replace(
        make_initial_config([svc], client),
        locations=(("svc", request),),
        sessions=((2, ping), (10, pong)),
        fresh_counter=12,
    )
    assert config.queues == (
        (ServiceLoc("svc"), request),
        (SessionId(10), pong),
        (SessionId(2), ping),
    )


def test_reception_binds_parameters(ping_setup):
    svc, client = ping_setup
    config = make_initial_config([svc], client)
    # drive: SES1, SES2, INV, then the service receives
    for rule in ("SES1", "SES2", "INV", "REC"):
        step = next(s for s in successors(config) if s.rule == rule)
        config = step.result
    service_instance = config.instances[1]
    assert dict(service_instance.var_map)["x"] == Data("hi")
    assert dict(config.queues).get(SessionId(1), ()) == ()


def test_send_on_unbound_session_is_a_fault():
    svc = service_from(PING_SERVICE, "ping", "svc")
    # r is never bound: the send after the handshake has no session
    client = client_from(
        "(seq (ses s p) (inv r ping (msg)))",
        [svc],
        p=ServiceLoc("svc"),
        msg=Data("hi"),
    )
    config = make_initial_config([svc], client)
    config = next(s for s in successors(config) if s.rule == "SES1").result
    faults = [s for s in successors(config) if s.result.fault is not None]
    assert faults and faults[0].result.fault.code == BROKEN_BINDING
    result = explore_safety([svc], client)
    assert isinstance(result, Unsafe)
    assert result.fault is not None and result.fault.code == BROKEN_BINDING


FAULT_STEPS = [
    # SES1 whose location variable holds data
    (
        "(ses s p)",
        {"s": None, "p": Data("x")},
        0,
        ("SES1", "client[0]", "s@p"),
        Diagnostic(BROKEN_BINDING, "client[0] initiates on 'p' which holds no location"),
    ),
    # INV on a session variable that holds no session
    (
        "(inv r ping (msg))",
        {"r": None, "msg": Data("hi")},
        0,
        ("INV", "client[0]", "r!ping(msg)"),
        Diagnostic(BROKEN_BINDING, "client[0] sends on 'r' which is not bound to a session"),
    ),
    # INV on a bound session whose argument holds no value
    (
        "(inv s ping (msg))",
        {"s": SessionId(0), "msg": None},
        2,
        ("INV", "client[0]", "s!ping(msg)"),
        Diagnostic(
            UNDEFINED_PAYLOAD, "client[0] sends 'msg' which holds no exchangeable value"
        ),
    ),
]


@pytest.mark.parametrize("source, var_map, counter, labels, fault", FAULT_STEPS)
def test_fault_steps_have_exact_text(source, var_map, counter, labels, fault):
    svc = service_from(PING_SERVICE, "ping", "svc")
    graph = build_stages(parse_activity(source))["min"]
    client = Instance("client", make_var_map(var_map), graph, graph.init)
    config = replace(make_initial_config([svc], client), fresh_counter=counter)
    [step] = successors(config)
    assert (step.rule, step.actor, step.detail) == labels
    assert step.result.fault == fault
    assert replace(step.result, fault=None) == config


# --------------------------------------------------------------------------
# One-step safety


def test_empty_queues_are_safe(ping_setup):
    svc, client = ping_setup
    assert one_step_safe(make_initial_config([svc], client)) is None


def test_unexpected_head_is_unsafe(ping_setup):
    svc, client = ping_setup
    config = make_initial_config([svc], client)
    for rule in ("SES1", "SES2"):
        config = next(s for s in successors(config) if s.rule == rule).result
    # sneak a message the service cannot receive into its root session queue
    bad = config.sessions + ((1, (OpMessage("pang", (Data("x"),)),)),)
    config = type(config)(
        services=config.services,
        instances=config.instances,
        locations=config.locations,
        sessions=tuple(sorted(bad, key=lambda e: e[0])),
        fresh_counter=config.fresh_counter,
    )
    witness = one_step_safe(config)
    assert witness is not None
    assert witness.op == "pang"
    assert witness.session_var == "s0"


def test_closed_state_is_safe_even_with_messages(ping_setup):
    svc, client = ping_setup
    config = make_initial_config([svc], client)
    for rule in ("SES1", "SES2", "INV"):
        config = next(s for s in successors(config) if s.rule == rule).result
    # client is mid-protocol awaiting pong; service queue holds ping: safe,
    # and the client's own queue is empty
    assert one_step_safe(config) is None


# --------------------------------------------------------------------------
# Exploration


def test_pingpong_verified(ping_setup):
    svc, client = ping_setup
    result = explore_safety([svc], client)
    assert isinstance(result, Verified)
    assert result.configurations < 200


def test_mismatched_client_unsafe():
    svc = service_from(PING_SERVICE, "ping", "svc")
    client = client_from(
        "(seq (ses s p) (inv s pang (msg)) (rec s pong (y)))",
        [svc],
        p=ServiceLoc("svc"),
        msg=Data("boom"),
    )
    result = explore_safety([svc], client)
    assert isinstance(result, Unsafe)
    assert result.witness.op == "pang"


def test_unsafe_trace_replays_through_successors():
    svc = service_from(PING_SERVICE, "ping", "svc")
    client = client_from(
        "(seq (ses s p) (inv s pang (msg)) (rec s pong (y)))",
        [svc],
        p=ServiceLoc("svc"),
        msg=Data("boom"),
    )
    result = explore_safety([svc], client)
    config = make_initial_config([svc], client)
    for step in result.trace:
        assert step in successors(config)
        config = step.result
    assert one_step_safe(config) is not None


def test_exploration_determinism(ping_setup):
    svc, client = ping_setup
    one = explore_safety([svc], client)
    two = explore_safety([svc], client)
    assert one == two


def test_arity_mismatch_is_unsafe():
    svc = service_from(PING_SERVICE, "ping", "svc")
    client = client_from(
        "(seq (ses s p) (inv s ping (msg msg)) (rec s pong (y)))",
        [svc],
        p=ServiceLoc("svc"),
        msg=Data("hi"),
    )
    result = explore_safety([svc], client)
    assert isinstance(result, Unsafe)
    assert result.witness.arity == 2


def test_queue_limit_reports_exhausted():
    svc = service_from(PING_SERVICE, "ping", "svc")
    # two pings in a row: queue length reaches 2
    client = client_from(
        "(seq (ses s p) (inv s ping (msg)) (inv s ping (msg)))",
        [svc],
        p=ServiceLoc("svc"),
        msg=Data("hi"),
    )
    result = explore_safety([svc], client, max_queue_len=1)
    assert isinstance(result, Exhausted)
    assert result.reason == "queue length limit"


def test_config_limit_reports_exhausted(ping_setup):
    svc, client = ping_setup
    result = explore_safety([svc], client, max_configs=3)
    assert isinstance(result, Exhausted)


# --------------------------------------------------------------------------
# Structural invariants of the step relation


def collect_reachable(services, client, bound=500):
    seen = []
    frontier = [make_initial_config(services, client)]
    visited = set(frontier)
    while frontier and len(seen) < bound:
        config = frontier.pop()
        seen.append(config)
        for step in successors(config):
            if step.result not in visited:
                visited.add(step.result)
                frontier.append(step.result)
    return seen


def test_queue_sort_discipline(ping_setup):
    """Location queues hold session requests only, session queues messages only.

    So a queue's head is of the kind its reader expects, without checking.
    The manifests add spawns, several services and an unsafe run.
    """
    svc, client = ping_setup
    setups = [([svc], client)]
    for manifest in ("fixtures/qc3/deployed.cfg", "fixtures/mismatch.cfg"):
        loaded = load_manifest(ROOT / manifest)
        setups.append((list(loaded.services), loaded.client))
    for services, client in setups:
        kinds = set()
        for config in collect_reachable(services, client):
            for dest, items in config.queues:
                for message in items:
                    if isinstance(dest, ServiceLoc):
                        assert isinstance(message, NewSession)
                    else:
                        assert isinstance(message, OpMessage)
                    kinds.add(type(message))
        assert kinds == {NewSession, OpMessage}


def session_ids(config):
    """Every session id held by an instance or named by a queue."""
    ids = set()
    for inst in config.instances:
        ids.update(value for _, value in inst.var_map if isinstance(value, SessionId))
    for dest, items in config.queues:
        if isinstance(dest, SessionId):
            ids.add(dest)
        ids.update(m.session for m in items if isinstance(m, NewSession))
    return ids


def test_fresh_session_ids_never_reused():
    for manifest in (
        "corpus/pingpong.cfg",
        "corpus/looping.cfg",
        "bench/inputs/qc-deployed/deployed.cfg",
    ):
        loaded = load_manifest(ROOT / manifest)
        initiations = 0
        for config in collect_reachable(list(loaded.services), loaded.client):
            ids = session_ids(config)
            assert all(i.number < config.fresh_counter for i in ids)
            for step in successors(config):
                if step.rule == "SES1":
                    initiations += 1
                    # SES1 adds exactly the two ids it draws; fewer new ids
                    # means it drew one the source configuration already holds.
                    assert len(session_ids(step.result) - ids) == 2
        assert initiations > 0, manifest


def test_fifo_order_preserved():
    # a client that pushes three tagged messages; the service consumes them
    svc = service_from(
        "(pic (on (rec s0 m1 ()) (pic (on (rec s0 m2 ()) (pic (on (rec s0 m3 ()) (nil)))))))",
        "sink",
        "svc",
    )
    client = client_from(
        "(seq (ses s p) (inv s m1) (inv s m2) (inv s m3))",
        [svc],
        p=ServiceLoc("svc"),
    )
    result = explore_safety([svc], client)
    assert isinstance(result, Verified)


def test_out_of_order_pushes_are_caught():
    svc = service_from(
        "(pic (on (rec s0 m1 ()) (pic (on (rec s0 m2 ()) (nil)))))",
        "sink",
        "svc",
    )
    client = client_from(
        "(seq (ses s p) (inv s m2) (inv s m1))",
        [svc],
        p=ServiceLoc("svc"),
    )
    result = explore_safety([svc], client)
    assert isinstance(result, Unsafe)
    assert result.witness.op == "m2"


def test_service_order_does_not_change_the_verdict():
    ping = service_from(PING_SERVICE, "ping", "svc")
    other = service_from(PING_SERVICE.replace("ping", "tick").replace("pong", "tock"), "tick", "aux")
    client = client_from(PING_CLIENT, [ping, other], p=ServiceLoc("svc"), msg=Data("hi"))
    verdicts = set()
    for order in itertools.permutations([ping, other]):
        result = explore_safety(list(order), client)
        verdicts.add(type(result).__name__)
        assert isinstance(result, Verified)
    assert verdicts == {"Verified"}


# --------------------------------------------------------------------------
# Cached successor tables and hashes


def test_exploration_builds_each_successor_table_once(monkeypatch):
    loaded = load_manifest(ROOT / "fixtures/flooding.cfg")
    graphs = {id(svc.graph) for svc in loaded.services} | {id(loaded.client.graph)}
    built = []
    original = ControlGraph.outgoing

    def counting(self):
        built.append(id(self))
        return original(self)

    monkeypatch.setattr(ControlGraph, "outgoing", counting)
    result = explore_safety(list(loaded.services), loaded.client, max_configs=500)
    assert isinstance(result, Exhausted)
    assert len(built) == len(set(built)) <= len(graphs)
    assert set(built) <= graphs


def manifest_instances():
    """The client and a fresh instance of each service of every manifest that loads."""
    for path in sorted(ROOT.glob("corpus/*.cfg")) + sorted(ROOT.glob("fixtures/**/*.cfg")):
        try:
            loaded = load_manifest(path)
        except InputError:
            continue  # a fixture of a rejected manifest
        yield loaded.client
        for svc in loaded.services:
            yield Instance(svc.name, svc.var_map, svc.graph, svc.graph.init)


def test_slot_table_rows_hold_edges_slots_and_receptions():
    states = receptions = 0
    for inst in manifest_instances():
        graph, table = inst.graph, inst.slots
        assert list(table.index) == [name for name, _ in inst.var_map]
        assert list(table.index.values()) == list(range(len(inst.var_map)))
        assert len(table.rows) == graph.num_states
        for state, out in enumerate(graph.outgoing()):
            row = table.rows[state]
            edges = sorted(out, key=lambda e: (e[0].sort_key(), e[1]))
            assert [(action, to) for action, to, _ in row.all] == edges
            for action, _, slots in row.all:
                assert slots == tuple(table.index[v] for v, _, _ in occurrences(action))
            accepted: dict[str, set] = {}
            for action, _ in edges:
                if isinstance(action, Recv):
                    accepted.setdefault(action.s, set()).add((action.op, len(action.params)))
            assert row.receptions == tuple(
                (var, table.index[var], frozenset(accepted[var])) for var in sorted(accepted)
            )
            states += 1
            receptions += len(row.receptions)
    assert states > 100 and receptions > 50, (states, receptions)


def test_replace_computes_a_fresh_hash(ping_setup):
    svc, client = ping_setup
    config = make_initial_config([svc], client)
    fault = Diagnostic(BROKEN_BINDING, "made up")
    faulty = replace(config, fault=fault)
    rebuilt = type(config)(
        config.services, config.instances, config.locations, config.sessions,
        config.fresh_counter, fault,
    )
    assert faulty == rebuilt and hash(faulty) == hash(rebuilt)
    assert faulty != config and hash(faulty) != hash(config)

    inst = config.instances[0]
    [(_, to, _)] = inst.edges.all
    moved = replace(inst, state=to)
    assert hash(moved) == hash(Instance(inst.origin, inst.var_map, inst.graph, to))
    assert hash(moved) != hash(inst)
    assert moved.edges == inst.slots.rows[to]


def test_interleavings_reaching_one_configuration_hash_equal():
    loaded = load_manifest(ROOT / "corpus/pingpong.cfg")
    initial = make_initial_config(list(loaded.services), loaded.client)
    # Breadth-first over every path, without merging equal configurations,
    # so each path builds its own objects.
    paths = {(): initial}
    frontier = [()]
    for _ in range(6):
        next_frontier = []
        for path in frontier:
            for step in successors(paths[path]):
                longer = path + (step.render(),)
                paths[longer] = step.result
                next_frontier.append(longer)
        frontier = next_frontier
    merged = 0
    for (p1, c1), (p2, c2) in itertools.combinations(paths.items(), 2):
        if len(p1) == len(p2) and c1.instances == c2.instances and c1.queues == c2.queues:
            assert c1 is not c2
            assert c1 == c2 and hash(c1) == hash(c2)
            merged += 1
    assert merged > 0


# --------------------------------------------------------------------------
# Simulation


def test_simulation_is_deterministic(ping_setup):
    svc, client = ping_setup
    one = simulate([svc], client, steps=6, seed=1)
    two = simulate([svc], client, steps=6, seed=1)
    assert [s.render() for s in one.steps] == [s.render() for s in two.steps]


def test_simulation_steps_are_legal(ping_setup):
    svc, client = ping_setup
    sim = simulate([svc], client, steps=6, seed=1)
    config = make_initial_config([svc], client)
    for step in sim.steps:
        assert step in successors(config)
        config = step.result


def test_zero_steps(ping_setup):
    svc, client = ping_setup
    sim = simulate([svc], client, steps=0, seed=9)
    assert sim.steps == ()
    assert sim.quiescent_at is None


def test_simulation_reports_quiescence(ping_setup):
    svc, client = ping_setup
    sim = simulate([svc], client, steps=50, seed=3)
    assert sim.quiescent_at is not None  # protocol finishes well before 50
