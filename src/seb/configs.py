"""Executable semantics of networked service configurations.

A running configuration holds deployable services (factories), running
instances, FIFO message queues and a fresh-session counter, which also
fixes the session bindings.  Four rules advance it: a session initiation
binds two fresh sessions and enqueues a request for one at the target
location; a service consumes such a request by spawning an instance; a
send appends an operation message to the partner session's queue; a
reception consumes a matching head message.  Interaction safety fails
exactly when some instance is open for reception on a session whose queue
head it cannot receive.

All values are immutable; exploration and simulation are deterministic.

Exploration looks up, rather than recomputes, what each instance can do:

* each control graph's successor table (``ControlGraph.successor_table``)
  is built once, on first use, and then shared by every instance that
  runs that graph; it must not be mutated.  A row holds a state's edges
  (``all``) and, apart, its receptions (``recvs``), which
  ``one_step_safe`` reads;
* ``successors`` makes one pass over the instances and sends each edge of
  a live instance, by action class, to SES1, INV or REC;
* instances and configurations are immutable and compute their hash once,
  when they are built, so a ``visited`` lookup hashes cached ints.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from .control import ControlGraph, Recv, SesInit, Send, StateEdges
from .diagnostics import (
    BROKEN_BINDING,
    CLIENT_SHAPE,
    DANGLING_PARTNER,
    DUP_LOCATION,
    Diagnostic,
    UNDEFINED_FREE,
    UNDEFINED_PAYLOAD,
    sort_diagnostics,
)
from .syntax import Activity, OWN_LOCATION, ROOT_SESSION
from .variables import check_deployable

# --------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Data:
    text: str

    def render(self) -> str:
        return f'"{self.text}"'


@dataclass(frozen=True)
class ServiceLoc:
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class SessionId:
    name: str

    def render(self) -> str:
        return self.name


Value = Data | ServiceLoc | SessionId

EXCHANGEABLE = (Data, ServiceLoc)


_VALUE_RANK = {Data: 0, ServiceLoc: 1, SessionId: 2}


def value_key(value: Value) -> tuple:
    return (_VALUE_RANK[type(value)], value.render())


VarMap = tuple[tuple[str, Value | None], ...]


def make_var_map(mapping: dict[str, Value | None]) -> VarMap:
    return tuple(sorted(mapping.items()))


def var_map_get(m: VarMap, var: str) -> Value | None:
    for name, value in m:
        if name == var:
            return value
    return None


def var_map_set(m: VarMap, updates: dict[str, Value | None]) -> VarMap:
    d = dict(m)
    d.update(updates)
    return make_var_map(d)


# --------------------------------------------------------------------------
# Messages, queues, configuration


@dataclass(frozen=True)
class NewSession:
    session: SessionId

    def render(self) -> str:
        return f"new({self.session.render()})"


@dataclass(frozen=True)
class OpMessage:
    op: str
    payload: tuple[Value, ...]

    def render(self) -> str:
        return f"{self.op}({', '.join(v.render() for v in self.payload)})"


Message = NewSession | OpMessage


@dataclass(frozen=True)
class DeployableService:
    name: str
    var_map: VarMap
    graph: ControlGraph
    location: ServiceLoc  # the var map's OWN_LOCATION, set once by make_service


@dataclass(frozen=True, slots=True)
class Instance:
    """A running instance: immutable, hashed once when built.

    ``edges`` is the current state's row of the graph's successor table.
    """

    origin: str  # service name, or "client"
    var_map: VarMap
    graph: ControlGraph = field(repr=False)
    state: int
    edges: StateEdges = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", self.graph.successor_table()[self.state])
        object.__setattr__(
            self, "_hash", hash((self.origin, self.var_map, self.graph, self.state))
        )

    def __hash__(self) -> int:
        return self._hash


Queues = tuple[tuple[Value, tuple[Message, ...]], ...]


def _session(k: int) -> SessionId:
    return SessionId(f"#{k}")


@dataclass(frozen=True, slots=True)
class RunningConfiguration:
    """A configuration: immutable, hashed once when built.

    ``queues`` is sorted by destination (``value_key``) and holds no empty
    queue.  Session ids are drawn in pairs: the k-th session initiation
    binds ``#2k`` to ``#2k+1``, so the sessions bound so far are exactly
    ``#0`` to ``#fresh_counter-1``, and ``#k``'s partner is ``#(k xor 1)``.
    The hash leaves out ``services``, which no step changes.  Equality
    compares every field.
    """

    services: tuple[DeployableService, ...]
    instances: tuple[Instance, ...]
    queues: Queues
    fresh_counter: int = 0
    fault: Diagnostic | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash((self.instances, self.queues, self.fresh_counter, self.fault)),
        )

    def __hash__(self) -> int:
        return self._hash

    def queue(self, dest: Value) -> tuple[Message, ...]:
        for d, items in self.queues:
            if d == dest:
                return items
        return ()

    def partner(self, session: SessionId) -> SessionId | None:
        k = int(session.name[1:])
        return _session(k ^ 1) if k < self.fresh_counter else None

    @property
    def bindings(self) -> tuple[tuple[SessionId, SessionId], ...]:
        """The bound pairs, ordered by the first id's name (``#10`` before ``#2``)."""
        firsts = sorted(range(0, self.fresh_counter, 2), key=str)
        return tuple((_session(k), _session(k + 1)) for k in firsts)


def _queue_key(entry: tuple[Value, tuple[Message, ...]]) -> tuple:
    return value_key(entry[0])


def _queue_set(queues: Queues, dest: Value, items: tuple[Message, ...]) -> Queues:
    """``queues`` with ``dest``'s queue replaced; empty queues are dropped."""
    i = bisect_left(queues, value_key(dest), key=_queue_key)
    end = i + 1 if i < len(queues) and queues[i][0] == dest else i
    entry = ((dest, items),) if items else ()
    return queues[:i] + entry + queues[end:]


# --------------------------------------------------------------------------
# Static configuration checks


def check_well_partnered(services: list[DeployableService]) -> list[Diagnostic]:
    """Distinct own locations, and every referenced location present."""
    out: list[Diagnostic] = []
    locations: dict[ServiceLoc, str] = {}
    for svc in services:
        loc = svc.location
        if loc in locations:
            out.append(
                Diagnostic(
                    DUP_LOCATION,
                    f"services '{locations[loc]}' and '{svc.name}' share location "
                    f"{loc.render()}",
                )
            )
        else:
            locations[loc] = svc.name
    for svc in services:
        for var, value in svc.var_map:
            if isinstance(value, ServiceLoc) and value not in locations:
                out.append(
                    Diagnostic(
                        DANGLING_PARTNER,
                        f"service '{svc.name}' points '{var}' at {value.render()}, "
                        "where no service is deployed",
                    )
                )
    return sort_diagnostics(out)


class ConfigurationError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def make_service(
    name: str,
    var_map: dict[str, Value | None],
    pic: Activity,
    graph: ControlGraph,
    free: frozenset[str] | None = None,
) -> DeployableService:
    """Validate and build a deployable service; ``free`` as in ``check_deployable``."""
    problems = check_deployable(var_map, pic, free)
    location = var_map.get(OWN_LOCATION)
    if not isinstance(location, ServiceLoc):
        problems = problems + [
            Diagnostic(
                UNDEFINED_FREE,
                f"'{OWN_LOCATION}' must hold a service location",
            )
        ]
    if problems:
        raise ConfigurationError(problems)
    return DeployableService(name, make_var_map(var_map), graph, location)


def make_client(
    var_map: dict[str, Value | None],
    act: Activity,
    graph: ControlGraph,
    services: list[DeployableService],
) -> Instance:
    """Validate and build the bootstrap client instance.

    The client's first steps must all be session initiations whose target
    location variable is defined and names a deployed service.
    """
    problems: list[Diagnostic] = []
    first = graph.successor_table()[graph.init].all
    if not first:
        problems.append(Diagnostic(CLIENT_SHAPE, "the client activity does nothing"))
    locations = {svc.location for svc in services}
    for action, _ in first:
        if not isinstance(action, SesInit):
            problems.append(
                Diagnostic(
                    CLIENT_SHAPE,
                    f"the client must start with a session initiation, found "
                    f"{action.render()}",
                )
            )
            continue
        value = var_map.get(action.p)
        if value is None:
            problems.append(
                Diagnostic(
                    UNDEFINED_FREE,
                    f"client location variable '{action.p}' has no value",
                )
            )
        elif not isinstance(value, ServiceLoc) or value not in locations:
            problems.append(
                Diagnostic(
                    DANGLING_PARTNER,
                    f"client location variable '{action.p}' does not name a "
                    "deployed service",
                )
            )
    if problems:
        raise ConfigurationError(sort_diagnostics(problems))
    return Instance("client", make_var_map(var_map), graph, graph.init)


def make_initial_config(
    services: list[DeployableService], client: Instance
) -> RunningConfiguration:
    problems = check_well_partnered(services)
    if problems:
        raise ConfigurationError(problems)
    return RunningConfiguration(
        services=tuple(services),
        instances=(client,),
        queues=(),
        fresh_counter=0,
    )


# --------------------------------------------------------------------------
# The step relation

RuleTag = str  # "SES1" | "SES2" | "INV" | "REC"


@dataclass(frozen=True)
class ConfigStep:
    rule: RuleTag
    actor: str  # rendered instance or service identity
    detail: str  # rendered action
    result: RunningConfiguration

    def render(self) -> str:
        return f"{self.rule} {self.actor} {self.detail}"


def _advance(
    config: RunningConfiguration,
    idx: int,
    to: int,
    var_map: VarMap,
    queues: Queues,
    fresh: int,
) -> RunningConfiguration:
    """``config`` with instance ``idx`` moved to state ``to``, holding ``var_map``."""
    inst = config.instances[idx]
    moved = Instance(inst.origin, var_map, inst.graph, to)
    instances = config.instances[:idx] + (moved,) + config.instances[idx + 1 :]
    return RunningConfiguration(config.services, instances, queues, fresh)


def _accepts(recv: Recv, head: OpMessage) -> bool:
    """Whether a reception matches a head message: same operation and arity."""
    return recv.op == head.op and len(recv.params) == len(head.payload)


def successors(config: RunningConfiguration) -> list[ConfigStep]:
    """Every configuration reachable in one rule application.

    The steps come in a fixed order: SES1 over the instances, SES2 over
    the services, then INV and REC over the instances, each instance's
    edges in successor-table order.
    """
    if config.fault is not None:
        return []
    counter = config.fresh_counter
    ses1: list[ConfigStep] = []
    inv: list[ConfigStep] = []
    rec: list[ConfigStep] = []

    def fault(
        rule: RuleTag, actor: str, action: SesInit | Send, code: str, why: str
    ) -> ConfigStep:
        faulty = replace(config, fault=Diagnostic(code, f"{actor} {why}"))
        return ConfigStep(rule, actor, action.render(), faulty)

    for idx, inst in enumerate(config.instances):
        if not inst.edges.all:
            continue  # an instance at a sink of its graph takes no step
        actor = f"{inst.origin}[{idx}]"
        var_map = inst.var_map
        for action, to in inst.edges.all:
            if isinstance(action, SesInit):
                # SES1: bind two fresh sessions and request a service instance.
                target = var_map_get(var_map, action.p)
                if not isinstance(target, ServiceLoc):
                    why = f"initiates on '{action.p}' which holds no location"
                    ses1.append(fault("SES1", actor, action, BROKEN_BINDING, why))
                    continue
                request = NewSession(_session(counter + 1))
                queues = _queue_set(
                    config.queues, target, config.queue(target) + (request,)
                )
                bound = var_map_set(var_map, {action.s: _session(counter)})
                result = _advance(config, idx, to, bound, queues, counter + 2)
                detail = f"{action.render()} -> {request.render()} at {target.render()}"
                ses1.append(ConfigStep("SES1", actor, detail, result))
            elif isinstance(action, Send):
                # INV: send an operation message to the partner session.
                own = var_map_get(var_map, action.s)
                partner = config.partner(own) if isinstance(own, SessionId) else None
                if partner is None:
                    why = f"sends on '{action.s}' which is not bound to a session"
                    inv.append(fault("INV", actor, action, BROKEN_BINDING, why))
                    continue
                payload = tuple(var_map_get(var_map, arg) for arg in action.args)
                bad = [
                    arg
                    for arg, value in zip(action.args, payload)
                    if not isinstance(value, EXCHANGEABLE)
                ]
                if bad:
                    why = f"sends '{bad[0]}' which holds no exchangeable value"
                    inv.append(fault("INV", actor, action, UNDEFINED_PAYLOAD, why))
                    continue
                message = OpMessage(action.op, payload)
                queues = _queue_set(
                    config.queues, partner, config.queue(partner) + (message,)
                )
                result = _advance(config, idx, to, var_map, queues, counter)
                detail = f"{action.render()} -> {message.render()} to {partner.render()}"
                inv.append(ConfigStep("INV", actor, detail, result))
            elif isinstance(action, Recv):
                # REC: consume a matching head message.
                own = var_map_get(var_map, action.s)
                queue = config.queue(own) if isinstance(own, SessionId) else ()
                head = queue[0] if queue else None
                if not isinstance(head, OpMessage) or not _accepts(action, head):
                    continue
                received = var_map_set(var_map, dict(zip(action.params, head.payload)))
                queues = _queue_set(config.queues, own, queue[1:])
                result = _advance(config, idx, to, received, queues, counter)
                detail = f"{action.render()} <- {head.render()}"
                rec.append(ConfigStep("REC", actor, detail, result))

    # SES2: a service consumes a session request and spawns an instance.
    ses2: list[ConfigStep] = []
    for svc in config.services:
        queue = config.queue(svc.location)
        if not queue or not isinstance(queue[0], NewSession):
            continue
        head = queue[0]
        spawned = Instance(
            origin=svc.name,
            var_map=var_map_set(svc.var_map, {ROOT_SESSION: head.session}),
            graph=svc.graph,
            state=svc.graph.init,
        )
        result = RunningConfiguration(
            config.services,
            config.instances + (spawned,),
            _queue_set(config.queues, svc.location, queue[1:]),
            counter,
        )
        detail = f"consume {head.render()} at {svc.location.render()}"
        ses2.append(ConfigStep("SES2", svc.name, detail, result))

    return ses1 + ses2 + inv + rec


# --------------------------------------------------------------------------
# Interaction safety


@dataclass(frozen=True)
class UnsafeWitness:
    instance: str
    session_var: str
    op: str
    arity: int
    state: int

    def render(self) -> str:
        return (
            f"{self.instance} is open on '{self.session_var}' at state "
            f"{self.state} but cannot receive head message "
            f"{self.op}/{self.arity}"
        )


def one_step_safe(config: RunningConfiguration) -> UnsafeWitness | None:
    """None when safe; otherwise the first mismatch witness.

    A mismatch: some instance holds a session whose queue head is an
    operation message, the instance is open for reception on that session,
    yet no outgoing reception matches the head's operation and arity.
    """
    for idx, inst in enumerate(config.instances):
        recvs = inst.edges.recvs
        if not recvs:
            continue  # open for reception on no session
        for var, value in inst.var_map:
            if not isinstance(value, SessionId):
                continue
            queue = config.queue(value)
            if not queue or not isinstance(queue[0], OpMessage):
                continue
            head = queue[0]
            receptions = [action for action, _ in recvs if action.s == var]
            if not receptions:
                continue  # not open on this session
            if not any(_accepts(r, head) for r in receptions):
                return UnsafeWitness(
                    instance=f"{inst.origin}[{idx}]",
                    session_var=var,
                    op=head.op,
                    arity=len(head.payload),
                    state=inst.state,
                )
    return None


@dataclass(frozen=True)
class Verified:
    configurations: int


@dataclass(frozen=True)
class Unsafe:
    trace: tuple[ConfigStep, ...]
    witness: UnsafeWitness | None
    fault: Diagnostic | None = None
    configurations: int = 0


@dataclass(frozen=True)
class Exhausted:
    configurations: int
    max_configs: int
    max_queue_len: int
    reason: str


ExploreResult = Verified | Unsafe | Exhausted


def _max_queue(config: RunningConfiguration) -> int:
    return max((len(items) for _, items in config.queues), default=0)


def explore_safety(
    services: list[DeployableService],
    client: Instance,
    max_configs: int = 100_000,
    max_queue_len: int = 16,
) -> ExploreResult:
    """Breadth-first interaction-safety check of the reachable space.

    ``Verified`` means every reachable configuration was visited and is
    safe.  Hitting either limit downgrades the verdict to ``Exhausted``:
    verified only up to the bound.
    """
    initial = make_initial_config(services, client)
    # Each visited configuration, with the step that first reached it and
    # that step's source; None for the initial configuration.
    visited: dict[
        RunningConfiguration, tuple[RunningConfiguration, ConfigStep] | None
    ] = {initial: None}
    truncated = False

    def trace_to(config: RunningConfiguration) -> tuple[ConfigStep, ...]:
        trace = []
        while (reached := visited[config]) is not None:
            config, step = reached
            trace.append(step)
        return tuple(reversed(trace))

    frontier = [initial]
    while frontier:
        next_frontier = []
        for config in frontier:
            witness = one_step_safe(config)
            if witness is not None:
                return Unsafe(trace_to(config), witness, configurations=len(visited))
            for step in successors(config):
                succ = step.result
                if succ.fault is not None:
                    trace = trace_to(config) + (step,)
                    return Unsafe(trace, None, fault=succ.fault, configurations=len(visited))
                if succ in visited:
                    continue
                if _max_queue(succ) > max_queue_len:
                    truncated = True
                    continue
                if len(visited) >= max_configs:
                    return Exhausted(
                        len(visited), max_configs, max_queue_len, "configuration limit"
                    )
                visited[succ] = (config, step)
                next_frontier.append(succ)
        frontier = next_frontier

    if truncated:
        return Exhausted(len(visited), max_configs, max_queue_len, "queue length limit")
    return Verified(len(visited))


# --------------------------------------------------------------------------
# Random simulation


@dataclass(frozen=True)
class SimulationResult:
    steps: tuple[ConfigStep, ...]
    final: RunningConfiguration
    quiescent_at: int | None


def simulate(
    services: list[DeployableService],
    client: Instance,
    steps: int,
    seed: int = 0,
) -> SimulationResult:
    """Follow ``steps`` pseudo-random rule applications from the start."""
    rng = random.Random(seed)
    config = make_initial_config(services, client)
    taken: list[ConfigStep] = []
    for n in range(steps):
        options = successors(config)
        if not options:
            return SimulationResult(tuple(taken), config, quiescent_at=n)
        step = options[rng.randrange(len(options))]
        taken.append(step)
        config = step.result
        if config.fault is not None:
            return SimulationResult(tuple(taken), config, quiescent_at=None)
    return SimulationResult(tuple(taken), config, quiescent_at=None)
