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

No value changes once built; exploration and simulation are
deterministic.  Instances, configurations and steps are slotted but not
frozen dataclasses: exploration builds one of each per step, and a frozen
dataclass costs about three times as much to build.

Exploration looks up, rather than recomputes, what each instance can do.
Each control graph builds on first use, and shares with every instance
that runs it, one table that must not be mutated
(``ControlGraph.slot_table``).  A var map is sorted by name, so each
variable sits at a fixed position, its slot.  A state's row holds its
sorted edges, each with the slots of its action's variables, and its
receptions, each with the slot of its session variable and the heads it
accepts; a step reads and binds variables by position, without searching
or sorting the map.
Queues are kept by location name and by session number.
``explore_safety`` keys what it has visited by ``canonical_key``, which
forgets finished instances, dead sessions, the names of session ids and
the order of differently shaped instances, each computing its part once.

``explore_safety`` also reduces by partial order (ample sets, in the manner
of Clarke, Grumberg, Minea and Peled): where it can, a configuration
expands the steps of one actor only.  As in Peled's and Godefroid's
algorithms, the actor is chosen before any step is built: ``_ample``
reads it off the configuration, and ``successors(config, actor)`` builds
its steps alone.  Three facts make that sound:

* each session id is held by one instance at most, and session ids are
  never sent, because payloads must be ``EXCHANGEABLE``: a session's
  queue has one reader, its holder, and one writer, its partner's holder;
* a service's location queue is popped by that service only, since
  ``check_well_partnered`` allows one service per location;
* popping the head of a non-empty queue commutes with appending to its
  tail.

So the steps of these actors commute with every step any other actor can
take, and no other actor can enable or disable them:

* a service that can take SES2: it pops its own queue; others only
  append to it (two SES2 steps commute up to the order of the instances,
  which ``canonical_key`` forgets);
* an instance whose current edges are all sends: it only appends;
* an instance whose current edges are all receptions on one variable,
  bound to a session with a non-empty queue: only it pops that queue, so
  the head and the receptions that match it stay as they are.

Unsafety persists under the steps of other actors: they neither move the
witness instance nor pop its queue, and an append leaves a non-empty
queue's head alone; a fault step stays enabled, as it reads only its own
instance.  So if a path of other actors' steps reaches an unsafe
configuration, taking the chosen actor's step first reaches one too; and
if the witness is the chosen instance itself, it has not moved, so the
configuration it starts from is unsafe already.  The one cost is that an
unsafe configuration may be found at a greater depth.

An instance whose current edges are all session initiations qualifies
too, though its steps commute with others' only up to symmetry.  Say its
SES1 step ``a`` binds ``#c`` and appends a request for ``#c+1`` to
location L.  No other actor reads or writes the instance, so none enables
or disables ``a`` or changes its target; and against a step ``b`` of
another actor:

* if ``b`` draws no session pair and appends nothing to L, the two
  commute exactly (a SES2 at L pops the head of the queue ``a`` appends
  to);
* if ``b`` is a SES1, the two orders hand the next two session pairs to
  the two initiators the other way round: they differ by a renaming of
  session pairs, which maps steps to steps and keeps safety;
* if ``b`` also appends its request to L, the two orders differ, up to
  that renaming, in the order of the two requests.  For either, L's
  service spawns the same instance at its initial state, bound to
  another root session; once it has consumed both, the orders differ
  only in which of two same-shape instances serves which initiator.

``canonical_key`` forgets a renaming of pairs and the order of instances
of distinct shapes, but keeps that of same-shape instances, which then
says who serves whom; so the argument matches paths, not keys.  Take a
path from the configuration to an unsafe one, or to a fault, and let
``a`` be the instance's first step on it, or any of its steps if it
takes none.  The matching path takes ``a`` first and then the path's
other steps, renamed, with one change: where the path has L's service
consume a request that now queues behind ``a``'s, as does any request
appended to L after the configuration, whoever appends it, the service
consumes ``a``'s first.  The instance spawned early waits at its initial
state until the path would spawn it, and then takes the path's steps; it
merely sits earlier in the order of the instances, and the path's own
consumption of ``a``'s request drops out.  Each configuration on the
matching path is then the path's, up to renaming and the order of the
instances, except that ``a``'s instance may be a step further on and
``a``'s request may be queued, or its instance idle at its initial
state, where the path has not got that far.  None of that makes an
unsafe configuration safe: ``one_step_safe`` reads no location queue,
an idle instance only adds a candidate witness, and the instance that
took ``a`` was open for no reception, so it was no witness.  A SES1
fault, on a variable that holds no location, is a step of the chosen
instance itself: it reads only that instance, so it is enabled from the
configuration on, and it is among the steps expanded there.

Order paths by their number of steps other than SES2, then by the
length of their leading run of SES2 steps.  Counted from the chosen
step's result, a matching path is no greater than the path it matches:
the one SES2 it may add comes after a step other than SES2, since the
requests the leading run consumes queue ahead of ``a``'s; and when the
path itself takes the chosen actor's step, the matching path has one
step other than SES2 fewer.  Two provisos keep the argument whole.  The
breadth-first proviso of Bošnački and Holzmann expands a configuration
fully when one of the actor's successors was reached at a depth no
greater than its own, so an actor is expanded alone only when its
successors lie one level deeper, and every cycle of the reduced space
passes a fully expanded configuration.  Suppose a run that cuts nothing
visits a configuration from which an unsafe one, or a fault, is
reachable.  Of those, take the ones whose least such path is least and,
among them, one the run reaches deepest.  Expanded fully, it has a
successor with a lesser path; expanded by one actor, a deeper successor
with a path no greater.  Either contradicts the choice, so a run that
ends ``Verified`` visits no configuration that reaches an unsafe one,
and an ``Unsafe`` trace is always a real path.  The other proviso: a
configuration whose chosen successors would overflow ``max_queue_len``
is expanded fully, so at no configuration does the bound cut more than
a full expansion does there.  A matching path may still hold one
message or request more than the path it matches, so a run that the
bound cuts ends ``Exhausted`` and claims nothing past the bound.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .control import ControlGraph, Recv, SesInit, Send, SlotTable, StateEdges
from .diagnostics import (
    BROKEN_BINDING,
    CLIENT_SHAPE,
    DANGLING_PARTNER,
    DUP_LOCATION,
    Diagnostic,
    NONFREE_DEFINED,
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
    number: int

    def render(self) -> str:
        return f"#{self.number}"


Value = Data | ServiceLoc | SessionId

EXCHANGEABLE = (Data, ServiceLoc)


_VALUE_RANK = {Data: 0, ServiceLoc: 1, SessionId: 2}


def value_key(value: Value) -> tuple:
    return (_VALUE_RANK[type(value)], value.render())


VarMap = tuple[tuple[str, Value | None], ...]


def make_var_map(mapping: dict[str, Value | None]) -> VarMap:
    return tuple(sorted(mapping.items()))


def _bind(m: VarMap, slots, values) -> VarMap:
    """``m`` with the variables at ``slots`` bound to ``values``, in order."""
    bound = list(m)
    for i, value in zip(slots, values):
        bound[i] = (bound[i][0], value)
    return tuple(bound)


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
    var_map: VarMap  # holds ROOT_SESSION, undefined until SES2 binds it
    graph: ControlGraph
    location: ServiceLoc  # the var map's OWN_LOCATION, set once by make_service


@dataclass(slots=True, unsafe_hash=True, init=False)
class Instance:
    """A running instance.

    ``var_map`` holds every variable of the graph's actions (one missing
    from the map given is added undefined), and ``slots`` is the graph's
    slot table for its names, so a step reads and binds variables by
    position.  ``edges`` is the current state's row of that table;
    ``_canon`` caches its part of ``canonical_key``.
    """

    origin: str  # service name, or "client"
    var_map: VarMap
    graph: ControlGraph = field(repr=False)
    state: int
    slots: SlotTable = field(init=False, repr=False, compare=False)
    edges: StateEdges = field(init=False, repr=False, compare=False)
    _canon: tuple | None = field(init=False, repr=False, compare=False)

    def __init__(self, origin, var_map, graph, state, slots=None) -> None:
        """``slots``, when given, is ``graph``'s slot table for ``var_map``."""
        if slots is None:
            slots = graph.slot_table(tuple(name for name, _ in var_map))
            if len(slots.index) > len(var_map):
                var_map = make_var_map({**dict.fromkeys(slots.index), **dict(var_map)})
        self.origin = origin
        self.var_map = var_map
        self.graph = graph
        self.state = state
        self.slots = slots
        self.edges = slots.rows[state]
        self._canon = None


Queues = tuple[tuple[Value, tuple[Message, ...]], ...]
Keyed = tuple[tuple[str | int, tuple[Message, ...]], ...]

_FIRST = itemgetter(0)


@dataclass(slots=True, unsafe_hash=True)
class RunningConfiguration:
    """A configuration.

    Queues are kept by a service location's name (``locations``) and by a
    session id's number (``sessions``), sorted, and none is empty.
    ``queues`` lists them together as ``(destination, messages)`` pairs
    sorted by ``value_key``.  Session ids are drawn in pairs: the k-th
    session initiation binds ``#2k`` to ``#2k+1``, so the sessions bound so
    far are exactly ``#0`` to ``#fresh_counter-1``, and ``#k``'s partner is
    ``#(k xor 1)``.
    """

    services: tuple[DeployableService, ...]
    instances: tuple[Instance, ...]
    locations: Keyed = ()
    sessions: Keyed = ()
    fresh_counter: int = 0
    fault: Diagnostic | None = None

    @property
    def queues(self) -> Queues:
        pairs = [(ServiceLoc(name), q) for name, q in self.locations]
        pairs += [(SessionId(k), q) for k, q in self.sessions]
        return tuple(sorted(pairs, key=lambda entry: value_key(entry[0])))

    def partner(self, session: SessionId) -> SessionId | None:
        k = session.number
        return SessionId(k ^ 1) if k < self.fresh_counter else None

    @property
    def bindings(self) -> tuple[tuple[SessionId, SessionId], ...]:
        """The bound pairs, ordered by the first id's text (``#10`` before ``#2``)."""
        firsts = sorted(range(0, self.fresh_counter, 2), key=str)
        return tuple((SessionId(k), SessionId(k + 1)) for k in firsts)


def _queue_set(table: Keyed, key: str | int, items: tuple[Message, ...]) -> Keyed:
    """``table`` with ``key``'s queue replaced; an empty queue is dropped."""
    i = bisect_left(table, key, key=_FIRST)
    end = i + 1 if i < len(table) and table[i][0] == key else i
    return table[:i] + (((key, items),) if items else ()) + table[end:]


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
    free: frozenset[str],
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
    var_map = {ROOT_SESSION: None, **var_map}  # for SES2 to bind
    return DeployableService(name, make_var_map(var_map), graph, location)


def make_client(
    var_map: dict[str, Value | None],
    graph: ControlGraph,
    services: list[DeployableService],
    free: frozenset[str],
) -> Instance:
    """Validate and build the bootstrap client instance.

    The client's first steps must all be session initiations whose target
    location variable is defined and names a deployed service, and only
    its free variables may hold a value.  ``free`` holds the free
    variables of the client activity.
    """
    problems = [
        Diagnostic(NONFREE_DEFINED, f"variable '{var}' is not free and must stay undefined")
        for var, value in var_map.items()
        if value is not None and var not in free
    ]
    client = Instance("client", make_var_map(var_map), graph, graph.init)
    if not client.edges.all:
        problems.append(Diagnostic(CLIENT_SHAPE, "the client activity does nothing"))
    locations = {svc.location for svc in services}
    for action, _, _ in client.edges.all:
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
    return client


def make_initial_config(
    services: list[DeployableService], client: Instance
) -> RunningConfiguration:
    problems = check_well_partnered(services)
    if problems:
        raise ConfigurationError(problems)
    return RunningConfiguration(tuple(services), (client,))


# --------------------------------------------------------------------------
# The step relation

RuleTag = str  # "SES1" | "SES2" | "INV" | "REC"


@dataclass(slots=True)
class ConfigStep:
    """One rule application: ``rule`` taken by ``actor``, as ``detail`` says.

    Exploration builds far more steps than it prints, so the text is kept
    in parts and rendered when read: ``who`` is a service name or an
    instance's ``(origin, index)``, and ``what`` lists the words of the
    detail, each a string or something with ``render()``.  Steps compare
    by their fields and are not hashable.
    """

    rule: RuleTag
    who: str | tuple[str, int]
    what: tuple
    result: RunningConfiguration

    @property
    def actor(self) -> str:
        who = self.who
        return who if isinstance(who, str) else f"{who[0]}[{who[1]}]"

    @property
    def detail(self) -> str:
        return " ".join(w if isinstance(w, str) else w.render() for w in self.what)

    def render(self) -> str:
        return f"{self.rule} {self.actor} {self.detail}"


def _advance(
    config: RunningConfiguration,
    idx: int,
    to: int,
    var_map: VarMap,
    fresh: int,
    locations: Keyed,
    sessions: Keyed,
) -> RunningConfiguration:
    """``config`` with instance ``idx`` moved to state ``to``, holding ``var_map``."""
    inst = config.instances[idx]
    moved = Instance(inst.origin, var_map, inst.graph, to, inst.slots)
    instances = config.instances[:idx] + (moved,) + config.instances[idx + 1 :]
    return RunningConfiguration(
        config.services, instances, fresh_counter=fresh, locations=locations, sessions=sessions
    )


def successors(
    config: RunningConfiguration, actor: int | str | None = None
) -> list[ConfigStep]:
    """Every configuration reachable in one rule application by ``actor``.

    ``actor`` is an instance's index or a service's name; None stands for
    every actor.  The steps come in a fixed order: SES1 over the
    instances, SES2 over the services, then INV and REC over the
    instances, each instance's edges in the order of its row.  An actor's
    steps are those of the full list that it takes, in the same order.
    """
    if config.fault is not None:
        return []
    counter = config.fresh_counter
    locations, sessions = config.locations, config.sessions
    service_queue, session_queue = dict(locations), dict(sessions)
    ses1: list[ConfigStep] = []
    inv: list[ConfigStep] = []
    rec: list[ConfigStep] = []

    def fault(
        rule: RuleTag, who: tuple[str, int], action: SesInit | Send, code: str, why: str
    ) -> ConfigStep:
        actor = f"{who[0]}[{who[1]}]"
        faulty = replace(config, fault=Diagnostic(code, f"{actor} {why}"))
        return ConfigStep(rule, who, (action,), faulty)

    if actor is None:
        movers, spawners = enumerate(config.instances), config.services
    elif isinstance(actor, int):
        movers, spawners = ((actor, config.instances[actor]),), ()
    else:
        movers, spawners = (), [svc for svc in config.services if svc.name == actor]
    for idx, inst in movers:
        who = (inst.origin, idx)
        var_map = inst.var_map
        for action, to, slots in inst.edges.all:
            if isinstance(action, SesInit):
                # SES1: bind two fresh sessions and request a service instance.
                target = var_map[slots[1]][1]
                if not isinstance(target, ServiceLoc):
                    why = f"initiates on '{action.p}' which holds no location"
                    ses1.append(fault("SES1", who, action, BROKEN_BINDING, why))
                    continue
                request = NewSession(SessionId(counter + 1))
                queue = service_queue.get(target.name, ()) + (request,)
                queued = _queue_set(locations, target.name, queue)
                bound = _bind(var_map, slots[:1], (SessionId(counter),))
                result = _advance(config, idx, to, bound, counter + 2, queued, sessions)
                what = (action, "->", request, "at", target)
                ses1.append(ConfigStep("SES1", who, what, result))
            elif isinstance(action, Send):
                # INV: send an operation message to the partner session.
                own = var_map[slots[0]][1]
                partner = config.partner(own) if isinstance(own, SessionId) else None
                if partner is None:
                    why = f"sends on '{action.s}' which is not bound to a session"
                    inv.append(fault("INV", who, action, BROKEN_BINDING, why))
                    continue
                payload = tuple(var_map[i][1] for i in slots[1:])
                bad = [
                    arg
                    for arg, value in zip(action.args, payload)
                    if not isinstance(value, EXCHANGEABLE)
                ]
                if bad:
                    why = f"sends '{bad[0]}' which holds no exchangeable value"
                    inv.append(fault("INV", who, action, UNDEFINED_PAYLOAD, why))
                    continue
                message = OpMessage(action.op, payload)
                queue = session_queue.get(partner.number, ()) + (message,)
                queued = _queue_set(sessions, partner.number, queue)
                result = _advance(config, idx, to, var_map, counter, locations, queued)
                what = (action, "->", message, "to", partner)
                inv.append(ConfigStep("INV", who, what, result))
            elif isinstance(action, Recv):
                # REC: consume a head message of the same operation and arity.
                own = var_map[slots[0]][1]
                queue = session_queue.get(own.number, ()) if isinstance(own, SessionId) else ()
                head = queue[0] if queue else None
                if head is None or head.op != action.op or len(head.payload) != len(action.params):
                    continue
                received = _bind(var_map, slots[1:], head.payload)
                queued = _queue_set(sessions, own.number, queue[1:])
                result = _advance(config, idx, to, received, counter, locations, queued)
                rec.append(ConfigStep("REC", who, (action, "<-", head), result))

    # SES2: a service consumes a session request and spawns an instance.
    ses2: list[ConfigStep] = []
    for svc in spawners:
        queue = service_queue.get(svc.location.name, ())
        if not queue:
            continue
        head = queue[0]
        root = bisect_left(svc.var_map, ROOT_SESSION, key=_FIRST)
        spawned = Instance(
            svc.name, _bind(svc.var_map, (root,), (head.session,)), svc.graph, svc.graph.init
        )
        result = RunningConfiguration(
            config.services,
            config.instances + (spawned,),
            fresh_counter=counter,
            locations=_queue_set(locations, svc.location.name, queue[1:]),
            sessions=sessions,
        )
        what = ("consume", head, "at", svc.location)
        ses2.append(ConfigStep("SES2", svc.name, what, result))

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
    heads = {k: items[0] for k, items in config.sessions}
    if not heads:
        return None
    for idx, inst in enumerate(config.instances):
        for var, slot, accepted in inst.edges.receptions:
            value = inst.var_map[slot][1]
            head = heads.get(value.number) if isinstance(value, SessionId) else None
            if head is not None and (head.op, len(head.payload)) not in accepted:
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

DEFAULT_MAX_CONFIGS, DEFAULT_MAX_QUEUE = 100_000, 16


# --------------------------------------------------------------------------
# Canonical configurations

# Stand for a session id, even or odd, in an instance's shape; unlike
# ``None`` (unbound) they say that the variable holds a session.  Plain
# strings, because they equal no value and hash in C.
_ANY_SESSION = ("even session", "odd session")

_SHAPE = itemgetter(1)


def _canon(inst: Instance, shapes: dict[tuple, int]) -> tuple:
    """Compute and cache ``(shapes, shape, sessions)`` on an instance.

    ``sessions`` numbers the session ids of the var map, in var map order.
    ``shapes`` interns the shape, in discovery order: the origin, graph,
    var map with each session id blanked to its parity, and state.
    """
    blanked = []
    sessions = []
    for var, value in inst.var_map:
        if isinstance(value, SessionId):
            sessions.append(value.number)
            value = _ANY_SESSION[sessions[-1] & 1]
        blanked.append((var, value))
    shape = (inst.origin, inst.graph, tuple(blanked), inst.state)
    cached = (shapes, shapes.setdefault(shape, len(shapes)), tuple(sessions))
    inst._canon = cached
    return cached


def canonical_key(config: RunningConfiguration, shapes: dict[tuple, int]) -> tuple:
    """What of ``config`` matters to safety, up to renaming session ids.

    The key is ``(live count, shapes..., pairs..., queues)``:

    * the shapes of the live instances (not at a sink of their graph),
      sorted; instances of one shape keep their order in ``instances``;
    * their session ids, pair by pair, numbered in order of first
      occurrence (a shape records each id's parity, so ``partner()``'s
      pairing survives);
    * the queues of services and of live sessions, those a live instance
      holds or a pending ``NewSession`` names, with session ids renamed
      (``#2j``/``#2j+1`` for the j-th pair).  No step reads another queue.

    ``services``, ``fresh_counter`` and ``fault`` are left out.  Session
    ids are only compared for equality and never sent, so configurations
    with one key take the same steps up to renaming and are equally safe,
    as long as every session id held is bound, as in every configuration
    reachable from one that holds none.  One exploration passes one
    ``shapes`` table to every call, so no hash seed reaches the key.
    """
    live = []
    for inst in config.instances:
        if inst.edges.all:
            cached = inst._canon
            if cached is None or cached[0] is not shapes:
                cached = _canon(inst, shapes)
            live.append(cached)
    live.sort(key=_SHAPE)
    key: list = [len(live)]
    key += [shape for _, shape, _ in live]
    ids = [k for _, _, sessions in live for k in sessions]
    pairs: dict[int, int] = {}  # old pair index -> new, in order of first use
    key += [pairs.setdefault(k >> 1, len(pairs)) for k in ids]
    held = set(ids)
    kept = []
    sessions_kept = []
    # Service queues come first, so every live session is known before its
    # queue comes up.
    for name, items in config.locations:
        renamed = []
        for request in items:
            k = request.session.number
            held.add(k)
            renamed.append(2 * pairs.setdefault(k >> 1, len(pairs)) + (k & 1))
        kept.append((name, tuple(renamed)))
    for k, items in config.sessions:
        if k in held:
            sessions_kept.append((2 * pairs[k >> 1] + (k & 1), items))
    sessions_kept.sort(key=_FIRST)
    key.append(tuple(kept + sessions_kept))
    return tuple(key)


def _max_queue(key: tuple) -> int:
    """The length of the longest queue a canonical key keeps."""
    return max((len(items) for _, items in key[-1]), default=0)


def _ample(config: RunningConfiguration) -> int | str | None:
    """The actor whose steps alone ``config`` may expand, read off ``config``; or None.

    It is the first, in step order, whose steps all commute with every
    other actor's, exactly or up to symmetry: an instance whose edges are
    all session initiations, else a service that can take SES2, else an
    instance whose edges are all sends, else one whose edges are all
    receptions on one variable and that can take one.  Edge rows sort by
    action class, then by session variable, so their first and last edges
    say what all are.
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


def explore_safety(
    services: list[DeployableService],
    client: Instance,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    max_queue_len: int = DEFAULT_MAX_QUEUE,
) -> ExploreResult:
    """Breadth-first interaction-safety check with partial-order reduction.

    Configurations count once per ``canonical_key``; ``successors`` still
    steps concrete ones, so every trace replays, though it need not be the
    shortest.  Each configuration expands the steps of one independent
    actor (``_ample``) when there is one, and every step otherwise; it
    expands every step after all when one of the actor's successors was
    visited at a depth no greater than its own (so every cycle passes a
    fully expanded configuration) or has a queue over ``max_queue_len``.
    ``Verified`` means no reachable configuration is unsafe.  Hitting
    either limit downgrades the verdict to ``Exhausted``: verified only up
    to the bound.  ``max_queue_len`` bounds the queues the key keeps.
    """
    initial = make_initial_config(services, client)
    shapes: dict[tuple, int] = {}
    start = canonical_key(initial, shapes)
    # Each visited key, with its breadth-first depth, the key of the
    # configuration a step first reached it from and that step; the
    # initial configuration has neither.
    visited: dict[tuple, tuple[int, tuple | None, ConfigStep | None]] = {start: (0, None, None)}
    truncated = False

    def trace_to(key: tuple) -> tuple[ConfigStep, ...]:
        trace = []
        _, key, step = visited[key]
        while step is not None:
            trace.append(step)
            _, key, step = visited[key]
        return tuple(reversed(trace))

    def keyed(steps: list[ConfigStep]) -> list[tuple[ConfigStep, tuple | None]]:
        """Each step with its result's key; None for a fault step."""
        return [
            (step, None if step.result.fault is not None else canonical_key(step.result, shapes))
            for step in steps
        ]

    frontier = [(initial, start)]
    depth = 0
    while frontier:
        next_frontier = []
        for config, key in frontier:
            witness = one_step_safe(config)
            if witness is not None:
                return Unsafe(trace_to(key), witness, configurations=len(visited))
            actor = _ample(config)
            expansion = [] if actor is None else keyed(successors(config, actor))
            if actor is None or any(
                k is not None
                and (_max_queue(k) > max_queue_len or k in visited and visited[k][0] <= depth)
                for _, k in expansion
            ):
                expansion = keyed(successors(config))
            for step, succ_key in expansion:
                if succ_key is None:
                    trace = trace_to(key) + (step,)
                    return Unsafe(trace, None, fault=step.result.fault, configurations=len(visited))
                if succ_key in visited:
                    continue
                if _max_queue(succ_key) > max_queue_len:
                    truncated = True
                    continue
                if len(visited) >= max_configs:
                    return Exhausted(
                        len(visited), max_configs, max_queue_len, "configuration limit"
                    )
                visited[succ_key] = (depth + 1, key, step)
                next_frontier.append((step.result, succ_key))
        frontier = next_frontier
        depth += 1

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
