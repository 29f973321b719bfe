"""Control link maps, join evaluation and the control graph structure.

Link values are ``True``, ``False`` or ``None`` (undefined).  Graph states
are dense integers numbered in a deterministic breadth-first order, so the
same input always yields bit-identical graphs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

from .syntax import (
    Activity,
    And,
    Inv,
    JoinExpr,
    LinkRef,
    Lit,
    Not,
    Or,
    Rec,
    Ses,
    all_links,
    join_links,
    structure_key,
)

LinkValue = bool | None

_VALUES = (None, False, True)


@dataclass(frozen=True)
class LinkMap:
    """Immutable map from link names to link values.

    ``names`` is sorted; ``codes`` holds one code per name, 0 for
    undefined, 1 for false and 2 for true, so it is also the sort key.
    ``index`` maps each name to its position.  A map made by
    ``set_links`` shares ``names`` and ``index`` with its source, so one
    compilation builds them once.
    """

    names: tuple[str, ...]
    codes: tuple[int, ...]
    index: dict[str, int] = field(compare=False, repr=False)

    @classmethod
    def of(cls, mapping: dict[str, LinkValue]) -> "LinkMap":
        names = tuple(sorted(mapping))
        codes = tuple(_VALUES.index(mapping[name]) for name in names)
        return cls(names, codes, {name: i for i, name in enumerate(names)})

    def domain(self) -> frozenset[str]:
        return frozenset(self.names)

    def as_dict(self) -> dict[str, LinkValue]:
        return {name: _VALUES[code] for name, code in zip(self.names, self.codes)}

    def set_links(self, value: LinkValue, links) -> "LinkMap":
        if not links:
            return self
        outside = [name for name in links if name not in self.index]
        if outside:
            raise ValueError(
                "links outside the map domain: " + ", ".join(sorted(outside))
            )
        codes = list(self.codes)
        code = _VALUES.index(value)
        for name in links:
            codes[self.index[name]] = code
        return LinkMap(self.names, tuple(codes), self.index)

    def true_links(self) -> frozenset[str]:
        return frozenset(n for n, code in zip(self.names, self.codes) if code == 2)

    def sort_key(self) -> tuple:
        return self.codes


def initial_link_map(act: Activity) -> LinkMap:
    """Map over every link occurring in the tree, all undefined."""
    return LinkMap.of(dict.fromkeys(all_links(act)))


def eval_join(c: LinkMap, expr: JoinExpr, targets) -> LinkValue:
    """Evaluate a join condition over the given incoming-link set.

    The evaluation is undefined (``None``) while any incoming link is
    undefined, even if the expression does not mention it.  Referencing a
    link outside the incoming set is a contract violation.
    """
    stray = join_links(expr) - frozenset(targets)
    if stray:
        raise ValueError(
            "join condition references links outside the tgt set: "
            + ", ".join(sorted(stray))
        )
    codes, index = c.codes, c.index
    for link in targets:
        if codes[index[link]] == 0:
            return None
    return join_holds(expr, codes, index)


def join_holds(e: JoinExpr, codes, index) -> bool:
    """``e``'s value over defined links; a module-level recursion, unlike a
    self-naming closure, leaves no reference cycle behind per call."""
    match e:
        case Lit(value):
            return value
        case LinkRef(name):
            return codes[index[name]] == 2
        case And(left, right):
            return join_holds(left, codes, index) and join_holds(right, codes, index)
        case Or(left, right):
            return join_holds(left, codes, index) or join_holds(right, codes, index)
        case Not(operand):
            return not join_holds(operand, codes, index)
    raise TypeError(f"not a join expression: {e!r}")


# --------------------------------------------------------------------------
# Symbolic actions


@dataclass(frozen=True)
class Tau:
    def render(self, tau: str = "τ") -> str:
        return tau

    def sort_key(self) -> tuple:
        return (0, "", "", ())


@dataclass(frozen=True)
class SesInit:
    s: str
    p: str

    def render(self, tau: str = "τ") -> str:
        return f"{self.s}@{self.p}"

    def sort_key(self) -> tuple:
        return (1, self.s, self.p, ())


@dataclass(frozen=True)
class Send:
    s: str
    op: str
    args: tuple[str, ...] = ()

    def render(self, tau: str = "τ") -> str:
        return f"{self.s}!{self.op}({','.join(self.args)})"

    def sort_key(self) -> tuple:
        return (2, self.s, self.op, self.args)


@dataclass(frozen=True)
class Recv:
    s: str
    op: str
    params: tuple[str, ...] = ()

    def render(self, tau: str = "τ") -> str:
        return f"{self.s}?{self.op}({','.join(self.params)})"

    def sort_key(self) -> tuple:
        return (3, self.s, self.op, self.params)


Action = Tau | SesInit | Send | Recv

TAU = Tau()

_PRIORITY = {Tau: 3, Send: 2, SesInit: 1, Recv: 0}


def action_priority(action: Action) -> int:
    """Run-to-completion's rank: silent > send > session-init > receive."""
    return _PRIORITY[type(action)]


class VarKind(enum.Enum):
    SESSION = "session"
    LOCATION = "service-location"
    EXCHANGEABLE = "exchangeable"


def occurrences(action: Action | None) -> tuple[tuple[str, VarKind, bool], ...]:
    """Every variable position of the action as ``(variable, kind, binds)``.

    The one definition of occurrences, in order: the session, then the
    location, the arguments or the parameters.  τ and ``None`` have none.
    """
    match action:
        case SesInit(s, p):
            return ((s, VarKind.SESSION, True), (p, VarKind.LOCATION, False))
        case Send(s, _, args):
            return ((s, VarKind.SESSION, False),
                    *((a, VarKind.EXCHANGEABLE, False) for a in args))
        case Recv(s, _, params):
            return ((s, VarKind.SESSION, False),
                    *((x, VarKind.EXCHANGEABLE, True) for x in params))
    return ()


def action_of(atom: Activity) -> Action | None:
    """The action of a ``Ses``, ``Inv`` or ``Rec``; ``None`` for any other activity."""
    match atom:
        case Ses(s, p):
            return SesInit(s, p)
        case Inv(s, op, args):
            return Send(s, op, args)
        case Rec(s, op, params):
            return Recv(s, op, params)
    return None


# --------------------------------------------------------------------------
# Control graphs

Transition = tuple[int, Action, int]
Payload = tuple[LinkMap, Activity]


def action_table(actions) -> tuple[Action, ...]:
    """τ and the distinct ``actions``, sorted by ``sort_key``: τ, the least, is 0."""
    return tuple(sorted({TAU, *actions}, key=lambda a: a.sort_key()))


class StateEdges(NamedTuple):
    """The outgoing edges of one state, sorted by ``(action.sort_key(), to)``.

    ``all`` holds every edge as ``(action, to, slots)``, ``slots`` being
    the slots of the action's variables in ``occurrences`` order: the
    session first.  ``receptions`` holds ``(variable, slot, accepted)`` for
    each session variable the state receives on, in name order:
    ``accepted`` holds the ``(operation, arity)`` pairs its receptions
    accept.  ``only`` is the one class of the row's actions, if it has one
    and receives on one variable at most; None otherwise.
    """

    all: tuple[tuple[Action, int, tuple[int, ...]], ...]
    receptions: tuple[tuple[str, int, frozenset[tuple[str, int]]], ...]
    only: type | None


class SlotTable(NamedTuple):
    """One graph's edges, over var maps of one domain.

    A var map is a tuple of ``(name, value)`` pairs sorted by name, so a
    variable's slot, ``index[name]``, is its position in the sorted
    domain.  ``rows[state]`` is the state's ``StateEdges``.
    """

    index: dict[str, int]
    rows: tuple[StateEdges, ...]


class ControlGraph:
    """Labelled transition system over symbolic actions; immutable.

    States are ``0..num_states-1``; raw graphs keep the (link map,
    residual activity) payload per state, transformed graphs may drop it.
    ``actions`` is the graph's action table (``action_table``), so an
    action's id, its position, orders as the action does and τ is 0.
    ``edges`` holds the transitions as ``(from, action id, to)`` triples;
    every graph of the pipeline keeps them sorted, which is action order,
    and shares its input's table, which may list actions no edge carries.
    ``transitions``, the same triples with actions, is built on first read.
    """

    def __init__(self, num_states: int, init: int, transitions, payloads=None, actions=None):
        """Given ``actions``, a table, ``transitions`` are ``edges``."""
        if actions is None:
            self.transitions = transitions = tuple(transitions)
            actions = action_table(a for _, a, _ in transitions)
            ids = {a: i for i, a in enumerate(actions)}
            transitions = tuple((frm, ids[a], to) for frm, a, to in transitions)
        self.num_states, self.init, self.actions, self.edges, self.payloads = (
            num_states, init, actions, transitions, payloads)

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        return tuple([(f, self.actions[a], to) for f, a, to in self.edges])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ControlGraph):
            return NotImplemented
        return (self.num_states, self.init) == (other.num_states, other.init) and (
            self.edges == other.edges if self.actions == other.actions
            else self.transitions == other.transitions) and self.payloads == other.payloads

    @cached_property
    def _hash(self) -> int:
        h = list(map(hash, self.actions))  # not ids: equal graphs may have two tables
        return hash((self.num_states, self.init, tuple([(f, h[a], t) for f, a, t in self.edges])))

    def __hash__(self) -> int:
        return self._hash

    @property
    def states(self) -> range:
        return range(self.num_states)

    def slot_table(self, names: tuple[str, ...]) -> SlotTable:
        """Each state's edges over var maps of ``names`` and the actions' variables.

        Built from ``outgoing()`` on the first call for ``names`` and cached
        on the graph (graphs are immutable), so later calls cost one
        lookup.  The table is shared by every caller and must not be
        mutated.
        """
        tables = self.__dict__.setdefault("_slots", {})
        if names not in tables:
            ids = {id(a): i for i, a in enumerate(self.actions)}  # outgoing() holds table entries
            occs = {id(a): occurrences(a) for a in self.actions}
            out = [sorted(row, key=lambda e: (ids[id(e[0])], e[1])) for row in self.outgoing()]
            used = {v for row in out for a, _ in row for v, _, _ in occs[id(a)]}
            index = {name: i for i, name in enumerate(sorted(used.union(names)))}
            rows = []
            for row in out:
                recvs = [a for a, _ in row if isinstance(a, Recv)]  # sorted by session variable
                receptions = tuple(
                    (s, index[s], frozenset((a.op, len(a.params)) for a in group))
                    for s, group in groupby(recvs, key=lambda a: a.s)
                )
                kinds = {type(a) for a, _ in row}
                rows.append(StateEdges(
                    tuple((a, to, tuple(index[v] for v, _, _ in occs[id(a)])) for a, to in row),
                    receptions,
                    kinds.pop() if len(kinds) == 1 and len(receptions) < 2 else None,
                ))
            tables[names] = SlotTable(index, tuple(rows))
        return tables[names]

    def edge_rows(self) -> list[list[tuple[int, int]]]:
        """Per state, its ``(action id, to)`` edges in ``edges`` order."""
        table: list[list[tuple[int, int]]] = [[] for _ in self.states]
        for frm, a, to in self.edges:
            table[frm].append((a, to))
        return table

    def outgoing(self) -> list[list[tuple[Action, int]]]:
        """Per state, its ``(action, to)`` edges in ``edges`` order; actions are table entries."""
        actions = self.actions
        return [[(actions[a], to) for a, to in row] for row in self.edge_rows()]

    def sinks(self) -> list[int]:
        has_out = [False] * self.num_states
        for frm, _, _ in self.edges:
            has_out[frm] = True
        return [s for s in self.states if not has_out[s]]

    def without_payloads(self) -> "ControlGraph":
        if self.payloads is None:
            return self
        return ControlGraph(self.num_states, self.init, self.edges, actions=self.actions)


def sorted_transitions(transitions) -> tuple[Transition, ...]:
    g = ControlGraph(0, 0, transitions)
    return ControlGraph(0, 0, tuple(sorted(g.edges)), actions=g.actions).transitions


def state_key(payload: Payload) -> tuple:
    """Run-independent total order on (link map, residual) payloads."""
    c, act = payload
    return (c.sort_key(), structure_key(act))


def bfs_order(edges, numbered, tie):
    """Yield a state's ``(action id, to)`` edges in breadth-first visiting order.

    By action id; a run of one action puts ``numbered`` successors first and
    the others by ``tie(to)``, which numbers states as ordering every
    successor by ``tie`` would.  A run is keyed only when two or more of
    its successors have no number yet, as numbers follow only the order
    unnumbered successors are met; and only once the caller has numbered
    the runs before it, so ``tie`` is taken at most once per state.
    """
    runs: dict[int, list] = {}
    for edge in edges:
        runs.setdefault(edge[0], []).append(edge)
    for key in sorted(runs):
        run = runs[key]
        if len(run) > 1 and sum(not numbered(e[1]) for e in run) > 1:
            run.sort(key=lambda e: () if numbered(e[1]) else tie(e[1]))
        yield from run


def number_bfs(g: ControlGraph, init: int, edges) -> ControlGraph:
    """Number the states reachable from ``init`` over ``edges`` breadth first.

    ``edges(state)`` lists a state's ``(action id, to)`` pairs over ``g``'s
    table, which the result shares.  Successors are visited in action
    order, ties broken by ``state_key`` of ``g``'s
    payloads (by state id when it has none).  A run is keyed only when two
    or more of its successors have no number yet (``bfs_order``); the
    result holds the visited states' edges and payloads, renumbered.
    """
    tie = (lambda to: (to,)) if g.payloads is None else (lambda to: state_key(g.payloads[to]))
    states = [init]
    order: dict[int, int] = {init: 0}
    transitions = []
    for frm, state in enumerate(states):  # the queue: found states are appended
        for a, to in bfs_order(edges(state), order.__contains__, tie):
            if to not in order:
                order[to] = len(states)
                states.append(to)
            transitions.append((frm, a, order[to]))
    transitions.sort()
    payloads = None if g.payloads is None else tuple(map(g.payloads.__getitem__, states))
    return ControlGraph(len(states), 0, tuple(transitions), payloads, g.actions)


def renumber_bfs(g: ControlGraph) -> ControlGraph:
    """Renumber reachable states in breadth-first discovery order.

    Successors are visited in action order with payload-content ties (or
    old ids when payloads are gone), so the numbering depends only on the
    graph's content, not on the order of its transitions.  A run is keyed
    only when two or more of its successors have no number yet, each state
    at most once.  Unreachable states are dropped.  Every graph the
    pipeline returns is numbered so; the closures emit this order directly.
    """
    return number_bfs(g, g.init, g.edge_rows().__getitem__)


def find_cycle(starts, successors) -> list | None:
    """The first cycle a depth-first search meets, closed ``[n, ..., n]``.

    Searches from each of ``starts`` in turn, skipping nodes an earlier
    start has finished, and visits each node's successors in the order
    the mapping ``successors`` lists them (none when it has no entry).
    Iterative, so the path length is not bounded by the interpreter's
    recursion limit.  Returns None when there is no cycle.
    """
    ON_TRAIL, FINISHED = 1, 2
    state: dict = {}
    for start in starts:
        if start in state:
            continue
        state[start] = ON_TRAIL
        trail = [start]
        pending = [iter(successors.get(start, ()))]
        while pending:
            for succ in pending[-1]:
                seen = state.get(succ)
                if seen == ON_TRAIL:
                    return trail[trail.index(succ) :] + [succ]
                if seen is None:
                    state[succ] = ON_TRAIL
                    trail.append(succ)
                    pending.append(iter(successors.get(succ, ())))
                    break
            else:
                pending.pop()
                state[trail.pop()] = FINISHED
    return None
