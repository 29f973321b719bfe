"""Control link maps, join evaluation and the control graph structure.

Link values are ``True``, ``False`` or ``None`` (undefined).  Graph states
are dense integers numbered in a deterministic breadth-first order, so the
same input always yields bit-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .syntax import (
    Activity,
    And,
    JoinExpr,
    LinkRef,
    Lit,
    Not,
    Or,
    all_links,
    join_links,
    structure_key,
)

LinkValue = bool | None

_VALUE_RANK = {None: 0, False: 1, True: 2}


@dataclass(frozen=True)
class LinkMap:
    """Immutable map from link names to link values, sorted by name."""

    entries: tuple[tuple[str, LinkValue], ...]

    @classmethod
    def fresh(cls, links) -> "LinkMap":
        return cls(tuple((name, None) for name in sorted(links)))

    @classmethod
    def of(cls, mapping: dict[str, LinkValue]) -> "LinkMap":
        return cls(tuple(sorted(mapping.items())))

    def domain(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entries)

    def _dict(self) -> dict[str, LinkValue]:
        d = self.__dict__.get("_d")
        if d is None:
            d = dict(self.entries)
            object.__setattr__(self, "_d", d)
        return d

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_h", h)
        return h

    def get(self, link: str) -> LinkValue:
        return self._dict()[link]

    def as_dict(self) -> dict[str, LinkValue]:
        return dict(self.entries)

    def set_links(self, value: LinkValue, links) -> "LinkMap":
        wanted = set(links)
        if not wanted:
            return self
        d = self._dict()
        outside = [name for name in wanted if name not in d]
        if outside:
            raise ValueError(
                "links outside the map domain: " + ", ".join(sorted(outside))
            )
        return LinkMap(
            tuple(
                (name, value if name in wanted else old)
                for name, old in self.entries
            )
        )

    def true_links(self) -> frozenset[str]:
        return frozenset(n for n, v in self.entries if v is True)

    def sort_key(self) -> tuple:
        key = self.__dict__.get("_sk")
        if key is None:
            key = tuple(_VALUE_RANK[value] for _, value in self.entries)
            object.__setattr__(self, "_sk", key)
        return key

    def __str__(self) -> str:
        def show(v: LinkValue) -> str:
            return "?" if v is None else ("T" if v else "F")

        return "{" + ", ".join(f"{n}={show(v)}" for n, v in self.entries) + "}"


def initial_link_map(act: Activity) -> LinkMap:
    """Map over every link occurring in the tree, all undefined."""
    return LinkMap.fresh(all_links(act))


def _join_links_cached(expr: JoinExpr) -> frozenset[str]:
    links = expr.__dict__.get("_links")
    if links is None:
        links = join_links(expr)
        object.__setattr__(expr, "_links", links)
    return links


def eval_join(c: LinkMap, expr: JoinExpr, targets) -> LinkValue:
    """Evaluate a join condition over the given incoming-link set.

    The evaluation is undefined (``None``) while any incoming link is
    undefined, even if the expression does not mention it.  Referencing a
    link outside the incoming set is a contract violation.
    """
    stray = _join_links_cached(expr) - frozenset(targets)
    if stray:
        raise ValueError(
            "join condition references links outside the tgt set: "
            + ", ".join(sorted(stray))
        )
    values = c._dict()
    for link in targets:
        if values[link] is None:
            return None

    def ev(e: JoinExpr) -> bool:
        match e:
            case Lit(value):
                return value
            case LinkRef(name):
                return bool(values[name])
            case And(left, right):
                return ev(left) and ev(right)
            case Or(left, right):
                return ev(left) or ev(right)
            case Not(operand):
                return not ev(operand)
        raise TypeError(f"not a join expression: {e!r}")

    return ev(expr)


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


# --------------------------------------------------------------------------
# Control graphs

Transition = tuple[int, Action, int]
Payload = tuple[LinkMap, Activity]


class StateEdges(NamedTuple):
    """The outgoing edges of one state, sorted by ``(action.sort_key(), to)``.

    ``all`` holds every edge; the other fields hold the same edges split by
    action class, each in that order.
    """

    all: tuple[tuple[Action, int], ...]
    ses_inits: tuple[tuple[SesInit, int], ...]
    sends: tuple[tuple[Send, int], ...]
    recvs: tuple[tuple[Recv, int], ...]


def _state_edges(out: list[tuple[Action, int]]) -> StateEdges:
    edges = tuple(sorted(out, key=lambda e: (e[0].sort_key(), e[1])))

    def of(cls) -> tuple:
        return tuple(e for e in edges if isinstance(e[0], cls))

    return StateEdges(edges, of(SesInit), of(Send), of(Recv))


@dataclass(frozen=True)
class ControlGraph:
    """Labelled transition system over symbolic actions.

    States are ``0..num_states-1``; raw graphs keep the (link map,
    residual activity) payload per state, transformed graphs may drop it.
    """

    num_states: int
    init: int
    transitions: tuple[Transition, ...]
    payloads: tuple[Payload, ...] | None = None

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((self.num_states, self.init, self.transitions))
            object.__setattr__(self, "_h", h)
        return h

    @property
    def states(self) -> range:
        return range(self.num_states)

    def successor_table(self) -> tuple[StateEdges, ...]:
        """Per state, its sorted outgoing edges split by action class.

        Built from ``outgoing()`` on the first call and cached on the graph
        (graphs are immutable), so later calls cost one lookup.  The table
        is shared by every caller and must not be mutated.
        """
        table = self.__dict__.get("_succ")
        if table is None:
            table = tuple(_state_edges(out) for out in self.outgoing())
            object.__setattr__(self, "_succ", table)
        return table

    def outgoing(self) -> list[list[tuple[Action, int]]]:
        table: list[list[tuple[Action, int]]] = [[] for _ in self.states]
        for frm, action, to in self.transitions:
            table[frm].append((action, to))
        return table

    def sinks(self) -> list[int]:
        has_out = [False] * self.num_states
        for frm, _, _ in self.transitions:
            has_out[frm] = True
        return [s for s in self.states if not has_out[s]]

    def without_payloads(self) -> "ControlGraph":
        if self.payloads is None:
            return self
        return ControlGraph(self.num_states, self.init, self.transitions)


def _transition_key(t: Transition) -> tuple:
    return (t[0], t[1].sort_key(), t[2])


def sorted_transitions(transitions) -> tuple[Transition, ...]:
    return tuple(sorted(transitions, key=_transition_key))


def renumber_bfs(g: ControlGraph) -> ControlGraph:
    """Renumber reachable states in breadth-first discovery order.

    Successors are visited in action order with payload-content ties (or
    old ids when payloads are gone), so the numbering depends only on the
    graph's content; unreachable states are dropped.
    """
    from collections import deque

    if g.payloads is not None:
        payload_keys = [
            (c.sort_key(), structure_key(act)) for c, act in g.payloads
        ]

        def edge_key(edge):
            return (edge[0].sort_key(), payload_keys[edge[1]])

    else:

        def edge_key(edge):
            return (edge[0].sort_key(), edge[1])

    out = g.outgoing()
    order: dict[int, int] = {g.init: 0}
    queue = deque([g.init])
    while queue:
        state = queue.popleft()
        for action, to in sorted(out[state], key=edge_key):
            if to not in order:
                order[to] = len(order)
                queue.append(to)
    transitions = sorted_transitions(
        (order[f], a, order[t])
        for f, a, t in g.transitions
        if f in order and t in order
    )
    payloads = None
    if g.payloads is not None:
        inverse = {new: old for old, new in order.items()}
        payloads = tuple(g.payloads[inverse[i]] for i in range(len(order)))
    return ControlGraph(len(order), 0, transitions, payloads)
