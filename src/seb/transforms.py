"""Pipeline from the raw control graph to the minimal one.

Order: silent-step prioritization, silent-step compression,
run-to-completion pruning, strong-equivalence minimization.  The first
two preserve branching equivalence and rely on the raw graph being free
of silent cycles and confluent; pruning deliberately discards schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import compiler
from .compiler import (
    DEFAULT_STATE_CAP,
    build_compressed_cg,
    build_prioritized_cg,
    build_raw_cg,
    check_raw_properties,
    confluence_problem,
    silent_cycle_problem,
)
from .control import (
    Action,
    ControlGraph,
    Tau,
    action_priority,
    number_bfs,
    renumber_bfs,
)
from .syntax import Activity


class TransformPreconditionError(Exception):
    pass


def _is_tau(action: Action) -> bool:
    return type(action) is Tau


def _keep_highest(g: ControlGraph, rank) -> ControlGraph:
    """Keep, at every state, only the outgoing transitions of highest rank.

    States made unreachable by the pruning are dropped.
    """
    out = g.outgoing()

    def highest(state: int) -> list:
        best = max((rank(action) for action, _ in out[state]), default=None)
        return [(a, to) for a, to in out[state] if rank(a) == best]

    return number_bfs(g, g.init, highest)


def _mixed_states(g: ControlGraph, rank) -> list[int]:
    """States whose outgoing transitions have more than one rank."""
    return [
        state
        for state, edges in enumerate(g.outgoing())
        if len({rank(action) for action, _ in edges}) > 1
    ]


_MIXED = "state {} mixes silent and observable transitions"


def tau_prioritize(g: ControlGraph) -> ControlGraph:
    """Give silent transitions priority over observable ones.

    In the result every state is homogeneous: either all its outgoing
    transitions are silent or none is.  Because the silent transitions of
    the input commute with everything and cannot loop, dropping the
    observable alternatives preserves branching equivalence.
    """
    problem = silent_cycle_problem(g) or confluence_problem(g)
    if problem is not None:
        raise TransformPreconditionError(f"tau_prioritize: {problem}")
    return _keep_highest(g, _is_tau)


def tau_compress(g: ControlGraph) -> ControlGraph:
    """Collapse every maximal silent path onto its endpoint.

    Expects a prioritized graph.  Since silent steps commute and
    terminate, all silent paths from a state end in the same observable
    (or sink) state; the chase follows the least-numbered successor, which
    reaches that endpoint deterministically.
    """
    mixed = _mixed_states(g, _is_tau)
    problem = silent_cycle_problem(g) or (_MIXED.format(mixed[0]) if mixed else None)
    if problem is not None:
        raise TransformPreconditionError(f"tau_compress: {problem}")
    out = g.outgoing()
    ends: dict[int, int] = {}

    def endpoint(state: int) -> int:
        chased = []
        while state not in ends:
            taus = [to for action, to in out[state] if type(action) is Tau]
            if not taus:
                ends[state] = state
                break
            chased.append(state)
            state = min(taus)
        ends.update(dict.fromkeys(chased, ends[state]))
        return ends[state]

    # An endpoint has no silent edge, the input being homogeneous; two of
    # its edges with one action may reach one endpoint, listed once.
    return number_bfs(g, endpoint(g.init), lambda state: dict.fromkeys(
        (action, endpoint(to)) for action, to in out[state]
    ))


def run_to_completion(g: ControlGraph) -> ControlGraph:
    """Keep only the highest-priority class of transitions at every state.

    Priority: silent > send > session-init > receive.  States made
    unreachable by the pruning are dropped.
    """
    return _keep_highest(g, action_priority)


# --------------------------------------------------------------------------
# Strong bisimulation minimization (iterative partition refinement)


def refine_partition(g: ControlGraph) -> list[int]:
    """Coarsest strong-bisimulation partition; returns block id per state."""
    out = g.outgoing()
    block = [0] * g.num_states
    while True:
        signatures: dict[tuple, int] = {}
        new_block = [0] * g.num_states
        for state in g.states:
            sig_body = frozenset((action, block[to]) for action, to in out[state])
            sig = (block[state], sig_body)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[state] = signatures[sig]
        if new_block == block:
            return block
        block = new_block


def minimize(g: ControlGraph) -> ControlGraph:
    """Quotient by strong bisimulation; requires a silent-free graph."""
    if any(type(action) is Tau for _, action, _ in g.transitions):
        raise TransformPreconditionError(
            "minimize expects a graph without silent transitions"
        )
    block = refine_partition(g)
    transitions = tuple({(block[f], a, block[t]) for f, a, t in g.transitions})
    n_blocks = max(block) + 1 if g.num_states else 0
    quotient = ControlGraph(n_blocks, block[g.init], transitions)
    return renumber_bfs(quotient)


# --------------------------------------------------------------------------
# Whole pipeline

STAGES = ("raw", "prio", "compress", "rtc", "min")


def build_stages(
    act: Activity,
    upto: str = "min",
    *,
    from_raw: bool = False,
    max_states: int = DEFAULT_STATE_CAP,
) -> dict[str, ControlGraph]:
    """Build each stage up to ``upto`` once, in order; return them by name.

    The raw closure runs only when ``upto`` is "raw" or ``from_raw`` is
    set; every later stage is then pruned, compressed or minimized from
    the one before.  Otherwise one closure builds the stage asked for:
    "prio" the fused one, which never expands the successors
    prioritization would discard, "compress" the compressing one, which
    follows one silent step per state, and "rtc" and "min" the one that
    also keeps a state's highest priority class as it expands it, so
    neither "prio" nor "compress" is built on the way.  Both routes give
    the same graphs (asserted in the tests).  Every stage keeps the
    payloads it has.
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage '{upto}', expected one of {STAGES}")
    last = STAGES.index(upto)
    stages: dict[str, ControlGraph] = {}
    if from_raw or upto == "raw":
        stages["raw"] = build_raw_cg(act, max_states)
        if last >= 1:
            stages["prio"] = _keep_highest(stages["raw"], _is_tau)
        if last >= 2:
            stages["compress"] = tau_compress(stages["prio"])
        if last >= 3:
            stages["rtc"] = run_to_completion(stages["compress"])
    elif upto == "prio":
        stages["prio"] = build_prioritized_cg(act, max_states)
    elif upto == "compress":
        stages["compress"] = build_compressed_cg(act, max_states)
    else:
        stages["rtc"] = compiler._closure(act, max_states, "rtc")
    if last >= 4:
        stages["min"] = minimize(stages["rtc"])
    return stages


# --------------------------------------------------------------------------
# Stage invariants


@dataclass(frozen=True)
class StageReport:
    stage: str
    problems: tuple[str, ...]


def check_stage_invariants(
    act: Activity, stages: dict[str, ControlGraph]
) -> list[StageReport]:
    """Verify each stage's structural guarantee.

    ``stages`` holds every stage of ``act``, as built by
    ``build_stages(act, from_raw=True)``.
    """
    reports = [StageReport("raw", tuple(check_raw_properties(act, stages["raw"])))]

    problems = [_MIXED.format(state) for state in _mixed_states(stages["prio"], _is_tau)]
    reports.append(StageReport("prio", tuple(problems)))

    problems = []
    if any(type(a) is Tau for _, a, _ in stages["compress"].transitions):
        problems.append("silent transition survived compression")
    reports.append(StageReport("compress", tuple(problems)))

    problems = [
        f"state {state} keeps several priority classes"
        for state in _mixed_states(stages["rtc"], action_priority)
    ]
    reports.append(StageReport("rtc", tuple(problems)))

    minimal = stages["min"]
    problems = []
    block = refine_partition(minimal)
    if len(set(block)) != minimal.num_states:
        problems.append("minimized graph still has equivalent states")
    if len(minimal.sinks()) != 1:
        problems.append(f"minimized graph has {len(minimal.sinks())} sinks")
    reports.append(StageReport("min", tuple(problems)))
    return reports
