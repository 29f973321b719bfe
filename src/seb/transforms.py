"""Pipeline from the raw control graph to the minimal one.

Order: silent-step prioritization, silent-step compression,
run-to-completion pruning, strong-equivalence minimization.  The first
two preserve branching equivalence and rely on the raw graph being free
of silent cycles and confluent; pruning deliberately discards schedules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .compiler import (
    build_prioritized_cg,
    build_raw_cg,
    check_raw_properties,
    find_confluence_violation,
    find_tau_cycle,
)
from .control import (
    Action,
    ControlGraph,
    Recv,
    Send,
    SesInit,
    TAU,
    Tau,
    renumber_bfs,
    sorted_transitions,
)
from .syntax import Activity


class TransformPreconditionError(Exception):
    pass


def _is_tau(action: Action) -> bool:
    return action == TAU


def _keep_highest(g: ControlGraph, rank) -> ControlGraph:
    """Keep, at every state, only the outgoing transitions of highest rank.

    States made unreachable by the pruning are dropped.
    """
    out = g.outgoing()
    kept = []
    for state in g.states:
        if out[state]:
            best = max(rank(action) for action, _ in out[state])
            kept += [(state, a, to) for a, to in out[state] if rank(a) == best]
    return renumber_bfs(
        ControlGraph(g.num_states, g.init, sorted_transitions(kept), g.payloads)
    )


def _mixed_states(g: ControlGraph, rank) -> list[int]:
    """States whose outgoing transitions have more than one rank."""
    return [
        state
        for state, edges in enumerate(g.outgoing())
        if len({rank(action) for action, _ in edges}) > 1
    ]


def tau_prioritize(g: ControlGraph, validate: bool = True) -> ControlGraph:
    """Give silent transitions priority over observable ones.

    In the result every state is homogeneous: either all its outgoing
    transitions are silent or none is.  Because the silent transitions of
    the input commute with everything and cannot loop, dropping the
    observable alternatives preserves branching equivalence.
    """
    if validate:
        cycle = find_tau_cycle(g)
        if cycle is not None:
            raise TransformPreconditionError(
                f"tau_prioritize: input contains a silent cycle through states {cycle}"
            )
        violation = find_confluence_violation(g)
        if violation is not None:
            state, g1, action, g2 = violation
            raise TransformPreconditionError(
                f"tau_prioritize: silent step {state}->{g1} does not commute with "
                f"{action.render()} {state}->{g2}"
            )
    return _keep_highest(g, _is_tau)


def tau_compress(g: ControlGraph) -> ControlGraph:
    """Collapse every maximal silent path onto its endpoint.

    Expects a prioritized graph.  Since silent steps commute and
    terminate, all silent paths from a state end in the same observable
    (or sink) state; the chase follows the least-numbered successor, which
    reaches that endpoint deterministically.
    """
    cycle = find_tau_cycle(g)
    if cycle is not None:
        raise TransformPreconditionError(
            f"tau_compress: silent cycle through states {cycle}"
        )
    mixed = _mixed_states(g, _is_tau)
    if mixed:
        raise TransformPreconditionError(
            f"tau_compress: state {mixed[0]} mixes silent and observable transitions"
        )
    out = g.outgoing()

    @functools.lru_cache(maxsize=None)
    def endpoint(state: int) -> int:
        taus = sorted(to for action, to in out[state] if action == TAU)
        if not taus:
            return state
        return endpoint(taus[0])

    new_init = endpoint(g.init)
    transitions = []
    for frm, action, to in g.transitions:
        if action == TAU:
            continue
        if endpoint(frm) == frm:
            transitions.append((frm, action, endpoint(to)))
    return renumber_bfs(
        ControlGraph(g.num_states, new_init, sorted_transitions(transitions), g.payloads)
    )


_PRIORITY = {Tau: 3, Send: 2, SesInit: 1, Recv: 0}


def action_priority(action: Action) -> int:
    return _PRIORITY[type(action)]


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
    if any(action == TAU for _, action, _ in g.transitions):
        raise TransformPreconditionError(
            "minimize expects a graph without silent transitions"
        )
    block = refine_partition(g)
    transitions = sorted_transitions(
        {(block[f], a, block[t]) for f, a, t in g.transitions}
    )
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
    max_states: int | None = None,
) -> dict[str, ControlGraph]:
    """Build each stage up to ``upto`` once, in order; return them by name.

    The raw closure runs only when ``upto`` is "raw" or ``from_raw`` is
    set, and the prioritized stage is then pruned from it.  Otherwise the
    fused construction builds that stage without ever expanding the
    successors prioritization would discard; both give the same graph
    (asserted in the tests).  Every stage keeps the payloads it has.
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage '{upto}', expected one of {STAGES}")
    kwargs = {} if max_states is None else {"max_states": max_states}
    stages: dict[str, ControlGraph] = {}
    if upto == "raw" or from_raw:
        stages["raw"] = build_raw_cg(act, **kwargs)
    if upto == "raw":
        return stages
    if from_raw:
        g = tau_prioritize(stages["raw"], validate=False)
    else:
        g = build_prioritized_cg(act, **kwargs)
    stages["prio"] = g
    # Named per call, so wrappers installed on this module (as the
    # benchmark's tracer does) see every stage.
    reductions = (tau_compress, run_to_completion, minimize)
    for name, reduce in zip(STAGES[2 : STAGES.index(upto) + 1], reductions):
        g = stages[name] = reduce(g)
    return stages


def compile_stages(
    act: Activity,
    upto: str = "min",
    *,
    keep_payloads: bool = False,
    max_states: int | None = None,
) -> ControlGraph:
    """The control graph of one stage of the pipeline.

    Payloads are dropped from the result unless ``keep_payloads``;
    minimization always discards them because it merges states that
    differ only by payload.
    """
    g = build_stages(act, upto, max_states=max_states)[upto]
    return g if keep_payloads else g.without_payloads()


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

    problems = [
        f"state {state} mixes silent and observable transitions"
        for state in _mixed_states(stages["prio"], _is_tau)
    ]
    reports.append(StageReport("prio", tuple(problems)))

    problems = []
    if any(a == TAU for _, a, _ in stages["compress"].transitions):
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
