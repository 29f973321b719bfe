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


def _keep_highest(g: ControlGraph, rank, out) -> ControlGraph:
    """Keep, at every state, only the outgoing transitions of highest rank.

    ``out`` is ``g.edge_rows()``; states made unreachable by the pruning are dropped.
    """
    ranks = list(map(rank, g.actions))

    def highest(state: int) -> list:
        best = max((ranks[a] for a, _ in out[state]), default=None)
        return [edge for edge in out[state] if ranks[edge[0]] == best]

    return number_bfs(g, g.init, highest)


def _mixed_states(g: ControlGraph, rank, out) -> list[int]:
    """States whose outgoing transitions (``out``, ``g.edge_rows()``) have more than one rank."""
    ranks = list(map(rank, g.actions))
    return [s for s, edges in enumerate(out) if len({ranks[a] for a, _ in edges}) > 1]


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
    return _keep_highest(g, _is_tau, g.edge_rows())


def tau_compress(g: ControlGraph) -> ControlGraph:
    """Collapse every maximal silent path onto its endpoint.

    Expects a prioritized graph.  Since silent steps commute and
    terminate, all silent paths from a state end in the same observable
    (or sink) state; the chase follows the least-numbered successor, which
    reaches that endpoint deterministically.
    """
    out = g.edge_rows()
    mixed = _mixed_states(g, _is_tau, out)
    problem = silent_cycle_problem(g) or (_MIXED.format(mixed[0]) if mixed else None)
    if problem is not None:
        raise TransformPreconditionError(f"tau_compress: {problem}")
    return _compress(g, out)


def _compress(g: ControlGraph, out) -> ControlGraph:
    """``tau_compress`` of ``g``, with edge rows ``out``, its preconditions met."""
    ends: dict[int, int] = {}

    def endpoint(state: int) -> int:
        chased = []
        while state not in ends:
            taus = [to for a, to in out[state] if not a]  # τ is action 0
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
        (a, endpoint(to)) for a, to in out[state]
    ))


def run_to_completion(g: ControlGraph) -> ControlGraph:
    """Keep only the highest-priority class of transitions at every state.

    Priority: silent > send > session-init > receive.  States made
    unreachable by the pruning are dropped.
    """
    return _keep_highest(g, action_priority, g.edge_rows())


# --------------------------------------------------------------------------
# Strong bisimulation minimization (iterative partition refinement)


def refine_partition(g: ControlGraph) -> list[int]:
    """Coarsest strong-bisimulation partition; returns block id per state."""
    out = g.edge_rows()
    block = [0] * g.num_states
    while True:
        signatures: dict[tuple, int] = {}
        new_block = [0] * g.num_states
        for state in g.states:
            sig_body = frozenset((a, block[to]) for a, to in out[state])
            sig = (block[state], sig_body)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[state] = signatures[sig]
        if new_block == block:
            return block
        block = new_block


def minimize(g: ControlGraph) -> ControlGraph:
    """Quotient by strong bisimulation; requires a silent-free graph."""
    if any(not a for _, a, _ in g.edges):  # τ is action 0
        raise TransformPreconditionError(
            "minimize expects a graph without silent transitions"
        )
    block = refine_partition(g)
    edges = tuple({(block[f], a, block[t]) for f, a, t in g.edges})
    n_blocks = max(block) + 1 if g.num_states else 0
    return renumber_bfs(ControlGraph(n_blocks, block[g.init], edges, actions=g.actions))


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
    payloads it has.  The raw route stops at "raw" when the prioritized
    graph has a silent cycle, which no compression can chase to an end.
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage '{upto}', expected one of {STAGES}")
    last = STAGES.index(upto)
    if from_raw or upto == "raw":
        return _raw_route(act, last, max_states)[0]
    stages: dict[str, ControlGraph] = {}
    if upto == "prio":
        stages["prio"] = build_prioritized_cg(act, max_states)
    elif upto == "compress":
        stages["compress"] = build_compressed_cg(act, max_states)
    else:
        stages["rtc"] = compiler._closure(act, max_states, "rtc")
    if last >= 4:
        stages["min"] = minimize(stages["rtc"])
    return stages


def _raw_route(act: Activity, last: int, max_states: int) -> tuple[dict, tuple | None]:
    """The raw route's stages up to ``STAGES[last]`` and what checking them reuses:
    raw's edge rows and silent cycle and prio's edge rows, each found once."""
    raw = build_raw_cg(act, max_states)
    if last == 0:
        return {"raw": raw}, None
    out, silent = raw.edge_rows(), silent_cycle_problem(raw)
    prio = _keep_highest(raw, _is_tau, out)
    stages, scans = {"raw": raw, "prio": prio}, (out, silent, prio.edge_rows())
    if last >= 2:
        # Prio's silent edges are raw's, so only a raw silent cycle can leave
        # one in prio; prio is homogeneous, so only that stops compression.
        if silent is not None and silent_cycle_problem(prio) is not None:
            return {"raw": raw}, scans
        stages["compress"] = _compress(prio, scans[2])
    if last >= 3:
        stages["rtc"] = run_to_completion(stages["compress"])
    if last >= 4:
        stages["min"] = minimize(stages["rtc"])
    return stages, scans


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
    ``build_stages(act, from_raw=True)``: the raw graph alone when it has a
    silent cycle, which is then the only stage reported.
    """
    raw = stages["raw"]
    return _stage_reports(act, stages, raw.edge_rows(), silent_cycle_problem(raw))


def check_properties(act: Activity, max_states: int = DEFAULT_STATE_CAP):
    """``build_stages(act, from_raw=True)`` and its ``check_stage_invariants`` as
    ``(stages, reports)``, the checks reusing the route's scans (``_raw_route``)."""
    stages, scans = _raw_route(act, STAGES.index("min"), max_states)
    return stages, _stage_reports(act, stages, *scans)


def _stage_reports(act: Activity, stages: dict, out, cycle, prio_out=None) -> list[StageReport]:
    """``check_stage_invariants`` given raw's edge rows and silent cycle and prio's rows."""
    reports = [StageReport("raw", tuple(compiler._raw_problems(act, stages["raw"], out, cycle)))]
    if len(stages) == 1:
        return reports

    prio_out = stages["prio"].edge_rows() if prio_out is None else prio_out
    problems = [_MIXED.format(s) for s in _mixed_states(stages["prio"], _is_tau, prio_out)]
    reports.append(StageReport("prio", tuple(problems)))

    silent = any(not a for _, a, _ in stages["compress"].edges)  # τ is action 0
    problems = ["silent transition survived compression"] if silent else []
    reports.append(StageReport("compress", tuple(problems)))

    problems = [
        f"state {state} keeps several priority classes"
        for state in _mixed_states(stages["rtc"], action_priority, stages["rtc"].edge_rows())
    ]
    reports.append(StageReport("rtc", tuple(problems)))

    minimal = stages["min"]
    problems = []
    if len(set(refine_partition(minimal))) != minimal.num_states:
        problems.append("minimized graph still has equivalent states")
    if len(minimal.sinks()) != 1:
        problems.append(f"minimized graph has {len(minimal.sinks())} sinks")
    reports.append(StageReport("min", tuple(problems)))
    return reports
