"""Derivation rules and raw control graph construction.

``enabled_steps`` returns every transition derivable from a configuration
(link map, residual activity); ``build_raw_cg`` closes it breadth-first
from the initial configuration.  The step relation:

* an atomic activity whose join evaluates true fires its action, sets its
  outgoing links true and reduces to nil;
* any record activity whose join evaluates false is cancelled silently,
  setting the outgoing links of its whole subtree false (dead-path
  elimination);
* a flow propagates steps of its children, silently drops finished
  children, and when reduced to a single nil child ticks its own outgoing
  links;
* a pick propagates a step of one branch head, cancelling the outgoing
  links of every other branch, and continues with that branch wrapped in
  a flow carrying the pick's control fields.  The links of the other
  branches are the pick's strict sources less the branch's own: a
  well-formed activity declares each link as a source once, and the
  links ``$seq`` desugaring adds are fresh;
* a repeat steps either through its do part (entering an unfolding that
  remembers the iteration body) or through its until part (leaving the
  loop); a finished unfolding silently resets the do part's internal
  links and reinstates the repeat.

Joins that are still undefined block the activity; sequences must have
been desugared beforehand.
"""

from __future__ import annotations

from collections import deque

from .control import (
    Action,
    ControlGraph,
    LinkMap,
    TAU,
    action_of,
    eval_join,
    find_cycle,
    initial_link_map,
    renumber_bfs,
    state_key,
)
from .syntax import (
    Activity,
    Flo,
    Inv,
    NIL,
    Nil,
    Pic,
    Rec,
    Rep,
    Seq,
    Ses,
    Unf,
    all_sources,
    all_targets,
    subacts,
)
from .wellformed import desugar_seq

Step = tuple[Action, LinkMap, Activity]
State = tuple[LinkMap, Activity]


class StateCapExceeded(Exception):
    def __init__(self, cap: int):
        super().__init__(f"state count exceeded the safety cap of {cap}")
        self.cap = cap


class _Memo:
    """Per-build caches: derived steps per configuration, interned nodes.

    Interning makes equal residuals the same object, so state lookups
    compare by identity instead of walking trees.
    """

    __slots__ = ("steps", "nodes")

    def __init__(self):
        self.steps: dict = {}
        self.nodes: dict = {}

    def intern(self, node: Activity) -> Activity:
        return self.nodes.setdefault(node, node)


def enabled_steps(c: LinkMap, act: Activity) -> list[Step]:
    """Every derivable transition from (c, act), deduplicated.

    Ordered by action, then by the successor's ``state_key``.
    """
    return sorted(_steps(c, act, _Memo()), key=lambda s: (s[0].sort_key(), state_key(s[1:])))


def _steps(c: LinkMap, act: Activity, cache: _Memo) -> tuple[Step, ...]:
    """Memoized step derivation.

    Interleaving states of a flow recompute the very same child
    configurations over and over; the per-build cache makes each distinct
    (link map, residual) pair cost one derivation.  The lookup is inline,
    so the recursion over a nested tree takes one frame per level.
    """
    key = (c, act)
    hit = cache.steps.get(key)
    if hit is not None:
        return hit
    if isinstance(act, Nil):
        return ()
    if isinstance(act, Seq):
        raise ValueError("sequences must be desugared before compilation")

    verdict = eval_join(c, act.jcd, act.tgt)
    if verdict is None:
        cache.steps[key] = ()
        return ()
    if verdict is False:
        # Dead-path elimination cancels the whole subtree.
        result = cache.steps[key] = ((TAU, c.set_links(False, all_sources(act)), NIL),)
        return result

    steps: list[Step] = []
    match act:
        case Ses() | Inv() | Rec():
            steps.append((action_of(act), c.set_links(True, act.src), NIL))
        case Flo(children, tgt, src, jcd, lnk):
            if len(children) == 1 and isinstance(children[0], Nil):
                steps.append((TAU, c.set_links(True, src), NIL))
            else:
                for i, child in enumerate(children):
                    if isinstance(child, Nil):
                        rest = children[:i] + children[i + 1 :]
                        succ = cache.intern(Flo(rest, tgt, src, jcd, lnk))
                        steps.append((TAU, c, succ))
                        continue
                    for action, c2, residual in _steps(c, child, cache):
                        body = children[:i] + (residual,) + children[i + 1 :]
                        succ = cache.intern(Flo(body, tgt, src, jcd, lnk))
                        steps.append((action, c2, succ))
        case Pic(branches, tgt, src, jcd):
            sources = all_sources(act, strict=True)
            for head, cont in branches:
                cancelled = sources - all_sources(head) - all_sources(cont)
                for action, c2, residual in _steps(c, head, cache):
                    assert isinstance(residual, Nil)
                    succ = cache.intern(Flo((cont,), tgt, src, jcd))
                    steps.append((action, c2.set_links(False, cancelled), succ))
        case Rep(do_pic, until_pic, tgt, src, jcd):
            for action, c2, residual in _steps(c, do_pic, cache):
                succ = cache.intern(Unf(residual, do_pic, until_pic, tgt, src, jcd))
                steps.append((action, c2, succ))
            for action, c2, residual in _steps(c, until_pic, cache):
                succ = cache.intern(Flo((residual,), tgt, src, jcd))
                steps.append((action, c2, succ))
        case Unf(body, do_pic, until_pic, tgt, src, jcd):
            if isinstance(body, Nil):
                c2 = c.set_links(None, all_sources(do_pic, strict=True))
                c2 = c2.set_links(None, all_targets(do_pic, strict=True))
                c2 = c2.set_links(True, do_pic.src)
                succ = cache.intern(Rep(do_pic, until_pic, tgt, src, jcd))
                steps.append((TAU, c2, succ))
            else:
                for action, c2, residual in _steps(c, body, cache):
                    succ = cache.intern(Unf(residual, do_pic, until_pic, tgt, src, jcd))
                    steps.append((action, c2, succ))
        case _:
            raise TypeError(f"not an activity: {act!r}")

    result = cache.steps[key] = tuple(dict.fromkeys(steps))
    return result


DEFAULT_STATE_CAP = 1_000_000


def _closure(act: Activity, max_states: int, stage: str) -> ControlGraph:
    """The closure behind the ``build_<stage>_cg`` of "raw", "prio" or "compress"."""
    root = desugar_seq(act)
    cache = _Memo()
    for node in subacts(root).values():
        cache.intern(node)
    ends: dict[State, State] = {}

    def normal_form(state: State) -> State:
        """Where a state's silent steps lead, chasing the least successor.

        Silent steps are confluent and terminate, so every silent path
        from a state ends in the same state; taking the successor with the
        least ``state_key`` fixes the states passed through.  ``ends`` maps
        each of them to that endpoint; the cap counts all of them, so a
        silent loop stops at the cap instead of spinning.
        """
        if stage != "compress":
            return state
        path = []
        while state not in ends:
            if len(ends) + len(path) >= max_states:
                raise StateCapExceeded(max_states)
            steps = _steps(state[0], state[1], cache)
            silent = [step[1:] for step in steps if step[0] == TAU]
            if not silent:
                ends[state] = state
                break
            path.append(state)
            state = min(silent, key=state_key)
        end = ends[state]
        for visited in path:
            ends[visited] = end
        return end

    start = normal_form((initial_link_map(root), root))
    index: dict[State, int] = {start: 0}
    payloads: list[State] = [start]
    transitions: list[tuple[int, Action, int]] = []
    queue: deque[State] = deque([start])

    while queue:
        state = queue.popleft()
        sid = index[state]
        steps = _steps(state[0], state[1], cache)
        if stage != "raw":
            taus = [s for s in steps if s[0] == TAU]
            steps = taus or steps
        for action, c2, residual in steps:
            succ = normal_form((c2, residual))
            to = index.get(succ)
            if to is None:
                if len(index) >= max_states:
                    raise StateCapExceeded(max_states)
                to = len(index)
                index[succ] = to
                payloads.append(succ)
                queue.append(succ)
            transitions.append((sid, action, to))

    cache.steps.clear()  # free the derivations before renumbering allocates
    return renumber_bfs(ControlGraph(len(index), 0, tuple(transitions), tuple(payloads)))


def build_raw_cg(act: Activity, max_states: int = DEFAULT_STATE_CAP) -> ControlGraph:
    """Breadth-first closure of the step relation from the initial state.

    Sequences are desugared first; the initial link map covers every link
    of the desugared tree.  States keep their (link map, residual) payload
    and are numbered by ``renumber_bfs``.
    """
    return _closure(act, max_states, "raw")


def build_prioritized_cg(
    act: Activity, max_states: int = DEFAULT_STATE_CAP
) -> ControlGraph:
    """Closure with silent steps given priority during exploration.

    At any configuration with a silent step, observable alternatives are
    not even expanded.  Produces exactly the prioritized stage of the
    pipeline (they are asserted equal in the tests) while sidestepping the
    interleaving explosion the priority rule exists to avoid.
    """
    return _closure(act, max_states, "prio")


def build_compressed_cg(
    act: Activity, max_states: int = DEFAULT_STATE_CAP
) -> ControlGraph:
    """Closure that follows one silent step per state.

    The start state and every successor are chased along the silent
    step to the successor with the least ``state_key`` until a state
    without one; only those states are indexed and their observable
    steps expanded.  Gives the compressed stage: it equals
    ``tau_compress`` of the prioritized graph (asserted in the tests)
    without building any silent interleaving.
    ``max_states`` counts every state passed through, chased or indexed.
    """
    return _closure(act, max_states, "compress")


def state_upper_bound(act: Activity) -> int:
    """Structural bound on the raw state count, on the desugared form."""

    def ub(node: Activity) -> int:
        match node:
            case Nil():
                return 1
            case Ses() | Inv() | Rec():
                return 2
            case Flo(children):
                product = 1
                for child in children:
                    product *= ub(child) + 1
                return product + 1
            case Pic(branches):
                return sum(ub(cont) + 2 for _, cont in branches) + 1
            case Rep(do_pic, until_pic):
                return ub(do_pic) + ub(until_pic) + 1
            case Seq():
                raise AssertionError("unreachable: desugared first")
            case Unf():
                raise ValueError("no structural bound for running unfoldings")
        raise TypeError(f"not an activity: {node!r}")

    return ub(desugar_seq(act))


# --------------------------------------------------------------------------
# Structural properties of raw graphs


def find_tau_cycle(g: ControlGraph) -> list[int] | None:
    """A cycle made only of silent transitions, or None."""
    tau_out: dict[int, list[int]] = {}
    for frm, action, to in g.transitions:
        if action == TAU:
            tau_out.setdefault(frm, []).append(to)
    return find_cycle(sorted(tau_out), tau_out)


def find_confluence_violation(g: ControlGraph):
    """Exhaustively check the one-step commutation of silent transitions.

    For every pair of distinct transitions g -τ-> g1 and g -σ-> g2 out of
    the same state there must be a state g' with g1 -σ-> g' and g2 -τ-> g'.
    Returns (state, g1, action, g2) for the first failure, else None.
    """
    out = g.outgoing()
    edge_sets = [frozenset(edges) for edges in out]
    for state in g.states:
        taus = [to for action, to in out[state] if action == TAU]
        if not taus:
            continue
        for g1 in taus:
            for action, g2 in out[state]:
                if action == TAU and g2 == g1:
                    continue
                joined = any(
                    (TAU, target) in edge_sets[g2]
                    for a, target in out[g1]
                    if a == action
                )
                if not joined:
                    return (state, g1, action, g2)
    return None


def find_sink_shape_violation(g: ControlGraph):
    """Sinks must hold a nil residual and every state must reach a sink."""
    if g.payloads is not None:
        for state in g.sinks():
            _, residual = g.payloads[state]
            if not isinstance(residual, Nil):
                return ("non-nil sink", state)
    reaches: set[int] = set(g.sinks())
    incoming: dict[int, set[int]] = {}
    for frm, _, to in g.transitions:
        incoming.setdefault(to, set()).add(frm)
    queue = deque(reaches)
    while queue:
        node = queue.popleft()
        for prev in incoming.get(node, ()):
            if prev not in reaches:
                reaches.add(prev)
                queue.append(prev)
    for state in g.states:
        if state not in reaches:
            return ("sink unreachable from state", state)
    return None


def check_raw_properties(act: Activity, g: ControlGraph) -> list[str]:
    """Violations of the structural guarantees of raw graphs, as messages."""
    problems = []
    bound = state_upper_bound(act)
    if g.num_states > bound:
        problems.append(f"state count {g.num_states} exceeds structural bound {bound}")
    cycle = find_tau_cycle(g)
    if cycle is not None:
        problems.append(f"silent cycle through states {cycle}")
    violation = find_confluence_violation(g)
    if violation is not None:
        state, g1, action, g2 = violation
        problems.append(
            f"silent step at state {state} (to {g1}) does not commute with "
            f"{action.render()} (to {g2})"
        )
    shape = find_sink_shape_violation(g)
    if shape is not None:
        problems.append(f"{shape[0]}: {shape[1]}")
    return problems
