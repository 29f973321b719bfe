"""Derivation rules and raw control graph construction.

``enabled_steps`` returns every transition derivable from a configuration
(link map, residual activity); ``build_raw_cg`` closes it breadth-first
from the initial configuration, over one compilation's integer tables
(``_Build``), emitting states in their final numbering.  The prioritized,
compressed and run-to-completion closures prune or chase the same steps
as they expand; the last two drop a flow's finished child in the step
that finishes it, which the silent drop below would reach.  The step
relation:

* an atomic activity whose join evaluates true fires its action, sets its
  outgoing links true and reduces to nil;
* any record activity whose join evaluates false is cancelled silently,
  setting the outgoing links of its whole subtree false (dead-path
  elimination);
* a flow propagates steps of its children, silently drops finished
  children, and when reduced to a single nil child ticks its own outgoing
  links; every rule changes the residual, so only a pick can derive one
  step twice, and only a pick de-duplicates its steps;
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

from .control import (
    Action,
    ControlGraph,
    LinkMap,
    action_of,
    action_priority,
    action_table,
    bfs_order,
    eval_join,
    find_cycle,
    join_holds,
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
    TRUE,
    Unf,
    all_sources,
    all_targets,
    fresh,
    structure_key,
    subacts,
)
from .wellformed import desugar_seq

State = tuple[int, int]  # (link map no., residual no.) in one _Build


class StateCapExceeded(Exception):
    def __init__(self, cap: int):
        super().__init__(f"state count exceeded the safety cap of {cap}")
        self.cap = cap


class _Build:
    """The integer tables of one compilation.

    Link maps are numbered by their ``codes``, residuals by a canonical
    key: a flow by (number of its control fields, its children's
    numbers), an unfolding by (number of the repeat it unfolds, its
    body's number), any other node, which is a part of the input tree,
    by value.  So equal residuals are one number and one object, and a
    derived residual is built only when its key is new.  Actions are
    numbered by the action table of ``root``'s atoms.  With ``drop`` set,
    a flow's child that steps to nil leaves the flow in that step.
    """

    def __init__(self, c: LinkMap | None, root: Activity, drop: bool = False):
        subs = subacts(root).values()  # one walk for the map and the table
        if c is None:  # initial_link_map(root)
            c = LinkMap.of(dict.fromkeys(set().union(*(s.src | s.tgt | s.lnk for s in subs))))
        self.drop = drop
        self.maps, self.map_nos, self.links = [c], {c.codes: 0}, {}
        self.nodes, self.keys, self.node_nos, self.fields = [], [], {}, {}
        self.picks, self.steps, self.joins = {}, {}, {}  # per pick its parts; _derive's memo
        self.actions = action_table(filter(None, map(action_of, subs)))
        self.ids, self.index = {a: i for i, a in enumerate(self.actions)}, c.index
        self.nil = self.number(NIL)

    def join(self, r: int) -> tuple:
        """Node ``r``'s targets' positions, join and action id; its contract checked."""
        act = self.nodes[r]
        if act.jcd is not TRUE:  # which reads no link
            eval_join(self.maps[0], act.jcd, act.tgt)  # raises on a link outside the targets
        targets = tuple(self.index[link] for link in act.tgt)
        self.joins[r] = join = (targets, act.jcd, self.ids.get(action_of(act)))
        return join

    def control(self, act: Activity) -> int:
        """The number of ``act``'s control fields, as a flow's."""
        return self.fields.setdefault((act.tgt, act.src, act.jcd, act.lnk), len(self.fields))

    def number(self, node: Activity, key=None) -> int:
        """The number of ``node``; ``key`` is given for a derived residual."""
        if key is None:
            key = node
            if isinstance(node, Flo):
                key = (self.control(node), tuple(map(self.number, node.children)))
            elif isinstance(node, Unf):
                rep = Rep(node.do_pic, node.until_pic, node.tgt, node.src, node.jcd)
                key = (self.number(rep), self.number(node.body))
        no = self.node_nos.setdefault(key, len(self.nodes))
        if no == len(self.nodes):
            self.nodes.append(node)
            self.keys.append(key)
        return no

    def flow(self, r: int, ctl: int, kids: tuple[int, ...]) -> int:
        """The flow of ``kids`` with node ``r``'s control fields (and join), numbered ``ctl``."""
        no = self.node_nos.get((ctl, kids))
        if no is None:
            like, children = self.nodes[r], tuple(map(self.nodes.__getitem__, kids))
            node = fresh(Flo, children=children, tgt=like.tgt, src=like.src, jcd=like.jcd,
                         lnk=like.lnk)
            no = self.number(node, (ctl, kids))
            self.joins[no] = self.joins.get(r)
        return no

    def unfold(self, rep: int, body: int) -> int:
        no = self.node_nos.get((rep, body))
        if no is None:
            r = self.nodes[rep]
            node = fresh(Unf, body=self.nodes[body], do_pic=r.do_pic, until_pic=r.until_pic,
                         tgt=r.tgt, src=r.src, jcd=r.jcd)
            no = self.number(node, (rep, body))
            self.joins[no] = self.joins.get(rep)
        return no

    def set_links(self, m: int, value, links) -> int:
        key = (m, value, links)
        no = self.links.get(key)
        if no is None:
            c = self.maps[m].set_links(value, links)
            no = self.links[key] = self.map_nos.setdefault(c.codes, len(self.maps))
            if no == len(self.maps):
                self.maps.append(c)
        return no

    def pick(self, r: int) -> list:
        """Per branch of pick ``r``: its head, wrapped continuation and cancelled links."""
        if r not in self.picks:
            act, parts = self.nodes[r], []
            sources = all_sources(act, strict=True)
            for head, cont in act.branches:
                wrap = self.flow(r, self.control(act), (self.number(cont),))
                cancelled = sources - all_sources(head) - all_sources(cont)
                parts.append((self.number(head), wrap, cancelled))
            self.picks[r] = parts
        return self.picks[r]


def enabled_steps(c: LinkMap, act: Activity) -> list[tuple[Action, LinkMap, Activity]]:
    """Every derivable transition from (c, act), deduplicated, ordered by
    action, then by the successor's ``state_key``, which is taken only for
    the successors of an action with more than one step."""
    b = _Build(c, act)
    edges = [(a, (b.maps[m], b.nodes[r])) for a, m, r in _derive(b, 0, b.number(act))]
    return [(b.actions[a], *succ) for a, succ in bfs_order(edges, lambda _: False, state_key)]


def _derive(b: _Build, m: int, r: int) -> tuple[tuple[int, int, int], ...]:
    """The steps ``(action id, link map no., residual no.)`` of state (m, r).

    Memoized per build, as interleavings meet the same child states over
    and over; the lookup is inline, so the recursion takes one frame per level.
    """
    key = (m, r)
    hit = b.steps.get(key)
    if hit is not None:
        return hit
    act = b.nodes[r]
    if isinstance(act, Nil):
        return ()
    if isinstance(act, Seq):
        raise ValueError("sequences must be desugared before compilation")

    targets, jcd, aid = b.joins.get(r) or b.join(r)
    codes = b.maps[m].codes
    if not all(map(codes.__getitem__, targets)):  # an undefined target blocks the join
        b.steps[key] = ()
        return ()
    nil = b.nil
    if jcd is not TRUE and not join_holds(jcd, codes, b.index):
        # Dead-path elimination cancels the whole subtree (τ is action 0).
        result = b.steps[key] = ((0, b.set_links(m, False, all_sources(act)), nil),)
        return result

    steps: list[tuple[int, int, int]] = []
    match act:  # flows first: most steps are a flow's
        case Flo():
            ctl, kids = b.keys[r]
            if kids == (nil,):
                steps.append((0, b.set_links(m, True, act.src), nil))
            else:
                # Leaving a finished child out in its own step takes the
                # silent drop of its nil at once, so the endpoint stays
                # (silent steps are confluent); a last child stays to tick.
                drop, memo, node_nos = b.drop and len(kids) > 1, b.steps, b.node_nos
                for i, kid in enumerate(kids):
                    before, after = kids[:i], kids[i + 1 :]
                    if kid == nil:
                        # Dropping either of two adjacent nils gives one successor.
                        if not (i and kids[i - 1] == nil):
                            steps.append((0, m, b.flow(r, ctl, before + after)))
                        continue
                    for action, m2, r2 in memo.get((m, kid)) or _derive(b, m, kid):
                        kids2 = before + after if drop and r2 == nil else before + (r2,) + after
                        succ = node_nos.get((ctl, kids2))
                        steps.append((action, m2, b.flow(r, ctl, kids2) if succ is None else succ))
        case Ses() | Inv() | Rec():
            steps.append((aid, b.set_links(m, True, act.src), nil))
        case Pic():
            for head, wrap, cancelled in b.pick(r):
                for action, m2, r2 in _derive(b, m, head):
                    assert r2 == nil
                    steps.append((action, b.set_links(m2, False, cancelled), wrap))
            # Every rule changes the residual, so a flow's steps through
            # different children differ, and the other rules map their
            # part's steps one to one: only a pick's branches can meet.
            steps = list(dict.fromkeys(steps))
        case Rep():
            for action, m2, r2 in _derive(b, m, b.number(act.do_pic)):
                steps.append((action, m2, b.unfold(r, r2)))
            for action, m2, r2 in _derive(b, m, b.number(act.until_pic)):
                steps.append((action, m2, b.flow(r, b.control(act), (r2,))))
        case Unf(do_pic=do):
            rep, body = b.keys[r]
            if body == nil:
                m2 = b.set_links(m, None, all_sources(do, strict=True))
                m2 = b.set_links(m2, None, all_targets(do, strict=True))
                steps.append((0, b.set_links(m2, True, do.src), rep))
            else:
                for action, m2, r2 in _derive(b, m, body):
                    steps.append((action, m2, b.unfold(rep, r2)))
        case _:
            raise TypeError(f"not an activity: {act!r}")

    result = b.steps[key] = tuple(steps)
    return result


DEFAULT_STATE_CAP = 1_000_000


def _closure(act: Activity, max_states: int, stage: str) -> ControlGraph:
    """The closure behind the ``build_<stage>_cg`` of "raw", "prio" or "compress",
    or behind the "rtc" stage of ``build_stages``.

    States are numbered as they are first met, each state's successors
    visited in action order and then by ``state_key``: the order of
    ``renumber_bfs``, so the graph comes out in its final numbering.  A run
    of one action is keyed only when two or more of its successors have no
    number yet, each state at most once (``bfs_order``).
    "rtc" compresses as "compress" does and keeps, at each state, only
    the steps of its highest ``action_priority`` class before it chases
    them, which is ``run_to_completion`` of the compressed graph.  Both
    drop a flow's finished child in the step that finishes it.
    """
    root = desugar_seq(act)
    compressing = stage in ("compress", "rtc")
    b = _Build(None, root, drop=compressing)
    ends: dict[State, State] = {}

    def normal_form(state: State) -> State:
        """Where a state's silent steps lead, chasing the first one derived.

        Silent steps are confluent and terminate, so every silent path
        from a state ends in the same state (Newman's lemma), whichever
        step is taken.  ``ends`` maps each state passed through to that
        endpoint; the cap counts all of them.  A chase that meets a state
        twice is in a silent loop, which only the cap would end: it raises at once.
        """
        path: dict[State, None] = {}
        while state not in ends:
            if state in path or len(ends) + len(path) >= max_states:
                raise StateCapExceeded(max_states)
            silent = next((step[1:] for step in _derive(b, *state) if not step[0]), None)
            if silent is None:
                ends[state] = state
                break
            path[state] = None
            state = silent
        ends.update(dict.fromkeys(path, ends[state]))
        return ends[state]

    start = (0, b.number(root))
    states: list[State] = [normal_form(start) if compressing else start]
    index: dict[State, int] = {states[0]: 0}
    transitions: list[tuple[int, int, int]] = []
    tie = lambda s: (b.maps[s[0]].sort_key(), structure_key(b.nodes[s[1]]))
    rank = list(map(action_priority, b.actions))
    for sid, state in enumerate(states):  # the queue: found states are appended
        steps = _derive(b, *state)
        if stage == "prio":  # a compressing closure's states have no silent step
            steps = [s for s in steps if not s[0]] or steps
        elif stage == "rtc" and steps:
            top = max(rank[s[0]] for s in steps)
            steps = [s for s in steps if rank[s[0]] == top]
        if compressing:
            edges = []  # a loop, not a comprehension: one frame less above normal_form
            for step in steps:
                edges.append((step[0], normal_form(step[1:])))
            edges = list(dict.fromkeys(edges))  # steps of one action may meet at one endpoint
        else:
            edges = [(step[0], step[1:]) for step in steps]
        for a, succ in bfs_order(edges, index.__contains__, tie):
            if succ not in index:
                if len(states) >= max_states:
                    raise StateCapExceeded(max_states)
                index[succ] = len(states)
                states.append(succ)
            transitions.append((sid, a, index[succ]))

    b.steps.clear()  # free the derivations before the payloads and the sort allocate
    payloads = tuple((b.maps[m], b.nodes[r]) for m, r in states)
    transitions.sort()
    return ControlGraph(len(states), 0, tuple(transitions), payloads, b.actions)


def build_raw_cg(act: Activity, max_states: int = DEFAULT_STATE_CAP) -> ControlGraph:
    """Breadth-first closure of the step relation from the initial state.

    Sequences are desugared first; the initial link map covers every link
    of the desugared tree.  States keep their (link map, residual) payload
    and come numbered in ``renumber_bfs`` order.
    """
    return _closure(act, max_states, "raw")


def build_prioritized_cg(act: Activity, max_states: int = DEFAULT_STATE_CAP) -> ControlGraph:
    """Closure with silent steps given priority during exploration.

    At any configuration with a silent step, observable alternatives are
    not even expanded.  Produces exactly the prioritized stage of the
    pipeline (they are asserted equal in the tests) while sidestepping the
    interleaving explosion the priority rule exists to avoid.
    """
    return _closure(act, max_states, "prio")


def build_compressed_cg(act: Activity, max_states: int = DEFAULT_STATE_CAP) -> ControlGraph:
    """Closure that follows one silent step per state.

    The start state and every successor are chased along their first
    silent step until a state without one; only those states are indexed
    and their observable steps expanded, in the order of the least
    ``state_key``.  Gives the compressed stage: it equals
    ``tau_compress`` of the prioritized graph (asserted in the tests)
    without building any silent interleaving.
    ``max_states`` counts every state passed through, chased or indexed.
    """
    return _closure(act, max_states, "compress")


def state_upper_bound(act: Activity) -> int:
    """Structural bound on the raw state count, on the desugared form."""
    return _upper_bound(desugar_seq(act))


def _upper_bound(node: Activity) -> int:
    match node:
        case Nil():
            return 1
        case Ses() | Inv() | Rec():
            return 2
        case Flo(children):
            product = 1
            for child in children:
                product *= _upper_bound(child) + 1
            return product + 1
        case Pic(branches):
            return sum(_upper_bound(cont) + 2 for _, cont in branches) + 1
        case Rep(do_pic, until_pic):
            return _upper_bound(do_pic) + _upper_bound(until_pic) + 1
        case Seq():
            raise AssertionError("unreachable: desugared first")
        case Unf():
            raise ValueError("no structural bound for running unfoldings")
    raise TypeError(f"not an activity: {node!r}")


# --------------------------------------------------------------------------
# Structural properties of raw graphs


def find_tau_cycle(g: ControlGraph) -> list[int] | None:
    """A cycle made only of silent transitions, or None."""
    tau_out: dict[int, list[int]] = {}
    for frm, a, to in g.edges:
        if not a:  # τ is action 0
            tau_out.setdefault(frm, []).append(to)
    return find_cycle(sorted(tau_out), tau_out)


def silent_cycle_problem(g: ControlGraph) -> str | None:
    """A silent cycle of ``g`` as a message, or None."""
    cycle = find_tau_cycle(g)
    return None if cycle is None else f"silent cycle through states {cycle}"


_NO_TARGETS: frozenset[int] = frozenset()


def find_confluence_violation(g: ControlGraph, out=None):
    """Exhaustively check the one-step commutation of silent transitions.

    For every pair of distinct transitions g -τ-> g1 and g -σ-> g2 out of
    the same state there must be a state g' with g1 -σ-> g' and g2 -τ-> g'.
    Returns (state, g1, action, g2) for the first failure, else None.
    ``out`` is ``g.edge_rows()``, built here when not given.

    The pair is joined when g1's σ-successors meet g2's silent successors.
    Both tables are filled on first use: a state's silent successors as a
    set (one shared empty set for the states without any), and a silent
    target's successors grouped by action, kept only until its last silent
    predecessor is scanned, so large graphs do not hold a group per state.
    """
    out = g.edge_rows() if out is None else out
    unscanned = [0] * g.num_states  # silent predecessors not yet scanned
    for _, a, to in g.edges:
        if not a:  # τ is action 0
            unscanned[to] += 1
    silent: list[frozenset[int] | None] = [None] * g.num_states
    after: dict[int, dict[int, list[int]]] = {}
    for state in g.states:
        edges = out[state]
        for g1 in [to for a, to in edges if not a]:
            unscanned[g1] -= 1
            moves = after.get(g1) if unscanned[g1] else after.pop(g1, None)
            if moves is None:
                moves = {}
                for a, target in out[g1]:
                    moves.setdefault(a, []).append(target)
                if unscanned[g1]:
                    after[g1] = moves
            for a, g2 in edges:
                if g2 == g1 and not a:
                    continue
                closing = silent[g2]
                if closing is None:
                    closing = silent[g2] = (
                        frozenset(to for b, to in out[g2] if not b) or _NO_TARGETS
                    )
                if closing.isdisjoint(moves.get(a, ())):
                    return (state, g1, g.actions[a], g2)
    return None


def confluence_problem(g: ControlGraph, out=None) -> str | None:
    """The first silent step of ``g`` that does not commute, as a message, or None."""
    violation = find_confluence_violation(g, out)
    if violation is None:
        return None
    state, g1, action, g2 = violation
    return (f"silent step at state {state} (to {g1}) does not commute with "
            f"{action.render()} (to {g2})")


def find_sink_shape_violation(g: ControlGraph):
    """Sinks must hold a nil residual and every state must reach a sink."""
    reaches = g.sinks()
    for state in reaches if g.payloads is not None else ():
        if not isinstance(g.payloads[state][1], Nil):
            return ("non-nil sink", state)
    incoming: list[list[int]] = [[] for _ in g.states]
    for frm, _, to in g.edges:
        incoming[to].append(frm)
    seen = set(reaches)
    for node in reaches:  # grows while it is walked: breadth first
        for prev in incoming[node]:
            if prev not in seen:
                seen.add(prev)
                reaches.append(prev)
    return next((("sink unreachable from state", s) for s in g.states if s not in seen), None)


def check_raw_properties(act: Activity, g: ControlGraph) -> list[str]:
    """Violations of the structural guarantees of raw graphs, as messages."""
    return _raw_problems(act, g, g.edge_rows(), silent_cycle_problem(g))


def _raw_problems(act: Activity, g: ControlGraph, out, silent: str | None) -> list[str]:
    """``check_raw_properties`` given ``g``'s edge rows and ``silent_cycle_problem(g)``."""
    problems = []
    bound = state_upper_bound(act)
    if g.num_states > bound:
        problems.append(f"state count {g.num_states} exceeds structural bound {bound}")
    problems += filter(None, (silent, confluence_problem(g, out)))
    shape = find_sink_shape_violation(g)
    if shape is not None:
        problems.append(f"{shape[0]}: {shape[1]}")
    return problems
