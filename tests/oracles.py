"""Independent reference implementations used only to check the library.

Nothing here shares code with the package's step derivation or
transforms: the step interpreter below works on plain dicts and was
written directly from the derivation rules; the equivalence checkers are
classic partition refinements.  The unreduced and symmetric explorers
share the configuration step relation with the package, because what
they check is the package's reduction of the explored space.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from seb.control import TAU, Action, ControlGraph, Recv, Send, SesInit, state_key
from seb.syntax import (
    Activity,
    And,
    Flo,
    Inv,
    LinkRef,
    Lit,
    Nil,
    Not,
    Or,
    Pic,
    Rec,
    Rep,
    Seq,
    Ses,
    TRUE,
    Unf,
)

# --------------------------------------------------------------------------
# Reference step interpreter (dict link maps, label strings)


def _jls(e):
    if isinstance(e, Lit):
        return set()
    if isinstance(e, LinkRef):
        return {e.name}
    if isinstance(e, Not):
        return _jls(e.operand)
    return _jls(e.left) | _jls(e.right)


def _jeval(c, e):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, LinkRef):
        return c[e.name]
    if isinstance(e, And):
        return _jeval(c, e.left) and _jeval(c, e.right)
    if isinstance(e, Or):
        return _jeval(c, e.left) or _jeval(c, e.right)
    if isinstance(e, Not):
        return not _jeval(c, e.operand)
    raise TypeError(e)


def _join(c, act):
    """None (blocked), or the boolean verdict of the join."""
    for link in act.tgt:
        if c[link] is None:
            return None
    return _jeval(c, act.jcd)


def _subtree_srcs(act):
    if isinstance(act, Nil):
        return set()
    srcs = set(act.src)
    if isinstance(act, (Seq, Flo)):
        for child in act.children:
            srcs |= _subtree_srcs(child)
    elif isinstance(act, Pic):
        for head, cont in act.branches:
            srcs |= _subtree_srcs(head) | _subtree_srcs(cont)
    elif isinstance(act, Rep):
        srcs |= _subtree_srcs(act.do_pic) | _subtree_srcs(act.until_pic)
    elif isinstance(act, Unf):
        srcs |= (
            _subtree_srcs(act.body)
            | _subtree_srcs(act.do_pic)
            | _subtree_srcs(act.until_pic)
        )
    return srcs


def _subtree_tgts(act):
    if isinstance(act, Nil):
        return set()
    tgts = set(act.tgt)
    for child in _children(act):
        tgts |= _subtree_tgts(child)
    return tgts


def _children(act):
    if isinstance(act, (Seq, Flo)):
        return list(act.children)
    if isinstance(act, Pic):
        return [x for pair in act.branches for x in pair]
    if isinstance(act, Rep):
        return [act.do_pic, act.until_pic]
    if isinstance(act, Unf):
        return [act.body, act.do_pic, act.until_pic]
    return []


def _label(action_kind, s, op=None, names=()):
    if action_kind == "tau":
        return "tau"
    if action_kind == "init":
        return f"{s}@{op}"
    mark = "!" if action_kind == "send" else "?"
    return f"{s}{mark}{op}({','.join(names)})"


def oracle_steps(c: dict, act: Activity) -> list[tuple[str, dict, Activity]]:
    """All transitions of (c, act) as (label, new map, residual)."""
    if isinstance(act, Nil):
        return []
    verdict = _join(c, act)
    if verdict is None:
        return []
    out = []
    if verdict is False:
        c2 = dict(c)
        for link in _subtree_srcs(act):
            c2[link] = False
        return [("tau", c2, Nil())]

    def ticked(links):
        c2 = dict(c)
        for link in links:
            c2[link] = True
        return c2

    if isinstance(act, Ses):
        out.append((_label("init", act.s, act.p), ticked(act.src), Nil()))
    elif isinstance(act, Inv):
        out.append((_label("send", act.s, act.op, act.args), ticked(act.src), Nil()))
    elif isinstance(act, Rec):
        out.append((_label("recv", act.s, act.op, act.params), ticked(act.src), Nil()))
    elif isinstance(act, Flo):
        kids = act.children
        if len(kids) == 1 and isinstance(kids[0], Nil):
            out.append(("tau", ticked(act.src), Nil()))
        else:
            for i, kid in enumerate(kids):
                if isinstance(kid, Nil):
                    out.append(
                        (
                            "tau",
                            dict(c),
                            Flo(kids[:i] + kids[i + 1 :], act.tgt, act.src, act.jcd, act.lnk),
                        )
                    )
                else:
                    for label, c2, res in oracle_steps(c, kid):
                        out.append(
                            (
                                label,
                                c2,
                                Flo(
                                    kids[:i] + (res,) + kids[i + 1 :],
                                    act.tgt,
                                    act.src,
                                    act.jcd,
                                    act.lnk,
                                ),
                            )
                        )
    elif isinstance(act, Pic):
        for i, (head, cont) in enumerate(act.branches):
            for label, c2, res in oracle_steps(c, head):
                assert isinstance(res, Nil)
                c3 = dict(c2)
                for j, (other_head, other_cont) in enumerate(act.branches):
                    if i == j:
                        continue
                    for link in _subtree_srcs(other_head) | _subtree_srcs(other_cont):
                        c3[link] = False
                out.append((label, c3, Flo((cont,), act.tgt, act.src, act.jcd)))
    elif isinstance(act, Rep):
        for label, c2, res in oracle_steps(c, act.do_pic):
            out.append(
                (label, c2, Unf(res, act.do_pic, act.until_pic, act.tgt, act.src, act.jcd))
            )
        for label, c2, res in oracle_steps(c, act.until_pic):
            out.append((label, c2, Flo((res,), act.tgt, act.src, act.jcd)))
    elif isinstance(act, Unf):
        if isinstance(act.body, Nil):
            c2 = dict(c)
            for link in _subtree_srcs(act.do_pic) - set(act.do_pic.src):
                c2[link] = None
            for link in _subtree_tgts(act.do_pic) - set(act.do_pic.tgt):
                c2[link] = None
            for link in act.do_pic.src:
                c2[link] = True
            out.append(
                ("tau", c2, Rep(act.do_pic, act.until_pic, act.tgt, act.src, act.jcd))
            )
        else:
            for label, c2, res in oracle_steps(c, act.body):
                out.append(
                    (
                        label,
                        c2,
                        Unf(res, act.do_pic, act.until_pic, act.tgt, act.src, act.jcd),
                    )
                )
    else:
        raise TypeError(act)
    # distinct derivations may coincide (e.g. removing either of two nils)
    seen = {}
    for label, c2, res in out:
        seen[(label, tuple(sorted(c2.items(), key=lambda kv: (kv[0], str(kv[1])))), res)] = (
            label,
            c2,
            res,
        )
    return list(seen.values())


def _occurring_links(act):
    if isinstance(act, Nil):
        return set()
    links = set(act.tgt) | set(act.src) | set(getattr(act, "lnk", frozenset()))
    for child in _children(act):
        links |= _occurring_links(child)
    return links


def oracle_graph(act: Activity):
    """Brute-force closure; states keyed by (map items, residual activity).

    A residual hashes and compares by structure, so it identifies a state
    exactly as its printed form would.

    Returns (state count, transition count, labeled transition list with
    dense ids in discovery order).
    """
    c0 = {link: None for link in _occurring_links(act)}

    def key(c, a):
        return (tuple(sorted(c.items(), key=lambda kv: (kv[0], str(kv[1])))), a)

    start = (c0, act)
    ids = {key(*start): 0}
    queue = deque([start])
    transitions = []
    while queue:
        c, a = queue.popleft()
        sid = ids[key(c, a)]
        for label, c2, res in oracle_steps(c, a):
            k = key(c2, res)
            if k not in ids:
                ids[k] = len(ids)
                queue.append((c2, res))
            transitions.append((sid, label, ids[k]))
    return len(ids), len(set(transitions)), sorted(set(transitions))


# --------------------------------------------------------------------------
# Trace enumeration


def complete_traces(g: ControlGraph, erase_tau: bool = True) -> set[tuple[str, ...]]:
    """All action-label sequences from the start to a sink (acyclic graphs)."""
    out = g.outgoing()
    sinks = set(g.sinks())
    traces: set[tuple[str, ...]] = set()

    def walk(state: int, prefix: tuple[str, ...], depth: int) -> None:
        if depth > g.num_states + 1:
            raise RuntimeError("cycle detected; complete_traces needs an acyclic graph")
        if state in sinks:
            traces.add(prefix)
            return
        for action, to in out[state]:
            if erase_tau and action == TAU:
                walk(to, prefix, depth + 1)
            else:
                walk(to, prefix + (action.render(tau="tau"),), depth + 1)

    walk(g.init, (), 0)
    return traces


# --------------------------------------------------------------------------
# Equivalence checkers (partition refinement on a disjoint union)


def _union(g1: ControlGraph, g2: ControlGraph):
    offset = g1.num_states
    edges = [(f, a, t) for f, a, t in g1.transitions]
    edges += [(f + offset, a, t + offset) for f, a, t in g2.transitions]
    n = g1.num_states + g2.num_states
    out = [[] for _ in range(n)]
    for f, a, t in edges:
        out[f].append((a, t))
    return n, out, g1.init, g2.init + offset


def strongly_bisimilar(g1: ControlGraph, g2: ControlGraph) -> bool:
    n, out, i1, i2 = _union(g1, g2)
    block = [0] * n
    while True:
        sigs = {}
        new = [0] * n
        for s in range(n):
            sig = (block[s], frozenset((a, block[t]) for a, t in out[s]))
            new[s] = sigs.setdefault(sig, len(sigs))
        if new == block:
            return block[i1] == block[i2]
        block = new


def branching_bisimilar(g1: ControlGraph, g2: ControlGraph) -> bool:
    """Branching bisimilarity of the initial states.

    Refines by the signature: observable (or block-changing silent) moves
    reachable through silent steps inside the current block.
    """
    n, out, i1, i2 = _union(g1, g2)
    block = [0] * n
    while True:
        sigs_table = {}
        new = [0] * n
        signatures = []
        for s in range(n):
            # states silently reachable without leaving s's block
            closure = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for a, t in out[u]:
                    if a == TAU and block[t] == block[s] and t not in closure:
                        closure.add(t)
                        stack.append(t)
            sig = set()
            for u in closure:
                for a, t in out[u]:
                    if a == TAU and block[t] == block[s]:
                        continue
                    sig.add((a, block[t]))
            signatures.append((block[s], frozenset(sig)))
        for s in range(n):
            new[s] = sigs_table.setdefault(signatures[s], len(sigs_table))
        if new == block:
            return block[i1] == block[i2]
        block = new


# --------------------------------------------------------------------------
# Random well-formed activity generation

SESSIONS = ("s", "r")
LOCATIONS = ("p", "q")
PAYLOAD = ("x", "y", "z")
OPS = ("a", "b", "c", "d")


class ActivityGenerator:
    """Deterministic generator of well-formed activities.

    Link wiring only ever connects direct children of a flow, which keeps
    scoping, unicity and acyclicity true by construction.  Pick heads and
    the picks of a repeat keep default control fields, matching the shape
    every example in the source language uses (exotic joins there would
    break the confluence the pipeline relies on).
    """

    def __init__(self, rng: random.Random, allow_rep: bool = True):
        self.rng = rng
        self.allow_rep = allow_rep
        self.link_counter = itertools.count()

    def atom(self) -> Activity:
        kind = self.rng.choice(("ses", "inv", "rec"))
        s = self.rng.choice(SESSIONS)
        if kind == "ses":
            return Ses(s, self.rng.choice(LOCATIONS))
        op = self.rng.choice(OPS)
        names = tuple(
            self.rng.sample(PAYLOAD, self.rng.randrange(0, 3))
        )
        return Inv(s, op, names) if kind == "inv" else Rec(s, op, names)

    def pic(self, depth: int) -> Pic:
        branches = []
        for _ in range(self.rng.randrange(1, 3)):
            head = Rec(
                self.rng.choice(SESSIONS),
                self.rng.choice(OPS),
                tuple(self.rng.sample(PAYLOAD, self.rng.randrange(0, 2))),
            )
            branches.append((head, self.activity(depth - 1)))
        return Pic(tuple(branches))

    def _wire_flo(self, children: list[Activity]) -> Flo:
        """Optionally add links between earlier and later children."""
        wirable = [i for i, c in enumerate(children) if not isinstance(c, Nil)]
        links: list[str] = []
        tgt_of: dict[int, set[str]] = {}
        src_of: dict[int, set[str]] = {}
        if len(wirable) >= 2:
            for _ in range(self.rng.randrange(0, 3)):
                i, j = sorted(self.rng.sample(wirable, 2))
                name = f"w{next(self.link_counter)}"
                links.append(name)
                src_of.setdefault(i, set()).add(name)
                tgt_of.setdefault(j, set()).add(name)
        wired = []
        for i, child in enumerate(children):
            tgt = frozenset(tgt_of.get(i, ()))
            src = frozenset(src_of.get(i, ()))
            if not tgt and not src:
                wired.append(child)
                continue
            jcd = self._random_join(tgt)
            wired.append(self._with_fields(child, tgt, src, jcd))
        return Flo(tuple(wired), lnk=frozenset(links))

    def _random_join(self, tgt: frozenset[str]):
        if not tgt or self.rng.random() < 0.3:
            return TRUE
        terms = [
            Not(LinkRef(n)) if self.rng.random() < 0.25 else LinkRef(n)
            for n in sorted(tgt)
        ]
        expr = terms[0]
        for term in terms[1:]:
            expr = And(expr, term) if self.rng.random() < 0.5 else Or(expr, term)
        return expr

    @staticmethod
    def _with_fields(act: Activity, tgt, src, jcd) -> Activity:
        if isinstance(act, Ses):
            return Ses(act.s, act.p, tgt, src, jcd)
        if isinstance(act, Inv):
            return Inv(act.s, act.op, act.args, tgt, src, jcd)
        if isinstance(act, Rec):
            return Rec(act.s, act.op, act.params, tgt, src, jcd)
        if isinstance(act, Seq):
            return Seq(act.children, tgt, src, jcd)
        if isinstance(act, Flo):
            return Flo(act.children, tgt, src, jcd, act.lnk)
        if isinstance(act, Pic):
            return Pic(act.branches, tgt, src, jcd)
        if isinstance(act, Rep):
            return Rep(act.do_pic, act.until_pic, tgt, src, jcd)
        raise TypeError(act)

    def activity(self, depth: int) -> Activity:
        if depth <= 0:
            return self.atom() if self.rng.random() < 0.9 else Nil()
        roll = self.rng.random()
        if roll < 0.35:
            return self.atom()
        if roll < 0.55:
            children = [
                self.activity(depth - 1) for _ in range(self.rng.randrange(1, 4))
            ]
            return Seq(tuple(children))
        if roll < 0.80:
            children = [
                self.activity(depth - 1) for _ in range(self.rng.randrange(1, 4))
            ]
            return self._wire_flo(children)
        if roll < 0.92 or not self.allow_rep:
            return self.pic(depth)
        return Rep(self.pic(depth - 1), self.pic(depth - 1))


def random_activity(seed: int, depth: int = 4, allow_rep: bool = True) -> Activity:
    gen = ActivityGenerator(random.Random(seed), allow_rep=allow_rep)
    return gen.activity(depth)


def small_random_activities(count: int, depth: int = 3, max_raw_states: int = 400):
    """Deterministic stream of activities whose raw graphs stay small.

    The expensive reference checks (naive equivalence refinements, brute
    enumeration) are only tractable on small graphs; seeds whose graph
    exceeds the cap are skipped deterministically.
    """
    from seb.compiler import StateCapExceeded, build_raw_cg

    found = 0
    seed = 0
    while found < count:
        act = random_activity(seed, depth=depth)
        seed += 1
        try:
            raw = build_raw_cg(act, max_states=max_raw_states)
        except StateCapExceeded:
            continue
        found += 1
        yield act, raw


def random_atomic_seq(seed: int, max_len: int = 5) -> Seq:
    """A plain sequence of atoms, the shape the reference trace covers."""
    gen = ActivityGenerator(random.Random(seed))
    n = gen.rng.randrange(1, max_len + 1)
    return Seq(tuple(gen.atom() for _ in range(n)))


def sequential_reference_trace(seq: Seq) -> tuple[str, ...]:
    """What running the atoms in order must produce."""
    labels = []
    for atom in seq.children:
        if isinstance(atom, Ses):
            labels.append(f"{atom.s}@{atom.p}")
        elif isinstance(atom, Inv):
            labels.append(f"{atom.s}!{atom.op}({','.join(atom.args)})")
        elif isinstance(atom, Rec):
            labels.append(f"{atom.s}?{atom.op}({','.join(atom.params)})")
        else:
            raise TypeError(atom)
    return tuple(labels)


# --------------------------------------------------------------------------
# Recursive cycle searches, as validation and the silent-cycle check ran
# them before both moved to one iterative search.  Their recursion depth
# follows the longest path, so keep the graphs given to them small.


def recursive_precedence_cycle(edges: dict) -> list | None:
    """The first cycle of ``edges`` (node -> successor set), closed, or None.

    Starts in sorted order, visits successors in sorted order and keeps
    the visited marks across starts.
    """
    state: dict = {}

    def on_cycle(path, trail: list):
        state[path] = 1
        trail.append(path)
        for succ in sorted(edges.get(path, ())):
            if state.get(succ, 0) == 1:
                return succ
            if state.get(succ, 0) == 0:
                found = on_cycle(succ, trail)
                if found is not None:
                    return found
        state[path] = 2
        trail.pop()
        return None

    for start in sorted(edges):
        if state.get(start, 0) == 0:
            trail: list = []
            entry = on_cycle(start, trail)
            if entry is not None:
                return trail[trail.index(entry) :] + [entry]
    return None


def recursive_tau_cycle(g: ControlGraph) -> list[int] | None:
    """A cycle made only of silent transitions, closed, or None."""
    tau_out: dict[int, list[int]] = {}
    for frm, action, to in g.transitions:
        if action == TAU:
            tau_out.setdefault(frm, []).append(to)

    state: dict[int, int] = {}
    trail: list[int] = []

    def dfs(node: int) -> list[int] | None:
        state[node] = 1
        trail.append(node)
        for succ in tau_out.get(node, ()):
            if state.get(succ, 0) == 1:
                return trail[trail.index(succ) :] + [succ]
            if state.get(succ, 0) == 0:
                found = dfs(succ)
                if found is not None:
                    return found
        state[node] = 2
        trail.pop()
        return None

    for start in sorted(tau_out):
        if state.get(start, 0) == 0:
            found = dfs(start)
            if found is not None:
                return found
    return None


def reference_confluence_violation(g: ControlGraph):
    """The first (state, g1, action, g2) whose silent step does not commute.

    The scan over edge sets that ``find_confluence_violation`` replaced:
    each pair of out-edges of a state, joined when some σ-successor of g1
    is a silent successor of g2.
    """
    out = g.outgoing()
    edge_sets = [frozenset(edges) for edges in out]
    for state in g.states:
        for g1 in [to for action, to in out[state] if action == TAU]:
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


# --------------------------------------------------------------------------
# Reference numbering


def reference_renumber_bfs(g: ControlGraph) -> ControlGraph:
    """Breadth-first renumbering that keys every successor.

    Each state's successors are sorted by ``(action.sort_key(),
    state_key(payload))``, whether or not they tie on the action or have
    a number already: the rule the closures and ``number_bfs`` must give
    while they take the key only on ties.  ``g`` must keep its payloads.
    """
    out: dict[int, list] = {state: [] for state in g.states}
    for frm, action, to in g.transitions:
        out[frm].append((action, to))
    order = {g.init: 0}
    queue = deque([g.init])
    transitions = []
    while queue:
        state = queue.popleft()
        for action, to in sorted(
            out[state], key=lambda e: (e[0].sort_key(), state_key(g.payloads[e[1]]))
        ):
            if to not in order:
                order[to] = len(order)
                queue.append(to)
            transitions.append((order[state], action, order[to]))
    transitions.sort(key=lambda t: (t[0], t[1].sort_key(), t[2]))
    payloads = tuple(g.payloads[state] for state in sorted(order, key=order.get))
    return ControlGraph(len(order), 0, tuple(transitions), payloads)


# --------------------------------------------------------------------------
# Wide inputs: many siblings, long link chains and long silent paths


def seq_of_invs(n: int) -> Seq:
    """A seq of ``n`` sibling ``(inv s a)``."""
    return Seq(tuple(Inv("s", "a") for _ in range(n)))


def linked_flo(n: int, ring: bool = False) -> Flo:
    """A flo of ``n`` ``(inv s a)``, each linked to the next.

    With ``ring`` the last one also links back to the first, which closes
    a precedence cycle through all ``n``.
    """
    links = [f"l{i}" for i in range(n if ring else n - 1)]
    children = []
    for i in range(n):
        src = frozenset([links[i]]) if i < len(links) else frozenset()
        tgt = frozenset([links[i - 1]]) if i > 0 or ring else frozenset()
        children.append(Inv("s", "a", (), tgt, src))
    return Flo(tuple(children), lnk=frozenset(links))


def pick_of_recs(n: int, linked: bool = False) -> Activity:
    """A pick of ``n`` branches ``(on (rec s a<i>) (inv s b<i>))``.

    With ``linked`` each head is the source of a link ``l<i>``, and the
    pick sits in a flo next to an ``(inv s after)`` that waits on every
    link and joins on ``l0``: it fires when branch 0 is taken and is
    skipped by dead-path elimination otherwise.  Only the cancellation of
    the untaken branches defines all of its links.
    """
    links = [f"l{i}" for i in range(n)] if linked else []
    pic = Pic(tuple(
        (Rec("s", f"a{i}", src=frozenset(links[i : i + 1])), Inv("s", f"b{i}"))
        for i in range(n)
    ))
    if not linked:
        return pic
    after = Inv("s", "after", tgt=frozenset(links), jcd=LinkRef("l0"))
    return Flo((pic, after), lnk=frozenset(links))


def silent_path(n: int) -> ControlGraph:
    """States ``0 -τ-> 1 -τ-> ... -τ-> n-1``."""
    return ControlGraph(n, 0, tuple((i, TAU, i + 1) for i in range(n - 1)))


def silent_ring(n: int) -> ControlGraph:
    """The silent path with its last state stepping back to state 0."""
    return ControlGraph(n, 0, tuple((i, TAU, (i + 1) % n) for i in range(n)))


# --------------------------------------------------------------------------
# Reference freeness: the forward antichain fixed point over bound sets


def action_bindings(action: Action) -> frozenset[str]:
    match action:
        case SesInit(s, _):
            return frozenset((s,))
        case Recv(_, _, params):
            return frozenset(params)
        case _:
            return frozenset()


def action_usages(action: Action) -> frozenset[str]:
    match action:
        case SesInit(_, p):
            return frozenset((p,))
        case Send(s, _, args):
            return frozenset((s,)) | frozenset(args)
        case Recv(s, _, _):
            return frozenset((s,))
        case _:
            return frozenset()


def reference_free_vars_of_graph(g: ControlGraph) -> frozenset[str]:
    """Variables used before being bound along some path from the start.

    A forward fixed point carries, per state, the antichain of minimal
    bound-variable sets over incoming paths; a use is free as soon as one
    carried set misses the variable (the definition is existential over
    paths, so smaller bound sets dominate larger ones).  Exponential in
    the number of independent choices between bindings, so only for
    small graphs.
    """
    out = g.outgoing()
    carried: list[set[frozenset[str]]] = [set() for _ in g.states]
    carried[g.init] = {frozenset()}
    free: set[str] = set()

    def add(state: int, bound: frozenset[str]) -> bool:
        sets = carried[state]
        if any(existing <= bound for existing in sets):
            return False
        for existing in [s for s in sets if bound < s]:
            sets.discard(existing)
        sets.add(bound)
        return True

    work = [g.init]
    while work:
        state = work.pop()
        for bound in list(carried[state]):
            for action, to in out[state]:
                free |= action_usages(action) - bound
                if add(to, bound | action_bindings(action)):
                    work.append(to)
    return frozenset(free)


# --------------------------------------------------------------------------
# Unreduced exploration and random manifests


def _explore_every_step(services, client, key_of, kept_queues, max_configs, max_queue_len):
    """Breadth-first safety check that expands every step of every configuration.

    ``key_of(config)`` tells visited configurations apart, and
    ``kept_queues(config, key)`` gives the queues that count towards
    ``max_queue_len``.  It shares the step relation and the one-step check
    with the package; only the reduction is under test.
    """
    from seb.configs import (
        Exhausted,
        Unsafe,
        Verified,
        make_initial_config,
        one_step_safe,
        successors,
    )

    initial = make_initial_config(services, client)
    start = key_of(initial)
    visited = {start: None}
    truncated = False

    def trace_to(key):
        trace = []
        while (reached := visited[key]) is not None:
            key, step = reached
            trace.append(step)
        return tuple(reversed(trace))

    frontier = [(initial, start)]
    while frontier:
        next_frontier = []
        for config, key in frontier:
            witness = one_step_safe(config)
            if witness is not None:
                return Unsafe(trace_to(key), witness, configurations=len(visited))
            for step in successors(config):
                succ = step.result
                if succ.fault is not None:
                    trace = trace_to(key) + (step,)
                    return Unsafe(trace, None, fault=succ.fault, configurations=len(visited))
                succ_key = key_of(succ)
                if succ_key in visited:
                    continue
                queues = kept_queues(succ, succ_key)
                if max((len(items) for _, items in queues), default=0) > max_queue_len:
                    truncated = True
                    continue
                if len(visited) >= max_configs:
                    return Exhausted(
                        len(visited), max_configs, max_queue_len, "configuration limit"
                    )
                visited[succ_key] = (key, step)
                next_frontier.append((succ, succ_key))
        frontier = next_frontier
    if truncated:
        return Exhausted(len(visited), max_configs, max_queue_len, "queue length limit")
    return Verified(len(visited))


def _commutes(inst) -> bool:
    """Whether every step ``inst`` can take commutes with every other actor's.

    True when all its current edges are session initiations (which commute
    up to symmetry), all are sends, or all are receptions on one variable.
    """
    edges = inst.edges.all
    first = edges[0][0]
    if isinstance(first, (SesInit, Send)):
        return all(isinstance(action, type(first)) for action, _, _ in edges)
    return isinstance(first, Recv) and all(
        isinstance(action, Recv) and action.s == first.s for action, _, _ in edges
    )


def reference_ample(config, steps) -> list[int] | None:
    """The indices in ``steps`` of one independent actor's steps, or None.

    ``steps`` are all the steps of ``config``.  The actor is the first, in
    step order, that is a service taking SES2 or an instance whose steps
    all commute with the others' (``_commutes``).  This is how
    ``configs.explore_safety`` chose the actor to expand alone before it
    read the choice off the configuration and built that actor's steps
    only.
    """
    for step in steps:
        who = step.who
        if step.rule == "SES2" or _commutes(config.instances[who[1]]):
            return [i for i, other in enumerate(steps) if other.who == who]
    return None


def unreduced_explore_safety(services, client, max_configs=100_000, max_queue_len=16):
    """Breadth-first safety check keyed by the concrete configurations.

    This is ``configs.explore_safety`` as it was before configurations
    were keyed by ``canonical_key``: nothing is forgotten, so finished
    instances and fresh session ids make configurations distinct, and
    every queue counts towards ``max_queue_len``.
    """
    return _explore_every_step(
        services, client, lambda config: config, lambda config, _: config.queues,
        max_configs, max_queue_len,
    )


def symmetric_explore_safety(services, client, max_configs=100_000, max_queue_len=16):
    """Breadth-first safety check keyed by ``canonical_key``, expanding every step.

    This is ``configs.explore_safety`` as it was before partial-order
    reduction: every successor of every configuration is visited, so its
    count is that of the whole symmetry-reduced space and its traces are
    shortest.  Only the queues the key keeps count towards
    ``max_queue_len``.
    """
    from seb.configs import canonical_key

    shapes = {}
    return _explore_every_step(
        services, client, lambda config: canonical_key(config, shapes),
        lambda _, key: key[-1], max_configs, max_queue_len,
    )


MESSAGE_OPS = ("a", "b", "c")


class ManifestGenerator:
    """Deterministic generator of small deployable manifests.

    Each service follows a random protocol on its root session: it starts
    by receiving the client's first message, then sends and receives in
    turn.  The client runs one to three sessions, in sequence or in
    parallel, each against a service drawn with replacement, so one
    service often spawns several instances.  A client session sends its
    first message right after the initiation, before any service can
    have consumed the request.  With some probability a client session
    gets one message wrong (operation or arity), which usually makes the
    manifest unsafe; a pick may also accept an extra operation.  Some
    clients also run the looping pattern of ``corpus/looping.cfg``
    against a kicker service: a fresh session on every answer, which no
    concrete exploration can exhaust.  Some race two echo sessions
    (``_race``).

    ``manifest()`` returns ``{file name: text}``, ``deployed.cfg``
    included; ``write_manifest`` puts those files in a directory.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _protocol(self) -> list[tuple[str, str, int]]:
        """Moves seen from the client: ``(direction, op, arity)``, first ``out``."""
        moves = [("out", self.rng.choice(MESSAGE_OPS), self.rng.randrange(2))]
        for _ in range(self.rng.randrange(3)):
            moves.append((self.rng.choice(("out", "in")), self.rng.choice(MESSAGE_OPS),
                          self.rng.randrange(2)))
        return moves

    @staticmethod
    def _args(arity: int, name: str) -> str:
        return f"({name})" if arity else "()"

    def _service(self, protocol) -> str:
        _, op, arity = protocol[0]
        rest = []
        for direction, op2, arity2 in protocol[1:]:
            if direction == "out":
                rest.append(f"(rec s0 {op2} {self._args(arity2, 'x')})")
            else:
                rest.append(f"(inv s0 {op2} {self._args(arity2, 'd')})")
        body = "(nil)" if not rest else rest[0] if len(rest) == 1 else f"(seq {' '.join(rest)})"
        return f"(pic (on (rec s0 {op} {self._args(arity, 'x')}) {body}))\n"

    def _wrong(self, op: str, arity: int) -> tuple[str, int]:
        if self.rng.random() < 0.5:
            return self.rng.choice([o for o in MESSAGE_OPS if o != op]), arity
        return op, 1 - arity

    def _session(self, s: str, loc: str, protocol) -> str:
        moves = list(protocol)
        if self.rng.random() < 0.35:
            i = self.rng.randrange(len(moves))
            direction, op, arity = moves[i]
            moves[i] = (direction, *self._wrong(op, arity))
        parts = [f"(ses {s} {loc})"]
        for direction, op, arity in moves:
            if direction == "out":
                parts.append(f"(inv {s} {op} {self._args(arity, 'd')})")
            elif self.rng.random() < 0.3:
                extra, extra_arity = self._wrong(op, arity)
                parts.append(f"(pic (on (rec {s} {op} {self._args(arity, 'y')}) (nil)) "
                             f"(on (rec {s} {extra} {self._args(extra_arity, 'y')}) (nil)))")
            else:
                parts.append(f"(rec {s} {op} {self._args(arity, 'y')})")
        return f"(seq {' '.join(parts)})"

    def _race(self, protocols, used: set[int]) -> str:
        """Two echo sessions race; the winner's branch sends one message and ends.

        The loser's answer stays in the queue of a session that only the
        finished client holds, and the branch's message may be queued
        before the service has consumed its session request.
        """
        i = self.rng.randrange(len(protocols))
        used.add(i)
        _, op, arity = protocol = protocols[i][0]
        branches = []
        for e in ("e1", "e2"):
            sent_op, sent_arity = self._wrong(op, arity) if self.rng.random() < 0.5 else protocol[1:]
            send = f"(inv t {sent_op} {self._args(sent_arity, 'd')})"
            branches.append(f"(on (rec {e} ans ()) (seq (ses t l{i}) {send}))")
        return ("(seq (ses e1 le) (ses e2 le) (inv e1 ask ()) (inv e2 ask ()) "
                f"(pic {' '.join(branches)}))")

    def manifest(self) -> dict[str, str]:
        protocols = [self._protocol() for _ in range(self.rng.randrange(1, 3))]
        files = {f"svc{i}.seb": self._service(p) for i, p in enumerate(protocols)}
        sessions = []
        used = set()
        for k in range(self.rng.randrange(1, 4)):
            i = self.rng.randrange(len(protocols))
            used.add(i)
            sessions.append(self._session(f"s{k}", f"l{i}", protocols[i]))
        if self.rng.random() < 0.15:
            files["kicker.seb"] = "(pic (on (rec s0 kick ()) (inv s0 poke ())))\n"
            sessions.append(
                "(seq (ses k lk) (inv k kick ()) (rep (do (pic (on (rec k poke ()) "
                "(seq (ses k lk) (inv k kick ()))))) (until (pic (on (rec k bye ()) (nil))))))"
            )
        combine = self.rng.choice(("seq", "flo"))
        if self.rng.random() < 0.2:
            # In parallel with other sessions, the race's long sequence
            # would make the client's graph too large for a quick test.
            sessions.append(self._race(protocols, used))
            files["echo.seb"] = "(pic (on (rec s0 ask ()) (inv s0 ans ())))\n"
            combine = "seq"
        client = sessions[0] if len(sessions) == 1 else f"({combine} {' '.join(sessions)})"
        files["client.seb"] = client + "\n"
        lines = []
        for name in sorted(files):
            if name.startswith("svc"):
                i = int(name[3:-4])
                bind = ' :bind (d "x")' if "(d)" in files[name] else ""
                lines.append(f"(service svc{i} :file {name} :at loc{i}{bind})")
            elif name == "kicker.seb":
                lines.append("(service kicker :file kicker.seb :at kickloc)")
            elif name == "echo.seb":
                lines.append("(service echo :file echo.seb :at echoloc)")
        binds = [f"(l{i} loc{i})" for i in sorted(used)]
        if "kicker.seb" in files:
            binds.append("(lk kickloc)")
        if "echo.seb" in files:
            binds.append("(le echoloc)")
        if "(d)" in client:
            binds.append('(d "x")')
        lines.append(f"(client :file client.seb :bind {' '.join(binds)})")
        files["deployed.cfg"] = "\n".join(lines) + "\n"
        return files


class RaceGenerator:
    """Deterministic generator of small manifests whose services race to initiate.

    The client starts two relay services, in sequence or in parallel.
    Each relay, on ``go`` and now and then only after a second message
    ``more``, initiates one or two sessions with target services drawn
    with replacement, sends an operation on each and may await the
    answer.  So the relays' session initiations race to shared location
    queues, one of them possibly after the other's request has been
    consumed.  A target answers ``ok``, or now and then ``no``, which a
    relay accepts only sometimes.  ``manifest()`` returns files as
    ``ManifestGenerator.manifest()`` does.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _relay(self, targets: int) -> str:
        rng = self.rng
        parts = ["(rec s0 more ())"] if rng.random() < 0.3 else []
        for k in range(rng.randrange(1, 3)):
            parts.append(f"(ses u{k} q{rng.randrange(targets)})")
            parts.append(f"(inv u{k} {rng.choice(MESSAGE_OPS)} ())")
            if rng.random() < 0.5:
                also = " (on (rec u{k} no ()) (nil))" if rng.random() < 0.5 else ""
                parts.append(f"(pic (on (rec u{k} ok ()) (nil)){also.format(k=k)})")
        return f"(pic (on (rec s0 go ()) (seq {' '.join(parts)})))\n"

    def manifest(self) -> dict[str, str]:
        rng = self.rng
        targets = rng.randrange(1, 3)
        files = {}
        for t in range(targets):
            branches = [
                f"(on (rec s0 {op} ()) (inv s0 {'no' if rng.random() < 0.12 else 'ok'} ()))"
                for op in MESSAGE_OPS[: rng.randrange(1, 4)]
            ]
            files[f"t{t}.seb"] = f"(pic {' '.join(branches)})\n"
        lines = [f"(service t{t} :file t{t}.seb :at tloc{t})" for t in range(targets)]
        client = []
        for r in range(2):
            files[f"r{r}.seb"] = relay = self._relay(targets)
            binds = "".join(f" (q{t} tloc{t})" for t in range(targets) if f" q{t})" in relay)
            lines.append(f"(service r{r} :file r{r}.seb :at rloc{r} :bind{binds})")
            more = f" (inv c{r} more ())" if "more" in relay else ""
            client.append(f"(seq (ses c{r} l{r}) (inv c{r} go ()){more})")
        files["client.seb"] = f"({rng.choice(('flo', 'seq'))} {' '.join(client)})\n"
        lines.append("(client :file client.seb :bind (l0 rloc0) (l1 rloc1))")
        files["deployed.cfg"] = "\n".join(lines) + "\n"
        return files


def write_manifest(directory, files: dict[str, str]):
    """Write the files of a generated manifest; return the manifest's path."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory / "deployed.cfg"
