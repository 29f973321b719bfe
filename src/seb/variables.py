"""Static semantics of variables.

Which positions of an action bind a variable and which use it, and at
which kind, is ``control.occurrences``; everything here reads that
table.  Occurrence classification is purely syntactic.  Freeness is
defined over paths of the compiled control graph: a variable is free
when some run uses it before any binding for it has happened, which one
search per variable decides.  ``free_vars`` reads the prioritized
(pre-pruning) graph, where every schedule is still present, ``check``
the compressed one: silent steps carry no occurrences, so both agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .control import ControlGraph, VarKind, action_of, occurrences
from .diagnostics import (
    DOMAIN_MISMATCH,
    Diagnostic,
    FREE_SESSION,
    MISSING_ROOT_FREE,
    NONFREE_DEFINED,
    NOT_PIC,
    P0_REBOUND,
    ROOT_SESSION,
    S0_INITIATED,
    UNDEFINED_FREE,
    sort_diagnostics,
)
from .syntax import (
    Activity,
    OWN_LOCATION,
    Pic,
    ROOT_SESSION as ROOT_SESSION_VAR,
    subacts,
)
from .compiler import build_prioritized_cg
from .wellformed import infer_kinds


@dataclass(frozen=True)
class VarReport:
    all_vars: frozenset[str]
    binding: frozenset[str]
    usage: frozenset[str]
    forbidden: tuple[Diagnostic, ...]


# Bindings that are forbidden occurrences: (variable, kind) -> (code, message).
_FORBIDDEN_BINDINGS = {
    (ROOT_SESSION_VAR, VarKind.SESSION): (
        S0_INITIATED,
        f"'{ROOT_SESSION_VAR}' is implicitly bound at service instantiation "
        "and cannot be initiated",
    ),
    (OWN_LOCATION, VarKind.EXCHANGEABLE): (
        P0_REBOUND,
        f"'{OWN_LOCATION}' holds the own location and cannot be rebound by a "
        "reception",
    ),
}


def classify_occurrences(act: Activity) -> VarReport:
    """Binding/usage occurrence sets plus forbidden-occurrence diagnostics."""
    all_vars: set[str] = set()
    binding: set[str] = set()
    usage: set[str] = set()
    forbidden: list[Diagnostic] = []

    for path, sub in subacts(act).items():
        occs = occurrences(action_of(sub))
        for var, _, binds in occs:
            all_vars.add(var)
            (binding if binds else usage).add(var)
        bound = {(var, kind) for var, kind, binds in occs if binds}
        for key in bound & _FORBIDDEN_BINDINGS.keys():
            forbidden.append(Diagnostic(*_FORBIDDEN_BINDINGS[key], path))

    return VarReport(
        all_vars=frozenset(all_vars),
        binding=frozenset(binding),
        usage=frozenset(usage),
        forbidden=tuple(sort_diagnostics(forbidden)),
    )


def free_vars_of_graph(g: ControlGraph) -> frozenset[str]:
    """Variables used before being bound along some path from the start.

    One search per variable: from ``g.init`` it follows only transitions
    that do not bind the variable and stops at the first transition that
    uses it, which makes the variable free.  A transition's uses count
    before its own bindings.  The cost is O(V·(S+E)) for V variables.
    """
    occs = {id(a): occurrences(a) for a in g.actions}  # outgoing() holds table entries
    out = [[(occs[id(action)], to) for action, to in edges] for edges in g.outgoing()]
    free: set[str] = set()
    for var in {v for edges in out for occs, _ in edges for v, _, _ in occs}:
        seen = {g.init}
        work = [g.init]
        while work and var not in free:
            for occs, to in out[work.pop()]:
                roles = [binds for v, _, binds in occs if v == var]
                if False in roles:
                    free.add(var)
                    break
                if True not in roles and to not in seen:
                    seen.add(to)
                    work.append(to)
    return frozenset(free)


def free_vars(act: Activity) -> frozenset[str]:
    """Free variables of ``act``, read off its prioritized control graph.

    The silent steps that prioritization skips carry no variable
    occurrences, so freeness is unaffected.
    """
    return free_vars_of_graph(build_prioritized_cg(act))


def open_for_reception(g: ControlGraph, state: int, s: str) -> bool:
    """True when the state has an outgoing reception on session variable s."""
    if state not in g.states:
        raise ValueError(f"state {state} outside the graph")
    return any(var == s for var, _, _ in g.slot_table(()).rows[state].receptions)


# --------------------------------------------------------------------------
# Deployability


def check_deployable(var_map: dict, pic: Activity, free: frozenset[str]) -> list[Diagnostic]:
    """Whether (map, pic) can be deployed as a service factory.

    The activity must be a pick whose every branch starts by receiving on
    the root session; the root session must be its only free session
    variable; the map must cover exactly the occurring variables plus the
    own location, define every free variable and leave every non-free one
    undefined, as well as the root session, which is bound at instantiation.
    The own location is implicitly free: it is the address the service is
    reachable at, whether or not the behavior mentions it.  ``free`` is
    ``free_vars(pic)``, which the caller has already computed.
    """
    out: list[Diagnostic] = []

    if not isinstance(pic, Pic):
        out.append(Diagnostic(NOT_PIC, "a deployable service must be a pic"))
        return sort_diagnostics(out)

    for i, (head, _) in enumerate(pic.branches):
        if head.s != ROOT_SESSION_VAR:
            out.append(
                Diagnostic(
                    ROOT_SESSION,
                    f"branch {i} receives on '{head.s}' instead of the root "
                    f"session '{ROOT_SESSION_VAR}'",
                    (2 * i,),
                )
            )

    report = classify_occurrences(pic)
    out.extend(report.forbidden)
    kinds, _ = infer_kinds(pic)

    if ROOT_SESSION_VAR not in free:
        out.append(
            Diagnostic(
                MISSING_ROOT_FREE,
                f"'{ROOT_SESSION_VAR}' must occur free in a deployable service",
            )
        )

    free_sessions = {
        v for v in free if kinds.get(v) == VarKind.SESSION
    }
    stray_sessions = free_sessions - {ROOT_SESSION_VAR}
    if stray_sessions:
        out.append(
            Diagnostic(
                FREE_SESSION,
                "free session variables other than the root session: "
                + ", ".join(sorted(stray_sessions)),
            )
        )

    expected_domain = set(report.all_vars) | {OWN_LOCATION}
    if set(var_map) != expected_domain:
        missing = sorted(expected_domain - set(var_map))
        extra = sorted(set(var_map) - expected_domain)
        detail = []
        if missing:
            detail.append("missing " + ", ".join(missing))
        if extra:
            detail.append("extraneous " + ", ".join(extra))
        out.append(
            Diagnostic(
                DOMAIN_MISMATCH,
                "the variable map must cover exactly the occurring variables "
                "plus the own location: " + "; ".join(detail),
            )
        )

    effective_free = (free | {OWN_LOCATION}) & set(var_map)
    for var in sorted(set(var_map)):
        value = var_map[var]
        if var == ROOT_SESSION_VAR:
            if value is not None:
                out.append(
                    Diagnostic(
                        ROOT_SESSION,
                        f"'{var}' is bound when an instance starts and must stay undefined",
                    )
                )
        elif var in effective_free:
            if value is None:
                out.append(
                    Diagnostic(
                        UNDEFINED_FREE,
                        f"free variable '{var}' has no value",
                    )
                )
        elif value is not None:
            out.append(
                Diagnostic(
                    NONFREE_DEFINED,
                    f"variable '{var}' is not free and must stay undefined",
                )
            )

    return sort_diagnostics(out)
