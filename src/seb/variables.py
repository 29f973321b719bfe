"""Static semantics of variables.

Occurrence classification is purely syntactic; freeness is defined over
paths of the compiled control graph: a variable is free when some run
uses it before any binding for it has happened.  Freeness is computed on
the compressed (pre-pruning) graph, where every schedule is still
present, and is stable under the equivalence-preserving stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .control import Action, ControlGraph, Recv, Send, SesInit
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
    Inv,
    OWN_LOCATION,
    Pic,
    ROOT_SESSION as ROOT_SESSION_VAR,
    Rec,
    Ses,
    subacts,
)
from .compiler import build_prioritized_cg
from .transforms import tau_compress
from .wellformed import VarKind, infer_kinds


@dataclass(frozen=True)
class VarReport:
    all_vars: frozenset[str]
    binding: frozenset[str]
    usage: frozenset[str]
    free: frozenset[str]
    forbidden: tuple[Diagnostic, ...]


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


def classify_occurrences(act: Activity, free: frozenset[str] | None = None) -> VarReport:
    """Binding/usage occurrence sets plus forbidden-occurrence diagnostics.

    ``free`` is ``free_vars(act)``, computed here when not given.
    """
    all_vars: set[str] = set()
    binding: set[str] = set()
    usage: set[str] = set()
    forbidden: list[Diagnostic] = []

    for path, sub in subacts(act).items():
        match sub:
            case Ses(s, p):
                all_vars |= {s, p}
                binding.add(s)
                usage.add(p)
                if s == ROOT_SESSION_VAR:
                    forbidden.append(
                        Diagnostic(
                            S0_INITIATED,
                            f"'{ROOT_SESSION_VAR}' is implicitly bound at service "
                            "instantiation and cannot be initiated",
                            path,
                        )
                    )
            case Inv(s, _, args):
                all_vars.add(s)
                all_vars |= set(args)
                usage.add(s)
                usage |= set(args)
            case Rec(s, _, params):
                all_vars.add(s)
                all_vars |= set(params)
                usage.add(s)
                binding |= set(params)
                if OWN_LOCATION in params:
                    forbidden.append(
                        Diagnostic(
                            P0_REBOUND,
                            f"'{OWN_LOCATION}' holds the own location and cannot "
                            "be rebound by a reception",
                            path,
                        )
                    )

    return VarReport(
        all_vars=frozenset(all_vars),
        binding=frozenset(binding),
        usage=frozenset(usage),
        free=free_vars(act) if free is None else free,
        forbidden=tuple(sort_diagnostics(forbidden)),
    )


def free_vars_of_graph(g: ControlGraph) -> frozenset[str]:
    """Variables used before being bound along some path from the start.

    A forward fixed point carries, per state, the antichain of minimal
    bound-variable sets over incoming paths; a use is free as soon as one
    carried set misses the variable (the definition is existential over
    paths, so smaller bound sets dominate larger ones).
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


def free_vars(act: Activity) -> frozenset[str]:
    """Free variables of ``act``, read off its compressed control graph.

    The silent steps that prioritization skips carry no variable
    occurrences and compression preserves equivalence, so freeness is
    unaffected.
    """
    return free_vars_of_graph(tau_compress(build_prioritized_cg(act)))


def open_for_reception(g: ControlGraph, state: int, s: str) -> bool:
    """True when the state has an outgoing reception on session variable s."""
    if state not in g.states:
        raise ValueError(f"state {state} outside the graph")
    return any(
        frm == state and isinstance(action, Recv) and action.s == s
        for frm, action, _ in g.transitions
    )


# --------------------------------------------------------------------------
# Deployability


def check_deployable(
    var_map: dict, pic: Activity, free: frozenset[str] | None = None
) -> list[Diagnostic]:
    """Whether (map, pic) can be deployed as a service factory.

    The activity must be a pick whose every branch starts by receiving on
    the root session; the root session must be its only free session
    variable; the map must cover exactly the occurring variables plus the
    own location, define every free variable (the root session aside, it
    is bound at instantiation) and leave every non-free one undefined.
    The own location is implicitly free: it is the address the service is
    reachable at, whether or not the behavior mentions it.  ``free`` is
    ``free_vars(pic)``, computed here when not given.
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

    report = classify_occurrences(pic, free)
    kinds, _ = infer_kinds(pic)
    free = report.free

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
        if var in effective_free:
            if var != ROOT_SESSION_VAR and value is None:
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
