"""Static validation of activity trees and seq removal.

An activity is accepted when its control links are unique, well scoped
and acyclic (including across the containment relation), every repeat
is closed with respect to links, and variable kinds inferred from the
syntactic positions are consistent.  Violations are collected
exhaustively, never fail-fast; only the first precedence cycle found is
reported.

The link checks work per link.  ``syntax.link_table`` lists, for each
link, the activities declaring it as source, target or scope; unicity
and scoping read those lists.  The cycle and containment-crossing checks
read ``syntax.pred_pairs``: one pair per source and target occurrence of
a link, plus seq adjacency.  A pair whose one path is a prefix of the
other crosses containment.  The cost follows the number of link
occurrences, not the square of the number of activities.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import count

from .control import VarKind, action_of, find_cycle, occurrences
from .diagnostics import (
    CONTAINMENT_CROSS,
    CYCLE,
    DUP_LINK,
    Diagnostic,
    KIND_CLASH,
    REP_ESCAPE,
    REP_INCOMING,
    REP_OUTGOING,
    UNSCOPED_LINK,
    sort_diagnostics,
)
from .syntax import (
    Activity,
    And,
    Flo,
    LinkRef,
    Nil,
    OWN_LOCATION,
    Path,
    Pic,
    ROOT_SESSION,
    Rep,
    Seq,
    TRUE,
    Unf,
    all_sources,
    all_targets,
    describe_path,
    join_links,
    link_table,
    pred_pairs,
    subacts,
)


def infer_kinds(act: Activity) -> tuple[dict[str, VarKind], list[Diagnostic]]:
    """Assign a kind to every variable from its syntactic positions.

    Payload positions only reveal that a variable is exchangeable; a
    location usage elsewhere refines that to service-location.  A variable
    seen both as a session and as anything else is a clash, as are misuses
    of the reserved names.
    """
    kinds: dict[str, VarKind] = {OWN_LOCATION: VarKind.LOCATION, ROOT_SESSION: VarKind.SESSION}
    clashes: dict[str, Diagnostic] = {}

    def observe(var: str, kind: VarKind, path: Path) -> None:
        seen = kinds.get(var)
        if seen is None:
            kinds[var] = kind
            return
        if seen == kind:
            return
        if VarKind.SESSION in (seen, kind):
            if var not in clashes:
                clashes[var] = Diagnostic(
                    KIND_CLASH,
                    f"variable '{var}' is used both as {seen.value} and as {kind.value}",
                    path,
                )
            return
        # exchangeable refines to service-location
        kinds[var] = VarKind.LOCATION

    for path, sub in subacts(act).items():
        for var, kind, _ in occurrences(action_of(sub)):
            observe(var, kind, path)

    return kinds, list(clashes.values())


def validate_well_formed(act: Activity) -> list[Diagnostic]:
    """All well-formedness violations of the tree; empty means accepted."""
    subs = subacts(act)
    if any(isinstance(sub, Unf) for sub in subs.values()):
        raise ValueError("validation applies to source activities, not residuals")
    out: list[Diagnostic] = []

    # Link occurrence tables, by declaration role.
    by_src, by_tgt, by_lnk = (link_table(subs, f) for f in ("src", "tgt", "lnk"))

    # Unicity: each role of a link belongs to exactly one activity.
    for role, table in (("source", by_src), ("target", by_tgt), ("scope", by_lnk)):
        for link in sorted(table):
            paths = table[link]
            if len(paths) > 1:
                places = ", ".join(describe_path(act, p) for p in paths)
                out.append(
                    Diagnostic(
                        DUP_LINK,
                        f"link '{link}' declared as {role} by several activities: {places}",
                        paths[0],
                    )
                )

    # Scoping: each src/tgt occurrence needs a declaring flo containing both
    # the occurrence and a matching opposite endpoint.
    def scoped(link: str, here: Path, opposite: dict[str, list[Path]]) -> bool:
        for scope_path in by_lnk.get(link, ()):  # flo declaring the link
            if here[: len(scope_path)] != scope_path:
                continue
            for other in opposite.get(link, ()):
                if other[: len(scope_path)] == scope_path:
                    return True
        return False

    for role, table, opposite, wanted in (
        ("source", by_src, by_tgt, "target"),
        ("target", by_tgt, by_src, "source"),
    ):
        for link in sorted(table):
            for path in table[link]:
                if not scoped(link, path, opposite):
                    out.append(
                        Diagnostic(
                            UNSCOPED_LINK,
                            f"{role} link '{link}' has no enclosing flo scope "
                            f"with a matching {wanted}",
                            path,
                        )
                    )

    # Join conditions range over the activity's own incoming links.
    for path, sub in subs.items():
        stray = join_links(sub.jcd) - sub.tgt
        if stray:
            out.append(
                Diagnostic(
                    UNSCOPED_LINK,
                    "join condition references links outside the tgt set: "
                    + ", ".join(sorted(stray)),
                    path,
                )
            )

    # Non-cyclicity of the precedence relation.
    pairs = pred_pairs(act)
    edges: dict[Path, list[Path]] = {}
    for before, after in sorted(pairs):  # search and report in path order
        edges.setdefault(before, []).append(after)
    loop = find_cycle(edges, edges)
    if loop is not None:
        names = " -> ".join(describe_path(act, p) for p in loop)
        out.append(Diagnostic(CYCLE, f"precedence cycle: {names}", loop[0]))

    # Containment crossing: no links between an activity and its
    # subactivities.  Seq adjacency never relates a path to its prefix.
    for before, after in pairs:
        if after[: len(before)] == before:
            out.append(
                Diagnostic(
                    CONTAINMENT_CROSS,
                    f"links from {describe_path(act, before)} target its own "
                    f"subactivity {describe_path(act, after)}",
                    before,
                )
            )
        elif before[: len(after)] == after:
            out.append(
                Diagnostic(
                    CONTAINMENT_CROSS,
                    f"links from subactivity {describe_path(act, before)} target "
                    f"the containing {describe_path(act, after)}",
                    after,
                )
            )

    # Repeat closure conditions.
    for path, sub in subs.items():
        if not isinstance(sub, Rep):
            continue
        if sub.do_pic.tgt or sub.until_pic.tgt:
            out.append(
                Diagnostic(
                    REP_INCOMING,
                    "the do/until parts of a repeat cannot have incoming links",
                    path,
                )
            )
        if sub.do_pic.src:
            out.append(
                Diagnostic(
                    REP_OUTGOING,
                    "the do part of a repeat cannot have outgoing links",
                    path,
                )
            )
        inner_src = all_sources(sub.do_pic, strict=True)
        inner_tgt = all_targets(sub.do_pic, strict=True)
        if inner_src != inner_tgt:
            escaped = sorted(inner_src ^ inner_tgt)
            out.append(
                Diagnostic(
                    REP_ESCAPE,
                    "links of activities inside the do part must stay internal: "
                    + ", ".join(escaped),
                    path,
                )
            )

    _, clashes = infer_kinds(act)
    out.extend(clashes)

    return sort_diagnostics(out)


# --------------------------------------------------------------------------
# Seq removal

SEQ_LINK_PREFIX = "$seq"


def desugar_seq(act: Activity) -> Activity:
    """Replace every seq by a flow chained with fresh generated links.

    Each consecutive pair of children gets a fresh ``$seq<k>`` link from
    the earlier to the later child, whose join condition is strengthened
    with the new link.  Numbering is allocated in preorder, so the result
    is deterministic.
    """
    return _desugar(act, count())


def _desugar(node: Activity, numbers: count) -> Activity:
    match node:
        case Seq(children, tgt, src, jcd):
            # nil children complete immediately: chaining skips them
            children = tuple(c for c in children if not isinstance(c, Nil))
            if not children:
                return Flo((Nil(),), tgt, src, jcd, frozenset())
            links = [f"{SEQ_LINK_PREFIX}{next(numbers)}" for _ in children[1:]]
            chained: list[Activity] = []
            for i, child in enumerate(children):
                if i:  # runs after the previous child
                    after = LinkRef(links[i - 1])
                    jcd_i = after if child.jcd == TRUE else And(child.jcd, after)
                    child = replace(child, tgt=child.tgt | {after.name}, jcd=jcd_i)
                if i < len(links):
                    child = replace(child, src=child.src | {links[i]})
                chained.append(_desugar(child, numbers))
            return Flo(tuple(chained), tgt, src, jcd, frozenset(links))
        case Flo(children, tgt, src, jcd, lnk):
            return Flo(tuple(_desugar(c, numbers) for c in children), tgt, src, jcd, lnk)
        case Pic(branches, tgt, src, jcd):
            new_branches = tuple((h, _desugar(c, numbers)) for h, c in branches)
            return Pic(new_branches, tgt, src, jcd)
        case Rep(do_pic, until_pic, tgt, src, jcd):
            return Rep(_desugar(do_pic, numbers), _desugar(until_pic, numbers), tgt, src, jcd)
        case _:
            return node
