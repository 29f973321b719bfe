"""Activity trees for SeB orchestrations.

Every activity except ``nil`` carries the common control fields: ``tgt``
(incoming control links), ``src`` (outgoing control links) and ``jcd``
(join condition over the incoming links).  A flow additionally declares
the link scope ``lnk``.  All nodes are immutable and hashable, so
residual activities can be used directly as state components.
"""

from __future__ import annotations

from dataclasses import dataclass

# --------------------------------------------------------------------------
# Join conditions


@dataclass(frozen=True)
class Lit:
    value: bool


@dataclass(frozen=True)
class LinkRef:
    name: str


@dataclass(frozen=True)
class And:
    left: "JoinExpr"
    right: "JoinExpr"


@dataclass(frozen=True)
class Or:
    left: "JoinExpr"
    right: "JoinExpr"


@dataclass(frozen=True)
class Not:
    operand: "JoinExpr"


JoinExpr = Lit | LinkRef | And | Or | Not

TRUE = Lit(True)
FALSE = Lit(False)

NO_LINKS: frozenset[str] = frozenset()


def join_links(expr: JoinExpr) -> frozenset[str]:
    """Set of link names referenced by a join condition."""
    match expr:
        case Lit():
            return NO_LINKS
        case LinkRef(name):
            return frozenset((name,))
        case And(left, right) | Or(left, right):
            return join_links(left) | join_links(right)
        case Not(operand):
            return join_links(operand)
    raise TypeError(f"not a join expression: {expr!r}")


def join_to_source(expr: JoinExpr) -> str:
    match expr:
        case Lit(value):
            return "true" if value else "false"
        case LinkRef(name):
            return name
        case And(left, right):
            return f"(and {join_to_source(left)} {join_to_source(right)})"
        case Or(left, right):
            return f"(or {join_to_source(left)} {join_to_source(right)})"
        case Not(operand):
            return f"(not {join_to_source(operand)})"
    raise TypeError(f"not a join expression: {expr!r}")


# --------------------------------------------------------------------------
# Activities


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Ses:
    s: str
    p: str
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Inv:
    s: str
    op: str
    args: tuple[str, ...] = ()
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Rec:
    s: str
    op: str
    params: tuple[str, ...] = ()
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Seq:
    children: tuple["Activity", ...]
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Flo:
    children: tuple["Activity", ...]
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE
    lnk: frozenset[str] = NO_LINKS


@dataclass(frozen=True)
class Pic:
    branches: tuple[tuple[Rec, "Activity"], ...]
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Rep:
    do_pic: Pic
    until_pic: Pic
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Unf:
    """Running unfolding of a repeat; produced by the semantics, never parsed."""

    body: "Activity"
    do_pic: Pic
    until_pic: Pic
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


Activity = Nil | Ses | Inv | Rec | Seq | Flo | Pic | Rep | Unf

NIL = Nil()

ATOMIC = (Ses, Inv, Rec)

# Reserved variable names: a service's own location and its root session.
OWN_LOCATION = "p0"
ROOT_SESSION = "s0"


def kind_name(act: Activity) -> str:
    return type(act).__name__.lower()


def child_nodes(act: Activity) -> tuple[Activity, ...]:
    """Direct children in canonical order (pic branches flattened head, cont)."""
    match act:
        case Seq(children) | Flo(children):
            return children
        case Pic(branches):
            flat: list[Activity] = []
            for head, cont in branches:
                flat.append(head)
                flat.append(cont)
            return tuple(flat)
        case Rep(do_pic, until_pic):
            return (do_pic, until_pic)
        case Unf(body, do_pic, until_pic):
            return (body, do_pic, until_pic)
        case _:
            return ()


Path = tuple[int, ...]


def subacts(act: Activity, strict: bool = False) -> dict[Path, Activity]:
    """Transitively contained subactivities, keyed by tree path (preorder).

    The reflexive set includes ``act`` itself at path ``()``; the strict
    variant drops the root.
    """
    out: dict[Path, Activity] = {}

    def walk(node: Activity, path: Path) -> None:
        out[path] = node
        for i, child in enumerate(child_nodes(node)):
            walk(child, path + (i,))

    walk(act, ())
    if strict:
        del out[()]
    return out


def at_path(act: Activity, path: Path) -> Activity:
    node = act
    for step in path:
        node = child_nodes(node)[step]
    return node


def describe_path(act: Activity, path: Path) -> str:
    """Human-readable rendering of a tree path, e.g. ``flo/2:pic/1:rec``."""
    parts = [kind_name(act)]
    node = act
    for step in path:
        node = child_nodes(node)[step]
        parts[-1] += f"/{step}"
        parts.append(kind_name(node))
    return ":".join(parts)


def fields_src(act: Activity) -> frozenset[str]:
    return getattr(act, "src", NO_LINKS)


def fields_tgt(act: Activity) -> frozenset[str]:
    return getattr(act, "tgt", NO_LINKS)


def all_sources(act: Activity, strict: bool = False) -> frozenset[str]:
    """Union of ``src`` declarations over the (strict) subactivity set."""
    return _links_below(act, "src", "_srcs", strict)


def all_targets(act: Activity, strict: bool = False) -> frozenset[str]:
    return _links_below(act, "tgt", "_tgts", strict)


def all_links(act: Activity) -> frozenset[str]:
    """Every link name occurring in the tree (tgt, src or lnk declarations)."""
    links: set[str] = set()
    for sub in subacts(act).values():
        links |= fields_src(sub)
        links |= fields_tgt(sub)
        links |= getattr(sub, "lnk", NO_LINKS)
    return frozenset(links)


def pred_pairs(act: Activity) -> set[tuple[Path, Path]]:
    """Precedence pairs: link source-to-target plus adjacency inside a seq."""
    subs = subacts(act)
    pairs: set[tuple[Path, Path]] = set()
    paths = list(subs)
    for p1 in paths:
        src1 = fields_src(subs[p1])
        if not src1:
            continue
        for p2 in paths:
            if src1 & fields_tgt(subs[p2]):
                pairs.add((p1, p2))
    for path, sub in subs.items():
        if isinstance(sub, Seq):
            for i in range(len(sub.children) - 1):
                pairs.add((path + (i,), path + (i + 1,)))
    return pairs


def contains_seq(act: Activity) -> bool:
    return any(isinstance(s, Seq) for s in subacts(act).values())


def contains_unf(act: Activity) -> bool:
    return any(isinstance(s, Unf) for s in subacts(act).values())


# --------------------------------------------------------------------------
# Canonical printing


def _links_to_source(links: frozenset[str]) -> str:
    return "(" + " ".join(sorted(links)) + ")"


def _common_fields(act: Activity) -> str:
    parts = []
    if fields_tgt(act):
        parts.append(f":tgt {_links_to_source(fields_tgt(act))}")
    if fields_src(act):
        parts.append(f":src {_links_to_source(fields_src(act))}")
    jcd = getattr(act, "jcd", TRUE)
    if jcd != TRUE:
        parts.append(f":jcd {join_to_source(jcd)}")
    if getattr(act, "lnk", NO_LINKS):
        parts.append(f":lnk {_links_to_source(act.lnk)}")
    return (" " + " ".join(parts)) if parts else ""


def to_source(act: Activity) -> str:
    """Canonical concrete syntax; inverse of the parser on activity trees.

    Internal unfold nodes have no concrete syntax and are rejected.
    """
    if isinstance(act, Unf):
        raise ValueError("internal unfold activity has no concrete syntax")
    return _print(act, to_source)


def render(act: Activity) -> str:
    """Canonical rendering, cached per node; total (covers unfoldings too)."""
    key = act.__dict__.get("_render")
    if key is None:
        key = _print(act, render)
        object.__setattr__(act, "_render", key)
    return key


def _print(act: Activity, child) -> str:
    """The printer behind both; ``child`` prints the subactivities."""
    match act:
        case Nil():
            return "(nil)"
        case Ses(s, p):
            return f"(ses {s} {p}{_common_fields(act)})"
        case Inv(s, op, args):
            args_s = f" ({' '.join(args)})" if args else ""
            return f"(inv {s} {op}{args_s}{_common_fields(act)})"
        case Rec(s, op, params):
            params_s = f" ({' '.join(params)})" if params else ""
            return f"(rec {s} {op}{params_s}{_common_fields(act)})"
        case Seq(children):
            body = " ".join(child(c) for c in children)
            return f"(seq{_common_fields(act)} {body})"
        case Flo(children):
            body = " ".join(child(c) for c in children)
            return f"(flo{_common_fields(act)} {body})"
        case Pic(branches):
            body = " ".join(f"(on {child(h)} {child(c)})" for h, c in branches)
            return f"(pic{_common_fields(act)} {body})"
        case Rep(do_pic, until_pic):
            return (
                f"(rep{_common_fields(act)} (do {child(do_pic)})"
                f" (until {child(until_pic)}))"
            )
        case Unf(body, do_pic, until_pic):
            return (
                f"(unf{_common_fields(act)} (do {child(body)})"
                f" (then {child(do_pic)}) (until {child(until_pic)}))"
            )
    raise TypeError(f"not an activity: {act!r}")


_KIND_RANK = {
    "Nil": 0, "Ses": 1, "Inv": 2, "Rec": 3,
    "Seq": 4, "Flo": 5, "Pic": 6, "Rep": 7, "Unf": 8,
}


def _join_key(expr: JoinExpr) -> tuple:
    match expr:
        case Lit(value):
            return (0, value)
        case LinkRef(name):
            return (1, name)
        case And(left, right):
            return (2, _join_key(left), _join_key(right))
        case Or(left, right):
            return (3, _join_key(left), _join_key(right))
        case Not(operand):
            return (4, _join_key(operand))
    raise TypeError(f"not a join expression: {expr!r}")


def structure_key(act: Activity) -> tuple:
    """Cached nested tuple giving a run-independent total order on trees.

    Children keys are shared by reference, so building a key for a fresh
    node costs only its own fields.
    """
    key = act.__dict__.get("_okey")
    if key is None:
        own: tuple = (_KIND_RANK[type(act).__name__],)
        match act:
            case Ses(s, p):
                own += (s, p)
            case Inv(s, op, args) | Rec(s, op, args):
                own += (s, op, args)
            case _:
                pass
        if not isinstance(act, Nil):
            own += (
                tuple(sorted(act.tgt)),
                tuple(sorted(act.src)),
                _join_key(act.jcd),
                tuple(sorted(getattr(act, "lnk", NO_LINKS))),
            )
        key = own + tuple(structure_key(c) for c in child_nodes(act))
        object.__setattr__(act, "_okey", key)
    return key


def _activity_hash(self) -> int:
    """Structural hash from the children's cached hashes; O(fields) per node."""
    h = self.__dict__.get("_hash")
    if h is None:
        parts: list = [type(self).__name__]
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple) and value and not isinstance(value[0], str):
                parts.append(tuple(hash(v) for v in value))
            else:
                parts.append(value)
        h = hash(tuple(parts))
        object.__setattr__(self, "_hash", h)
    return h


_ACTIVITY_CLASSES = (Nil, Ses, Inv, Rec, Seq, Flo, Pic, Rep, Unf)

for _cls in _ACTIVITY_CLASSES:
    _cls.__hash__ = _activity_hash  # type: ignore[assignment]


def _links_below(
    act: Activity, field: str, memo: str, strict: bool = False
) -> frozenset[str]:
    """Union of one link field over the (strict) subtree, cached per node."""
    if strict:
        return frozenset().union(
            *(_links_below(child, field, memo) for child in child_nodes(act))
        )
    links = act.__dict__.get(memo)
    if links is None:
        links = getattr(act, field, NO_LINKS)
        for child in child_nodes(act):
            links |= _links_below(child, field, memo)
        object.__setattr__(act, memo, links)
    return links
