"""Activity trees for SeB orchestrations.

Every activity reads the common control fields: ``tgt`` (incoming
control links), ``src`` (outgoing control links) and ``jcd`` (join
condition over the incoming links), plus the link scope ``lnk``, which
only a flow declares.  ``nil`` declares none of them and reads them
empty.  All nodes are immutable and hashable, so residual activities can
be used directly as state components.
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


class _Activity:
    """Field values for activities that do not declare them as fields."""

    tgt = src = lnk = NO_LINKS
    jcd = TRUE


@dataclass(frozen=True)
class Nil(_Activity):
    pass


@dataclass(frozen=True)
class Ses(_Activity):
    s: str
    p: str
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Inv(_Activity):
    s: str
    op: str
    args: tuple[str, ...] = ()
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Rec(_Activity):
    s: str
    op: str
    params: tuple[str, ...] = ()
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Seq(_Activity):
    children: tuple["Activity", ...]
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Flo(_Activity):
    children: tuple["Activity", ...]
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE
    lnk: frozenset[str] = NO_LINKS


@dataclass(frozen=True)
class Pic(_Activity):
    branches: tuple[tuple[Rec, "Activity"], ...]
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Rep(_Activity):
    do_pic: Pic
    until_pic: Pic
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


@dataclass(frozen=True)
class Unf(_Activity):
    """Running unfolding of a repeat; produced by the semantics, never parsed."""

    body: "Activity"
    do_pic: Pic
    until_pic: Pic
    tgt: frozenset[str] = NO_LINKS
    src: frozenset[str] = NO_LINKS
    jcd: JoinExpr = TRUE


def fresh(cls: type, **fields) -> Activity:
    """A ``cls`` node of ``fields``, all given, made without the frozen dataclass
    ``__init__`` (one ``object.__setattr__`` per field): closures build many."""
    node = object.__new__(cls)
    node.__dict__.update(fields)
    return node


Activity = Nil | Ses | Inv | Rec | Seq | Flo | Pic | Rep | Unf

NIL = Nil()

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


def subacts(act: Activity) -> dict[Path, Activity]:
    """Transitively contained subactivities, keyed by tree path (preorder).

    The set is reflexive: it includes ``act`` itself at path ``()``.
    """
    out: dict[Path, Activity] = {}
    _collect(act, (), out)
    return out


def _collect(node: Activity, path: Path, out: dict[Path, Activity]) -> None:
    out[path] = node
    for i, child in enumerate(child_nodes(node)):
        _collect(child, path + (i,), out)


def describe_path(act: Activity, path: Path) -> str:
    """Human-readable rendering of a tree path, e.g. ``flo/2:pic/1:rec``."""
    parts = [kind_name(act)]
    node = act
    for step in path:
        node = child_nodes(node)[step]
        parts[-1] += f"/{step}"
        parts.append(kind_name(node))
    return ":".join(parts)


def all_sources(act: Activity, strict: bool = False) -> frozenset[str]:
    """Union of ``src`` declarations over the (strict) subactivity set."""
    return _links_below(act, "src", "_srcs", strict)


def all_targets(act: Activity, strict: bool = False) -> frozenset[str]:
    return _links_below(act, "tgt", "_tgts", strict)


def all_links(act: Activity) -> frozenset[str]:
    """Every link name occurring in the tree (tgt, src or lnk declarations)."""
    links: set[str] = set()
    for sub in subacts(act).values():
        links |= sub.src | sub.tgt | sub.lnk
    return frozenset(links)


def link_table(subs: dict[Path, Activity], field: str) -> dict[str, list[Path]]:
    """Per link name, the paths in ``subs`` that declare it in ``field``.

    ``field`` is "src", "tgt" or "lnk"; each list follows the order of
    ``subs``.
    """
    table: dict[str, list[Path]] = {}
    for path, sub in subs.items():
        for link in getattr(sub, field):
            table.setdefault(link, []).append(path)
    return table


def pred_pairs(act: Activity) -> set[tuple[Path, Path]]:
    """Precedence pairs: each link's sources to its targets, plus seq adjacency."""
    subs = subacts(act)
    by_tgt = link_table(subs, "tgt")
    pairs = {
        (source, target)
        for link, sources in link_table(subs, "src").items()
        for source in sources
        for target in by_tgt.get(link, ())
    }
    for path, sub in subs.items():
        if isinstance(sub, Seq):
            for i in range(len(sub.children) - 1):
                pairs.add((path + (i,), path + (i + 1,)))
    return pairs


# --------------------------------------------------------------------------
# Canonical printing


def _links_to_source(links: frozenset[str]) -> str:
    return "(" + " ".join(sorted(links)) + ")"


def _common_fields(act: Activity) -> str:
    parts = []
    if act.tgt:
        parts.append(f":tgt {_links_to_source(act.tgt)}")
    if act.src:
        parts.append(f":src {_links_to_source(act.src)}")
    if act.jcd != TRUE:
        parts.append(f":jcd {join_to_source(act.jcd)}")
    if act.lnk:
        parts.append(f":lnk {_links_to_source(act.lnk)}")
    return (" " + " ".join(parts)) if parts else ""


def to_source(act: Activity) -> str:
    """Canonical concrete syntax; inverse of the parser on activity trees.

    Internal unfold nodes have no concrete syntax and are rejected.
    """
    match act:
        case Nil():
            return "(nil)"
        case Ses(s, p):
            return f"(ses {s} {p}{_common_fields(act)})"
        case Inv(s, op, names) | Rec(s, op, names):
            names_s = f" ({' '.join(names)})" if names else ""
            return f"({kind_name(act)} {s} {op}{names_s}{_common_fields(act)})"
        case Seq(children) | Flo(children):
            body = " ".join(to_source(c) for c in children)
            return f"({kind_name(act)}{_common_fields(act)} {body})"
        case Pic(branches):
            body = " ".join(f"(on {to_source(h)} {to_source(c)})" for h, c in branches)
            return f"(pic{_common_fields(act)} {body})"
        case Rep(do_pic, until_pic):
            return (
                f"(rep{_common_fields(act)} (do {to_source(do_pic)})"
                f" (until {to_source(until_pic)}))"
            )
        case Unf():
            raise ValueError("internal unfold activity has no concrete syntax")
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
                tuple(sorted(act.lnk)),
            )
        key = own + tuple(structure_key(c) for c in child_nodes(act))
        object.__setattr__(act, "_okey", key)
    return key


def _activity_hash(self) -> int:
    """Structural hash from the children's cached hashes; O(fields) per node."""
    h = self.__dict__.get("_hash")
    if h is None:
        parts = [type(self).__name__]
        parts += [getattr(self, name) for name in self.__dataclass_fields__]
        h = hash(tuple(parts))
        object.__setattr__(self, "_hash", h)
    return h


for _cls in _Activity.__subclasses__():
    _cls.__hash__ = _activity_hash  # type: ignore[assignment]


def _links_below(
    act: Activity, field: str, memo: str, strict: bool = False
) -> frozenset[str]:
    """Union of one link field over the (strict) subtree, cached per node.

    A node keeps its subtree's set under ``memo`` and its strict set, the
    union of its children's, under ``memo + "_strict"``.
    """
    key = memo + "_strict" if strict else memo
    links = act.__dict__.get(key)
    if links is None:
        links = frozenset() if strict else getattr(act, field)
        for child in child_nodes(act):
            links |= _links_below(child, field, memo)
        object.__setattr__(act, key, links)
    return links
