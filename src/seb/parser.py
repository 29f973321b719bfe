"""Concrete s-expression syntax for activity files.

Grammar (``;`` outside a string starts a line comment)::

    act   ::= "(nil)" | "(" kind head field* body ")"
    kind  ::= "ses" | "inv" | "rec" | "seq" | "flo" | "pic" | "rep"
    head  ::= ses: VAR VAR | inv/rec: VAR IDENT [ "(" VAR* ")" ] | others: none
    field ::= ":tgt" "(" IDENT* ")" | ":src" "(" IDENT* ")"
            | ":jcd" jexpr | ":lnk" "(" IDENT* ")"          ; :lnk on flo only
    jexpr ::= "true" | "false" | IDENT
            | "(" ("and"|"or") jexpr jexpr ")" | "(" "not" jexpr ")"
    body  ::= seq/flo: act+ | pic: ("(" "on" act act ")")+
            | rep: "(" "do" act ")" "(" "until" act ")"

Names starting with ``$`` are reserved for generated sequencing links and
rejected in user source.  Each field is given at most once.  Parentheses
nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    And,
    Activity,
    Flo,
    Inv,
    JoinExpr,
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
)


class InputError(Exception):
    """An input that cannot be used; the message starts with the file's path."""


class SebSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# Generic s-expression reader


@dataclass(frozen=True)
class Atom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Str:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple["Node", ...]
    line: int
    col: int


Node = Atom | Str | SList

# The tree walks after parsing (hashing, validation, derivation) recurse
# once or twice per level.  This is the deepest nesting at which
# ``validate``, ``compile`` at every stage, ``compile --check-properties``
# and ``check`` all finish under ``python -m seb`` with Python's default
# recursion limit, measured on nested seq, flo, pic, rep and join forms.
MAX_NESTING = 492

# A lone ``;`` starts a comment and a lone ``"`` an unterminated string.
_TOKEN = re.compile(r'\(|\)|"(?:[^"\\]|\\.)*"|[^\s()";]+|;|"')


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            tok = m.group(0)
            if tok == ";":
                break
            if tok == '"':
                raise SebSyntaxError("unterminated string", lineno, m.start() + 1)
            tokens.append((tok, lineno, m.start() + 1))
    return tokens


def read_forms(text: str) -> list[Node]:
    """Read every top-level form in the text."""
    forms: list[Node] = []
    open_lists: list[tuple[list[Node], int, int]] = []  # items, line, col
    for tok, line, col in _tokenize(text):
        if tok == "(":
            if len(open_lists) >= MAX_NESTING:
                raise SebSyntaxError(f"nesting deeper than {MAX_NESTING} levels", line, col)
            open_lists.append(([], line, col))
            continue
        if tok == ")":
            if not open_lists:
                raise SebSyntaxError("unexpected ')'", line, col)
            items, line, col = open_lists.pop()
            node: Node = SList(tuple(items), line, col)
        elif tok.startswith('"'):
            node = Str(re.sub(r"\\(.)", r"\1", tok[1:-1]), line, col)
        else:
            node = Atom(tok, line, col)
        (open_lists[-1][0] if open_lists else forms).append(node)
    if open_lists:  # reported at the innermost open list
        raise SebSyntaxError("unclosed '('", *open_lists[-1][1:])
    return forms


def _single_form(text: str, what: str) -> Node:
    forms = read_forms(text)
    if not forms:
        raise SebSyntaxError(f"empty input, expected {what}", 1, 1)
    if len(forms) > 1:
        extra = forms[1]
        raise SebSyntaxError(f"trailing input after {what}", extra.line, extra.col)
    return forms[0]


# --------------------------------------------------------------------------
# Activity construction

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_KINDS = {
    "nil": Nil, "ses": Ses, "inv": Inv, "rec": Rec,
    "seq": Seq, "flo": Flo, "pic": Pic, "rep": Rep,
}
_FIELD_KEYS = (":tgt", ":src", ":jcd", ":lnk")


def _err(node: Node, message: str) -> SebSyntaxError:
    return SebSyntaxError(message, node.line, node.col)


def _ident(node: Node, what: str) -> str:
    if not isinstance(node, Atom):
        raise _err(node, f"expected {what}")
    if node.text.startswith("$"):
        raise _err(node, f"'{node.text}': the '$' prefix is reserved for generated links")
    if not _IDENT.match(node.text):
        raise _err(node, f"'{node.text}' is not a valid {what}")
    return node.text


def _ident_list(node: Node, what: str) -> tuple[str, ...]:
    if not isinstance(node, SList):
        raise _err(node, f"expected a parenthesized list of {what}s")
    return tuple(_ident(item, what) for item in node.items)


def _parse_jexpr(node: Node) -> JoinExpr:
    if isinstance(node, Atom):
        if node.text == "true":
            return Lit(True)
        if node.text == "false":
            return Lit(False)
        return LinkRef(_ident(node, "link name"))
    if isinstance(node, SList):
        if not node.items or not isinstance(node.items[0], Atom):
            raise _err(node, "expected 'and', 'or' or 'not'")
        op = node.items[0].text
        if op in ("and", "or"):
            if len(node.items) != 3:
                raise _err(node, f"'{op}' takes exactly two operands")
            left, right = _parse_jexpr(node.items[1]), _parse_jexpr(node.items[2])
            return And(left, right) if op == "and" else Or(left, right)
        if op == "not":
            if len(node.items) != 2:
                raise _err(node, "'not' takes exactly one operand")
            return Not(_parse_jexpr(node.items[1]))
        raise _err(node.items[0], f"unknown join operator '{op}'")
    raise _err(node, "expected a join condition")


def _build_activity(node: Node) -> Activity:
    if not isinstance(node, SList):
        raise _err(node, "expected an activity")
    if not node.items or not isinstance(node.items[0], Atom):
        raise _err(node, "expected an activity keyword")
    kind = node.items[0].text
    if kind not in _KINDS:
        raise _err(node.items[0], f"unknown activity keyword '{kind}'")
    rest = list(node.items[1:])

    if kind == "nil":
        if rest:
            raise _err(rest[0], "(nil) takes no arguments")
        return Nil()

    # Head: the constructor's leading positional arguments
    args: list = []
    if kind == "ses":
        if len(rest) < 2:
            raise _err(node, "ses needs a session variable and a location variable")
        args = [_ident(rest.pop(0), "session variable"), _ident(rest.pop(0), "location variable")]
    elif kind in ("inv", "rec"):
        if len(rest) < 2:
            raise _err(node, f"{kind} needs a session variable and an operation name")
        args = [_ident(rest.pop(0), "session variable"), _ident(rest.pop(0), "operation name")]
        # The argument list is optional when empty; a following parenthesized
        # form can only be it, since fields are introduced by keyword atoms.
        if rest and isinstance(rest[0], SList):
            args.append(_ident_list(rest.pop(0), "variable"))

    # Fields, stored under their dataclass field names
    fields: dict = {}
    while rest and isinstance(rest[0], Atom) and rest[0].text.startswith(":"):
        key_node = rest.pop(0)
        key = key_node.text
        if key not in _FIELD_KEYS:
            raise _err(key_node, f"unknown field '{key}'")
        name = key[1:]
        if name in fields:
            raise _err(key_node, f"duplicate field '{key}'")
        if not rest:
            raise _err(key_node, f"field '{key}' needs a value")
        value = rest.pop(0)
        if name == "jcd":
            fields[name] = _parse_jexpr(value)
        else:
            if name == "lnk" and kind != "flo":
                raise _err(key_node, ":lnk is only legal on flo")
            fields[name] = frozenset(_ident_list(value, "link name"))

    # Body: the remaining positional arguments
    if kind in ("ses", "inv", "rec"):
        if rest:
            raise _err(rest[0], f"{kind} takes no body")
    elif kind in ("seq", "flo"):
        if not rest:
            raise _err(node, f"{kind} needs at least one child activity")
        args = [tuple(_build_activity(item) for item in rest)]
    elif kind == "pic":
        if not rest:
            raise _err(node, "pic needs at least one (on ...) branch")
        branches = []
        for item in rest:
            if (
                not isinstance(item, SList)
                or len(item.items) != 3
                or not isinstance(item.items[0], Atom)
                or item.items[0].text != "on"
            ):
                raise _err(item, "pic branches have the form (on <rec> <activity>)")
            guard = _build_activity(item.items[1])
            if not isinstance(guard, Rec):
                raise _err(item.items[1], "a pic branch head must be a reception")
            branches.append((guard, _build_activity(item.items[2])))
        args = [tuple(branches)]
    else:
        if len(rest) != 2:
            raise _err(node, "rep has the form (rep (do <pic>) (until <pic>))")
        for item, label in zip(rest, ("do", "until")):
            if (
                not isinstance(item, SList)
                or len(item.items) != 2
                or not isinstance(item.items[0], Atom)
                or item.items[0].text != label
            ):
                raise _err(item, f"expected ({label} <pic>)")
            sub = _build_activity(item.items[1])
            if not isinstance(sub, Pic):
                raise _err(item.items[1], f"the {label} part of rep must be a pic")
            args.append(sub)
    return _KINDS[kind](*args, **fields)


def parse_activity(text: str) -> Activity:
    """Parse a single activity from source text."""
    return _build_activity(_single_form(text, "an activity"))


def parse_activity_file(path) -> Activity:
    """Parse the activity in a UTF-8 file; any failure is an ``InputError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_activity(fh.read())
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except (SebSyntaxError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
