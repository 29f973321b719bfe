"""Configuration manifest (.cfg) loading.

A manifest is a sequence of service entries and exactly one client::

    (service <name> :file <path.seb> :at <location> :bind (var <loc-or-"text">)*)
    (client :file <path.seb> :bind (var <loc-or-"text">)*)

Bare identifiers in bindings are service locations, quoted strings are
data values.  File paths are resolved relative to the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .configs import (
    ConfigurationError,
    Data,
    DeployableService,
    Instance,
    ServiceLoc,
    Value,
    make_client,
    make_service,
)
from .control import ControlGraph
from .parser import Atom, Node, SList, Str, SebSyntaxError, parse_activity, read_forms
from .syntax import OWN_LOCATION
from .transforms import build_stages
from .variables import classify_occurrences, free_vars_of_graph
from .wellformed import validate_well_formed


class ManifestError(Exception):
    pass


@dataclass(frozen=True)
class LoadedManifest:
    services: tuple[DeployableService, ...]
    client: Instance


def _err(node: Node, message: str) -> ManifestError:
    return ManifestError(f"{node.line}:{node.col}: {message}")


def _parse_bindings(items: list[Node]) -> dict[str, Value]:
    bindings: dict[str, Value] = {}
    for item in items:
        if not isinstance(item, SList) or len(item.items) != 2:
            raise _err(item, "bindings have the form (var location) or (var \"text\")")
        var_node, value_node = item.items
        if not isinstance(var_node, Atom):
            raise _err(var_node, "expected a variable name")
        if isinstance(value_node, Str):
            value: Value = Data(value_node.text)
        elif isinstance(value_node, Atom):
            value = ServiceLoc(value_node.text)
        else:
            raise _err(value_node, "expected a location name or a quoted data value")
        if var_node.text in bindings:
            raise _err(var_node, f"variable '{var_node.text}' bound twice")
        bindings[var_node.text] = value
    return bindings


def _keyword_split(items: tuple[Node, ...]) -> tuple[dict[str, Node], list[Node]]:
    """Split ``:key value`` pairs; trailing (var value) forms follow :bind."""
    keyed: dict[str, Node] = {}
    binds: list[Node] = []
    i = 0
    while i < len(items):
        item = items[i]
        if isinstance(item, Atom) and item.text == ":bind":
            binds = list(items[i + 1 :])
            break
        if isinstance(item, Atom) and item.text.startswith(":"):
            if i + 1 >= len(items):
                raise _err(item, f"'{item.text}' needs a value")
            keyed[item.text] = items[i + 1]
            i += 2
            continue
        raise _err(item, "expected a ':key value' pair or ':bind'")
    return keyed, binds


def _load_activity(base: Path, node: Node):
    if not isinstance(node, (Atom, Str)):
        raise _err(node, "expected a file path")
    path = base / node.text
    if not path.exists():
        raise ManifestError(f"activity file not found: {path}")
    try:
        act = parse_activity(path.read_text(encoding="utf-8"))
    except SebSyntaxError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    problems = validate_well_formed(act)
    if problems:
        raise ManifestError(
            f"{path}: " + "; ".join(str(d) for d in problems)
        )
    return act


def _compile_entry(
    act, bindings: dict[str, Value], own: set[str]
) -> tuple[dict[str, Value | None], str, frozenset[str], ControlGraph]:
    """Compile an entry's activity once and build its variable map.

    Returns the map with ``bindings`` applied, the bound variables that do
    not occur, the free variables and the minimal graph.
    """
    stages = build_stages(act)
    free = free_vars_of_graph(stages["compress"])
    var_map: dict[str, Value | None] = {
        v: None for v in classify_occurrences(act, free).all_vars | own
    }
    unknown = ", ".join(sorted(set(bindings) - set(var_map)))
    var_map.update(bindings)
    return var_map, unknown, free, stages["min"]


def load_manifest(path) -> LoadedManifest:
    path = Path(path)
    try:
        forms = read_forms(path.read_text(encoding="utf-8"))
    except SebSyntaxError as exc:
        raise ManifestError(f"{path}: {exc}") from exc

    base = path.parent
    services: list[DeployableService] = []
    client_form = None

    for form in forms:
        if not isinstance(form, SList) or not form.items or not isinstance(form.items[0], Atom):
            raise _err(form, "expected (service ...) or (client ...)")
        head = form.items[0].text
        if head == "service":
            if len(form.items) < 2 or not isinstance(form.items[1], Atom):
                raise _err(form, "service entries start with a name")
            name = form.items[1].text
            keyed, binds = _keyword_split(form.items[2:])
            if ":file" not in keyed or ":at" not in keyed:
                raise _err(form, "service entries need :file and :at")
            at_node = keyed[":at"]
            if not isinstance(at_node, Atom):
                raise _err(at_node, "expected a location name")
            act = _load_activity(base, keyed[":file"])
            bindings = _parse_bindings(binds)
            if OWN_LOCATION in bindings:
                raise _err(form, f"bind '{OWN_LOCATION}' through :at, not :bind")
            var_map, unknown, free, graph = _compile_entry(act, bindings, {OWN_LOCATION})
            if unknown:
                raise _err(
                    form, f"service '{name}' binds unknown variables: {unknown}"
                )
            var_map[OWN_LOCATION] = ServiceLoc(at_node.text)
            try:
                services.append(make_service(name, var_map, act, graph, free))
            except ConfigurationError as exc:
                raise ManifestError(
                    f"service '{name}' is not deployable: {exc}"
                ) from exc
        elif head == "client":
            if client_form is not None:
                raise _err(form, "a manifest holds exactly one client")
            client_form = form
        else:
            raise _err(form.items[0], f"unknown manifest entry '{head}'")

    if client_form is None:
        raise ManifestError(f"{path}: no client entry")

    keyed, binds = _keyword_split(client_form.items[1:])
    if ":file" not in keyed:
        raise _err(client_form, "client entries need :file")
    act = _load_activity(base, keyed[":file"])
    bindings = _parse_bindings(binds)
    var_map, unknown, _, graph = _compile_entry(act, bindings, set())
    if unknown:
        raise ManifestError(f"client binds unknown variables: {unknown}")
    try:
        client = make_client(var_map, act, graph, services)
    except ConfigurationError as exc:
        raise ManifestError(f"client is not valid: {exc}") from exc

    return LoadedManifest(tuple(services), client)
