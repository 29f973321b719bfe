"""Configuration manifest (.cfg) loading.

A manifest is a sequence of service entries and exactly one client::

    (service <name> :file <path.seb> :at <location> :bind (var <loc-or-"text">)*)
    (client :file <path.seb> :bind (var <loc-or-"text">)*)

Each keyword is given at most once, and service names are unique.  Bare
identifiers in bindings are service locations, quoted strings are data
values.  File paths are resolved relative to the manifest.  The
services must be well partnered (``configs.check_well_partnered``).
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
    check_well_partnered,
    make_client,
    make_service,
)
from .parser import (
    Atom, InputError, Node, SList, Str, SebSyntaxError, parse_activity_file, read_forms,
)
from .syntax import OWN_LOCATION
from .transforms import build_stages, minimize, run_to_completion
from .variables import classify_occurrences, free_vars_of_graph
from .wellformed import validate_well_formed


class ManifestError(InputError):
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


def _keyword_split(
    items: tuple[Node, ...], allowed: tuple[str, ...]
) -> tuple[dict[str, Node], list[Node]]:
    """Split ``:key value`` pairs; trailing (var value) forms follow :bind.

    Each key must be one of ``allowed`` and given at most once.
    """
    keyed: dict[str, Node] = {}
    binds: list[Node] = []
    i = 0
    while i < len(items):
        item = items[i]
        if isinstance(item, Atom) and item.text == ":bind":
            binds = list(items[i + 1 :])
            break
        if isinstance(item, Atom) and item.text.startswith(":"):
            if item.text not in allowed:
                expected = ", ".join(allowed + (":bind",))
                raise _err(item, f"unknown keyword '{item.text}', expected {expected}")
            if item.text in keyed:
                raise _err(item, f"duplicate keyword '{item.text}'")
            if i + 1 >= len(items):
                raise _err(item, f"'{item.text}' needs a value")
            keyed[item.text] = items[i + 1]
            i += 2
            continue
        raise _err(item, "expected a ':key value' pair or ':bind'")
    return keyed, binds


def _load_entry(
    base: Path, form: SList, who: str, file_node: Node, binds: list[Node], own: dict[str, Value]
):
    """Load an entry's activity, compile it once and build its variable map.

    ``own`` holds the variables the entry binds through keywords rather
    than ``:bind``.  Returns the activity, the map, the free variables and
    the minimal graph.
    """
    if not isinstance(file_node, (Atom, Str)):
        raise _err(file_node, "expected a file path")
    path = base / file_node.text
    act = parse_activity_file(path)
    problems = validate_well_formed(act)
    if problems:
        raise InputError(f"{path}: " + "; ".join(str(d) for d in problems))
    bindings = _parse_bindings(binds)
    if bindings.keys() & own.keys():
        raise _err(form, f"bind '{OWN_LOCATION}' through :at, not :bind")
    compressed = build_stages(act, "compress")["compress"]
    free = free_vars_of_graph(compressed)
    var_map: dict[str, Value | None] = {
        v: None for v in classify_occurrences(act).all_vars | own.keys()
    }
    unknown = ", ".join(sorted(bindings.keys() - var_map.keys()))
    if unknown:
        raise _err(form, f"{who} binds unknown variables: {unknown}")
    var_map.update(bindings)
    var_map.update(own)
    return act, var_map, free, minimize(run_to_completion(compressed))


def load_manifest(path) -> LoadedManifest:
    """Load a manifest; every ``ManifestError`` starts with its path."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return _load_forms(read_forms(text), path.parent)
    except OSError as exc:
        raise ManifestError(f"{path}: {exc.strerror or exc}") from exc
    except (ManifestError, SebSyntaxError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def _load_forms(forms: list[Node], base: Path) -> LoadedManifest:
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
            if any(svc.name == name for svc in services):
                raise _err(form, f"service '{name}' is declared twice")
            keyed, binds = _keyword_split(form.items[2:], (":file", ":at"))
            if ":file" not in keyed or ":at" not in keyed:
                raise _err(form, "service entries need :file and :at")
            at_node = keyed[":at"]
            if not isinstance(at_node, Atom):
                raise _err(at_node, "expected a location name")
            own = {OWN_LOCATION: ServiceLoc(at_node.text)}
            act, var_map, free, graph = _load_entry(
                base, form, f"service '{name}'", keyed[":file"], binds, own
            )
            try:
                services.append(make_service(name, var_map, act, graph, free))
            except ConfigurationError as exc:
                raise ManifestError(f"service '{name}' is not deployable: {exc}") from exc
        elif head == "client":
            if client_form is not None:
                raise _err(form, "a manifest holds exactly one client")
            client_form = form
        else:
            raise _err(form.items[0], f"unknown manifest entry '{head}'")

    problems = check_well_partnered(services)
    if problems:
        raise ManifestError("; ".join(str(d) for d in problems))
    if client_form is None:
        raise ManifestError("no client entry")

    keyed, binds = _keyword_split(client_form.items[1:], (":file",))
    if ":file" not in keyed:
        raise _err(client_form, "client entries need :file")
    _, var_map, free, graph = _load_entry(
        base, client_form, "client", keyed[":file"], binds, {}
    )
    try:
        client = make_client(var_map, graph, services, free)
    except ConfigurationError as exc:
        raise ManifestError(f"client is not valid: {exc}") from exc
    return LoadedManifest(tuple(services), client)
