"""Graph serialization: Aldebaran ``.aut`` text and Graphviz DOT.

The ``.aut`` header is ``des (init, #transitions, #states)`` followed by
one ``(from, "label", to)`` line per transition.  Silent transitions are
written ``i`` in ``.aut`` (the usual LTS-toolset convention) and ``τ`` in
DOT.  Import parses labels back into symbolic actions, which is enough to
feed externally produced graphs to the transforms in tests.
"""

from __future__ import annotations

import re

from .control import Action, ControlGraph, Recv, Send, SesInit, TAU, sorted_transitions


_SESINIT = re.compile(r"([A-Za-z_$][A-Za-z0-9_$]*)@([A-Za-z_$][A-Za-z0-9_$]*)\Z")
_COMM = re.compile(
    r"([A-Za-z_$][A-Za-z0-9_$]*)([!?])([A-Za-z_$][A-Za-z0-9_$]*)\((.*)\)\Z"
)


def parse_action_label(label: str) -> Action:
    if label in ("i", "tau", "τ"):
        return TAU
    m = _SESINIT.match(label)
    if m:
        return SesInit(m.group(1), m.group(2))
    m = _COMM.match(label)
    if m:
        s, kind, op, inner = m.groups()
        names = tuple(x for x in inner.split(",") if x)
        return Send(s, op, names) if kind == "!" else Recv(s, op, names)
    raise ValueError(f"unrecognized action label: {label!r}")


def to_aut(g: ControlGraph) -> str:
    lines = [f"des ({g.init}, {len(g.transitions)}, {g.num_states})"]
    for frm, action, to in g.transitions:
        lines.append(f'({frm}, "{action.render(tau="i")}", {to})')
    return "\n".join(lines) + "\n"


_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*\Z")
_AUT_LINE = re.compile(r'\(\s*(\d+)\s*,\s*(?:"([^"]*)"|([^,]+?))\s*,\s*(\d+)\s*\)\s*\Z')


def from_aut(text: str) -> ControlGraph:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty aut input")
    header = _AUT_HEADER.match(lines[0])
    if not header:
        raise ValueError(f"bad aut header: {lines[0]!r}")
    init, n_trans, n_states = (int(x) for x in header.groups())
    transitions = []
    for line in lines[1:]:
        m = _AUT_LINE.match(line)
        if not m:
            raise ValueError(f"bad aut transition line: {line!r}")
        frm, quoted, bare, to = m.groups()
        label = quoted if quoted is not None else bare.strip()
        transitions.append((int(frm), parse_action_label(label), int(to)))
    if len(transitions) != n_trans:
        raise ValueError(
            f"aut header announces {n_trans} transitions, found {len(transitions)}"
        )
    highest = max(
        [init] + [f for f, _, _ in transitions] + [t for _, _, t in transitions],
        default=init,
    )
    if highest >= n_states:
        raise ValueError(f"aut line references state {highest} >= {n_states}")
    return ControlGraph(n_states, init, sorted_transitions(transitions))


def to_dot(g: ControlGraph) -> str:
    """DOT rendering with doubly-circled terminal states; payloads add true links."""
    sinks = set(g.sinks())
    lines = [
        "digraph control_graph {",
        "  rankdir=LR;",
        '  node [shape=circle, fontname="monospace"];',
        "  __start [shape=point];",
        f"  __start -> s{g.init};",
    ]
    for state in g.states:
        attrs = []
        if state in sinks:
            attrs.append("shape=doublecircle")
        label = str(state)
        if g.payloads is not None:
            links = sorted(g.payloads[state][0].true_links())
            if links:
                label += "\\n" + ",".join(links)
        attrs.append(f'label="{label}"')
        lines.append(f"  s{state} [{', '.join(attrs)}];")
    for frm, action, to in g.transitions:
        lines.append(f'  s{frm} -> s{to} [label="{action.render()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
