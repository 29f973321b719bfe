"""Graph serialization: Aldebaran ``.aut`` text and Graphviz DOT.

The ``.aut`` header is ``des (init, #transitions, #states)`` followed by
one ``(from, "label", to)`` line per transition.  Silent transitions are
written ``i`` in ``.aut`` (the usual LTS-toolset convention) and ``τ`` in
DOT.  Each entry of a graph's action table is rendered once.
"""

from __future__ import annotations

from .control import ControlGraph


def to_aut(g: ControlGraph) -> str:
    labels = [action.render(tau="i") for action in g.actions]
    lines = [f"des ({g.init}, {len(g.edges)}, {g.num_states})"]
    lines += [f'({frm}, "{labels[a]}", {to})' for frm, a, to in g.edges]
    return "\n".join(lines) + "\n"


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
    labels = [action.render() for action in g.actions]
    lines += [f'  s{frm} -> s{to} [label="{labels[a]}"];' for frm, a, to in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
