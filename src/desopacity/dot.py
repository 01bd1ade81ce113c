"""DOT (Graphviz) export for DES and observer automata.

The observer's empty-estimate sink and its incoming transitions are not
drawn; secret states are double-circled.
"""

from __future__ import annotations

from .automata import Des, observer, project, states_of


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def des_to_dot(des: Des) -> str:
    lines = ['digraph "G" {', "  rankdir=LR;", '  __init [shape=point, label=""];']
    for q in range(des.state_count):
        shape = "doublecircle" if q in des.secret else "circle"
        lines.append(f"  n{q} [shape={shape}, label={_quote(des.state_name(q))}];")
    for q in sorted(des.initial):
        lines.append(f"  __init -> n{q};")
    for (p, e, q) in sorted(des.transitions):
        name = des.events[e].name
        label = name if des.events[e].observable else name + " (uo)"
        lines.append(f"  n{p} -> n{q} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def observer_to_dot(des: Des) -> str:
    """The observer of ``des``: states numbered in discovery order, and
    each estimate's edges read off one ``pg.step(x)``, event by event, as
    the observer reads them."""
    pg = project(des)
    n = pg.state_count
    full = (1 << n) - 1
    index = {x: i for i, x in enumerate(observer(pg))}

    def estimate_label(x):
        return "{" + ",".join(des.state_name(q) for q in states_of(x)) + "}"

    lines = ['digraph "observer" {', "  rankdir=LR;", '  __init [shape=point, label=""];']
    for x, i in index.items():
        lines.append(f"  s{i} [shape=circle, label={_quote(estimate_label(x))}];")
    lines.append("  __init -> s0;")
    for x, i in index.items():
        # transitions into the empty-estimate sink are omitted
        y = pg.step(x)
        for name in pg.event_names:
            z = y & full
            if z:
                lines.append(f"  s{i} -> s{index[z]} [label={_quote(name)}];")
            y >>= n
    lines.append("}")
    return "\n".join(lines) + "\n"
