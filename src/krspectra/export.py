"""DOT and JSON exports for crystals and operator families."""

from __future__ import annotations

import json

from .tableaux import Tableau


EDGE_COLORS = [
    "red", "blue", "darkgreen", "orange", "purple", "brown", "teal", "magenta",
]


def _label(element):
    """Tableau repr; a tensor pair (left, right) reads "left (x) right"."""
    if isinstance(element, tuple) and not isinstance(element, Tableau):  # (rows, n)
        return " (x) ".join(_label(part) for part in element)
    return repr(element)


def crystal_to_dot(crys) -> str:
    """DOT digraph; edges labeled by operator index, affine edges colored."""
    lines = ["digraph crystal {", '  rankdir="TB";']
    ids = {b: i for i, b in enumerate(crys.elements)}
    for b, i in ids.items():
        lines.append(f'  n{i} [label="{_label(b)}"];')
    for j in crys.indices:
        fmap = crys.f_maps.get(j, {})
        color = EDGE_COLORS[j % len(EDGE_COLORS)]
        for src, dst in fmap.items():
            lines.append(
                f'  n{ids[src]} -> n{ids[dst]} [label="{j}", color="{color}"];'
            )
    lines.append("}")
    return "\n".join(lines)


def crystal_to_json(crys) -> dict:
    ids = {b: i for i, b in enumerate(crys.elements)}
    return {
        "n": crys.n,
        "size": len(crys.elements),
        "affine": 0 in crys.indices,
        "elements": [
            {"id": i, "label": _label(b), "weight": list(crys.wt[b])}
            for b, i in ids.items()
        ],
        "edges": [
            {"op": j, "from": ids[src], "to": ids[dst]}
            for j in crys.indices
            for src, dst in crys.f_maps.get(j, {}).items()
        ],
    }


def orbit_table(cycles) -> list:
    """The cycles of a permutation (lists of elements) as lists of labels."""
    return [[_label(x) for x in cycle] for cycle in cycles]


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
