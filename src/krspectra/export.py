"""DOT and JSON exports for crystals and operator families."""

from __future__ import annotations

import json


EDGE_COLORS = [
    "red", "blue", "darkgreen", "orange", "purple", "brown", "teal", "magenta",
]


def _label(element):
    """Tableau repr; a tensor pair (left, right) reads "left (x) right".

    A Tableau is a tuple subclass, so only a pair is a plain tuple; the test
    keeps `tableaux`, and numpy with it, out of this module's imports, which
    `cli` runs before it compiles the rest of the package."""
    if type(element) is tuple:
        return " (x) ".join(_label(part) for part in element)
    return repr(element)


def crystal_to_dot(crys) -> str:
    """DOT digraph; edges labeled by operator index, affine edges colored."""
    lines = ["digraph crystal {", '  rankdir="TB";']
    for i, b in enumerate(crys.labels):
        lines.append(f'  n{i} [label="{_label(b)}"];')
    for j in crys.indices:
        color = EDGE_COLORS[j % len(EDGE_COLORS)]
        for src, dst in _edges(crys, j):
            lines.append(f'  n{src} -> n{dst} [label="{j}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines)


def _edges(crys, j):
    """The f_j edges (source id, target id), in source order."""
    return [(src, dst) for src, dst in enumerate(crys.F[crys.row(j)].tolist()) if dst >= 0]


def crystal_to_json(crys) -> dict:
    return {
        "n": crys.n,
        "size": len(crys),
        "affine": 0 in crys.indices,
        "elements": [
            {"id": i, "label": _label(b), "weight": w}
            for i, (b, w) in enumerate(zip(crys.labels, crys.wt.tolist()))
        ],
        "edges": [
            {"op": j, "from": src, "to": dst}
            for j in crys.indices
            for src, dst in _edges(crys, j)
        ],
    }


def orbit_table(cycles) -> list:
    """The cycles of a permutation (lists of element labels) as lists of
    label strings."""
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
