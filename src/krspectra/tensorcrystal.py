"""Tensor products of (affine) crystals and string statistics.

The product rule moves e_[i] to the left factor iff eps(left) > phi(right)
and f_[i] to the left factor iff eps(left) >= phi(right); the strict/weak
asymmetry is what makes the two maps mutually inverse partial bijections.
"""

from __future__ import annotations

from collections import Counter

from .promotion import AffineCrystal
from .tableaux import CrystalError, CrystalGraph, canonical_weight, string_data


class TensorElement:
    """An ordered tuple of factor elements."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return " (x) ".join(repr(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)


def _pair(left_elem, right_elem):
    return TensorElement((left_elem, right_elem))


def _is_affine(crys):
    return isinstance(crys, AffineCrystal)


def tensor(b_left, b_right):
    """Tensor product of two crystals over the same n.

    Affine x affine gives an AffineCrystal; classical inputs give a
    CrystalGraph.  Elements are TensorElement pairs (left, right).
    """
    if b_left.n != b_right.n:
        raise CrystalError("rank mismatch in tensor product")
    n = b_left.n
    affine = _is_affine(b_left) and _is_affine(b_right)
    if _is_affine(b_left) != _is_affine(b_right):
        raise CrystalError("cannot mix affine and classical factors")
    indices = list(range(n)) if affine else list(range(1, n))

    elements = [
        _pair(x, y) for x in b_left.elements for y in b_right.elements
    ]
    eps_l = {
        (i, x): string_data(b_left, i, x)[0]
        for i in indices
        for x in b_left.elements
    }
    phi_r = {
        (i, y): string_data(b_right, i, y)[1]
        for i in indices
        for y in b_right.elements
    }

    e_maps = {i: {} for i in indices}
    f_maps = {i: {} for i in indices}
    for el in elements:
        x, y = el.parts
        for i in indices:
            if eps_l[(i, x)] > phi_r[(i, y)]:
                ex = b_left.e(i, x)
                if ex is not None:
                    e_maps[i][el] = _pair(ex, y)
            else:
                ey = b_right.e(i, y)
                if ey is not None:
                    e_maps[i][el] = _pair(x, ey)
            if eps_l[(i, x)] >= phi_r[(i, y)]:
                fx = b_left.f(i, x)
                if fx is not None:
                    f_maps[i][el] = _pair(fx, y)
            else:
                fy = b_right.f(i, y)
                if fy is not None:
                    f_maps[i][el] = _pair(x, fy)

    wt = {
        el: tuple(a + b for a, b in zip(b_left.wt[el.parts[0]], b_right.wt[el.parts[1]]))
        for el in elements
    }
    if affine:
        return AffineCrystal(n, elements, e_maps, f_maps, wt)
    g = CrystalGraph(n, elements, e_maps, f_maps, wt)
    bad = g.check_axioms()
    if bad:
        raise CrystalError(f"tensor product violates crystal axioms: {bad}")
    return g


def tensor_many(factors):
    """Left-nested iterated tensor product; a single factor passes through."""
    if not factors:
        raise CrystalError("tensor_many needs at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def string_statistics(crys, j):
    """Multiset of (string length, canonical source weight) under e_[j]/f_[j].

    The source of a string is its e_[j]-maximal element.
    """
    stats = Counter()
    seen = set()
    for b in crys.elements:
        if b in seen:
            continue
        top = b
        while True:
            up = crys.e(j, top)
            if up is None:
                break
            top = up
        chain = [top]
        cur = top
        while True:
            dn = crys.f(j, cur)
            if dn is None:
                break
            cur = dn
            chain.append(cur)
        seen.update(chain)
        stats[(len(chain), canonical_weight(crys.wt[top]))] += 1
    return stats


def weight_multiset(crys):
    return Counter(canonical_weight(crys.wt[b]) for b in crys.elements)
