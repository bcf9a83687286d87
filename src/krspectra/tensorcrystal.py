"""Tensor products of (affine) crystals and string statistics.

The product rule moves e_[i] to the left factor iff eps(left) > phi(right)
and f_[i] to the left factor iff eps(left) >= phi(right); the strict/weak
asymmetry is what makes the two maps mutually inverse partial bijections.
A product is a CrystalGraph on the factors' indices (0..n-1 for affine
factors) whose elements are plain (left, right) pairs.
"""

from __future__ import annotations

from collections import Counter

from .tableaux import CrystalError, CrystalGraph, canonical_weight, string_positions


def tensor(b_left, b_right):
    """Tensor product of two crystals over the same n and operator indices.

    Elements are pairs (left, right); the result's axioms are checked once.
    """
    if b_left.n != b_right.n:
        raise CrystalError("rank mismatch in tensor product")
    if b_left.indices != b_right.indices:
        raise CrystalError("cannot mix factors with different operator indices")
    n = b_left.n
    indices = b_left.indices

    elements = [(x, y) for x in b_left.elements for y in b_right.elements]
    left = {i: string_positions(b_left, i) for i in indices}
    right = {i: string_positions(b_right, i) for i in indices}

    e_maps = {i: {} for i in indices}
    f_maps = {i: {} for i in indices}
    for el in elements:
        x, y = el
        for i in indices:
            eps, phi = left[i][x][0], right[i][y][1]
            if eps > phi:
                ex = b_left.e(i, x)
                if ex is not None:
                    e_maps[i][el] = (ex, y)
            else:
                ey = b_right.e(i, y)
                if ey is not None:
                    e_maps[i][el] = (x, ey)
            if eps >= phi:
                fx = b_left.f(i, x)
                if fx is not None:
                    f_maps[i][el] = (fx, y)
            else:
                fy = b_right.f(i, y)
                if fy is not None:
                    f_maps[i][el] = (x, fy)

    wt = {
        el: tuple(a + b for a, b in zip(b_left.wt[el[0]], b_right.wt[el[1]]))
        for el in elements
    }
    g = CrystalGraph(n, elements, e_maps, f_maps, wt, indices=indices)
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
    return Counter(
        (phi + 1, canonical_weight(crys.wt[b]))
        for b, (eps, phi) in string_positions(crys, j).items()
        if eps == 0
    )


def weight_multiset(crys):
    return Counter(canonical_weight(crys.wt[b]) for b in crys.elements)
