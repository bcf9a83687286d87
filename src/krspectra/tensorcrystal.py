"""Tensor products of (affine) crystals and string statistics.

The product rule moves e_[i] to the left factor iff eps(left) > phi(right)
and f_[i] to the left factor iff eps(left) >= phi(right); the strict/weak
asymmetry is what makes the two maps mutually inverse partial bijections.
A product is a CrystalGraph on the factors' indices (0..n-1 for affine
factors): the pair of ids (x, y) is the id x * len(right) + y, labeled by
the pair of the factors' labels.
"""

from __future__ import annotations

from collections import Counter
from operator import add

from .tableaux import CrystalError, CrystalGraph, canonical_weight, string_positions


def tensor(b_left, b_right):
    """Tensor product of two crystals over the same n and operator indices.

    Id x * len(b_right) + y is the pair (x, y) of factor ids; the result's
    axioms are checked once.
    """
    if b_left.n != b_right.n:
        raise CrystalError("rank mismatch in tensor product")
    if b_left.indices != b_right.indices:
        raise CrystalError("cannot mix factors with different operator indices")
    n = b_left.n
    indices = b_left.indices
    size = len(b_right)
    right_ids = range(size)

    e_maps = {}
    f_maps = {}
    for i in indices:
        eps_left = string_positions(b_left, i)[0]
        phi_right = string_positions(b_right, i)[1]
        e_left, f_left = b_left.e_maps[i], b_left.f_maps[i]
        e_right, f_right = b_right.e_maps[i], b_right.f_maps[i]
        e_out = []
        f_out = []
        for x, eps in enumerate(eps_left):
            base = x * size
            ex, fx = e_left[x], f_left[x]
            ex = None if ex is None else ex * size
            fx = None if fx is None else fx * size
            for y in right_ids:
                phi = phi_right[y]
                if eps > phi:
                    e_out.append(None if ex is None else ex + y)
                else:
                    ey = e_right[y]
                    e_out.append(None if ey is None else base + ey)
                if eps >= phi:
                    f_out.append(None if fx is None else fx + y)
                else:
                    fy = f_right[y]
                    f_out.append(None if fy is None else base + fy)
        e_maps[i] = e_out
        f_maps[i] = f_out

    labels = [(x, y) for x in b_left.labels for y in b_right.labels]
    wt = [tuple(map(add, wx, wy)) for wx in b_left.wt for wy in b_right.wt]
    g = CrystalGraph(n, labels, e_maps, f_maps, wt, indices=indices)
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
    eps, phi = string_positions(crys, j)
    wt = crys.wt
    return Counter(
        (phi[b] + 1, canonical_weight(wt[b]))
        for b, e in enumerate(eps)
        if e == 0
    )


def weight_multiset(crys):
    return Counter(canonical_weight(w) for w in crys.wt)
