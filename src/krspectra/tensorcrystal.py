"""Tensor products of (affine) crystals and string statistics.

The product rule moves e_[i] to the left factor iff eps(left) > phi(right)
and f_[i] to the left factor iff eps(left) >= phi(right); the strict/weak
asymmetry is what makes the two maps mutually inverse partial bijections.
A product is a CrystalGraph on the factors' indices (0..n-1 for affine
factors): the pair of ids (x, y) is the id x * len(right) + y, labeled by
the pair of the factors' labels, which `PairLabels` indexes rather than
stores.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from .tableaux import (
    CrystalError,
    CrystalGraph,
    canonical_weight,
    row_counts,
    string_positions,
)


class PairLabels(Sequence):
    """The labels of a product, read-only: item x * len(right) + y is the
    pair (left[x], right[y]).  It equals any sequence of the same pairs, a
    list of tuples included; a slice is a tuple."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right

    def __len__(self):
        return len(self.left) * len(self.right)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        size = len(self)
        if not -size <= k < size:
            raise IndexError(f"label index {k} out of range for {size} labels")
        x, y = divmod(k % size, len(self.right))
        return (self.left[x], self.right[y])

    def __iter__(self):
        return ((a, b) for a in self.left for b in self.right)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def tensor(b_left, b_right):
    """Tensor product of two crystals over the same n and operator indices.

    Id x * len(b_right) + y is the pair (x, y) of factor ids.  The rule is
    one comparison of the left factor's eps with the right factor's phi over
    a (k, L, R) array, from the factors' cached string positions, and the
    result's axioms are checked once.
    """
    if b_left.n != b_right.n:
        raise CrystalError("rank mismatch in tensor product")
    if b_left.indices != b_right.indices:
        raise CrystalError("cannot mix factors with different operator indices")
    size_l, size_r = len(b_left), len(b_right)
    eps = b_left.positions()[0][:, :, None]
    phi = b_right.positions()[1][:, None, :]
    x = np.arange(0, size_l * size_r, size_r).reshape(-1, 1)
    y = np.arange(size_r)

    def rule(on_left, left, right):
        # a vanishing factor operator gives a negative id, clipped to -1
        moved_left = np.where(left < 0, -size_r, left * size_r)[:, :, None] + y
        moved_right = np.where(right < 0, -size_l * size_r, right)[:, None, :] + x
        out = np.where(on_left, moved_left, moved_right).reshape(len(left), size_l * size_r)
        return np.maximum(out, -1, out=out)

    g = CrystalGraph(
        b_left.n,
        PairLabels(b_left.labels, b_right.labels),
        rule(eps > phi, b_left.E, b_right.E),
        rule(eps >= phi, b_left.F, b_right.F),
        (b_left.wt[:, None, :] + b_right.wt[None, :, :]).reshape(size_l * size_r, b_left.n),
        indices=b_left.indices,
    )
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
    tops = np.flatnonzero(eps == 0)
    rows = np.concatenate([(phi[tops] + 1).reshape(-1, 1), canonical_weight(crys.wt[tops])], axis=1)
    return Counter({(key[0], key[1:]): c for key, c in row_counts(rows).items()})


def weight_multiset(crys):
    return row_counts(canonical_weight(crys.wt))
