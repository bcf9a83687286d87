"""Numerical joint diagonalization of the exact commuting families, one
weight block at a time.

Rounded floating point lives only in this module: commutativity of every
family is established exactly upstream, so numerics do nothing but locate
eigenlines.
Every member commutes with the torus, so it maps each weight space of
`rep.weight_blocks` to itself; the pass that reads the blocks refuses a
member, or a Gram matrix, that does not.  Each block is read straight from
the exact numerators (`scalars.block_views`) and orthonormalized through a
Cholesky factor of its exact Gram block, making each member a normal matrix
in standard coordinates; normality is checked for all blocks of one size in
one batched product.  In a block larger than
1x1 the Hermitian and anti-Hermitian parts are diagonalized simultaneously
by recursive refinement; a 1x1 block's line is its basis vector, and its
values are the members' exact diagonal entries.  A line's weight is its
block's weight, so no weight is rounded, and two lines of different weights
are told apart by their weights: simplicity is decided inside each weight
block.  At a wall (i, j), a line's h is w_i - w_j of its weight, an exact
int, and its coset chain along e_i - e_j (`rep.coset_chains`) is that of its
block.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .scalars import BlockLeak, Mat, block_views
from .tableaux import canonical_weight, row_counts


# the separation, relative to the family's scale, below which eigenvalues
# are taken as equal
TOL = 1e-8


class SpectraError(ValueError):
    pass


def _standard_blocks(members, rep):
    """{b: array (blocks of size b, members, b, b)}: the members on each weight
    block in standard coordinates, T M T^{-1} with T = L^H for the Cholesky
    factor G = L L^H of the block's Gram matrix.  A 1x1 block is left as it
    is: there T M T^{-1} = M."""
    blocks = rep.weight_blocks
    try:
        views = block_views(members, blocks)
    except BlockLeak as leak:
        text = f"family member {leak.matrix} moves a weight (entry {leak.entry})"
        raise SpectraError(text) from leak
    if rep.gram == Mat.identity(rep.dim):
        return views
    try:
        grams = block_views([rep.gram], blocks)
    except BlockLeak as leak:
        raise SpectraError("the Gram matrix joins two weight spaces") from leak
    for b, arr in views.items():
        if b > 1:
            T = np.linalg.cholesky(grams[b][:, 0]).conj().swapaxes(-1, -2)
            views[b] = T[:, None] @ arr @ np.linalg.inv(T)[:, None]
    return views


def _refine(vecs, ops, tol):
    """Recursively split a degenerate block by the remaining Hermitian ops."""
    if not ops or vecs.shape[1] == 1:
        return vecs
    sub = vecs.conj().T @ ops[0] @ vecs
    sub = (sub + sub.conj().T) / 2
    vals, rot = np.linalg.eigh(sub)
    new = vecs @ rot
    out = []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) < tol:
            j += 1
        block = new[:, i : j + 1]
        if j > i:
            block = _refine(block, ops[1:], tol)
        out.append(block)
        i = j + 1
    return np.concatenate(out, axis=1)


def _pairwise_distance(values):
    """(lines, lines) array of max over members of |values[:, i] - values[:, j]|."""
    dim = values.shape[1]
    dist = np.zeros((dim, dim))
    for row in values:
        np.maximum(dist, np.abs(row[:, None] - row[None, :]), out=dist)
    return dist


class JointSpectrum:
    """Eigenlines of a commuting family with eigenvalue tuples and weights.

    The lines come block by block: `blocks[k]` lists the basis indices of
    weight block k, and the columns of `vectors[k]` (in those coordinates,
    orthonormal in standard coordinates) are its lines, in order.
    `min_separation` is the least max-over-members gap between two lines of
    one weight block, and inf when no block holds two lines.
    """

    def __init__(self, blocks, vectors, values, weights, min_separation, scale):
        self.blocks = blocks
        self.vectors = vectors
        self.values = values  # shape (members, dim)
        self.weights = weights  # one exact weight tuple per line
        self.min_separation = min_separation
        self.scale = scale

    @property
    def dim(self):
        return self.values.shape[1]

    def is_simple(self):
        return self.min_separation > TOL * max(self.scale, 1.0)


def joint_diagonalize(members, rep) -> JointSpectrum:
    """Diagonalize exact commuting matrices block by block.

    members: list of Mat (verified commuting upstream), each mapping every
    weight space of rep to itself, or SpectraError names it; rep gives the
    weight blocks, their weights and the Gram matrix.  The members go to
    standard coordinates, where each must be normal, and one deterministic
    pass finds the lines.
    """
    if not members:
        raise SpectraError("empty family")
    views = _standard_blocks(members, rep)
    scale = max(np.max(np.abs(a)) for a in views.values())
    norm_tol = 1e3 * TOL * max(scale, 1.0)
    for b, a in views.items():
        if b > 1:
            ah = a.conj().swapaxes(-1, -2)
            if np.max(np.abs(a @ ah - ah @ a)) > norm_tol:
                raise SpectraError(
                    "family member is not normal within tolerance; "
                    "check the reality conditions of the configuration"
                )
    return _joint_diagonalize_once(views, rep.weight_blocks, float(scale))


def _joint_diagonalize_once(views, blocks, scale) -> JointSpectrum:
    """Eigenlines of the members' blocks in standard coordinates (`views`, as
    `_standard_blocks` gives them), by refinement from each block's basis."""
    count = next(iter(views.values())).shape[1]
    # a Hermitian or anti-Hermitian part refines if it is nonzero in any
    # block; the parts refine in member order, the Hermitian one first
    herm, keep = {}, np.zeros((count, 2), dtype=bool)
    for b, a in views.items():
        ah = a.conj().swapaxes(-1, -2)
        herm[b] = np.stack([(a + ah) / 2, (a - ah) / (2j)], axis=2)
        keep |= np.max(np.abs(herm[b]), axis=(0, 3, 4)) > TOL
    tol = 10 * TOL * max(scale, 1.0)
    first = np.cumsum([0] + [len(p) for p in blocks.parts])
    values = np.empty((count, len(blocks.of)), dtype=np.complex128)
    vectors = [None] * len(blocks.parts)
    min_sep = np.inf
    for b, a in views.items():
        if b == 1:
            vecs = np.ones((len(a), 1, 1), dtype=np.complex128)
            vals = a[:, :, :, 0]
        else:
            start = np.eye(b, dtype=np.complex128)
            vecs = np.stack([_refine(start, list(h[keep]), tol) for h in herm[b]])
            vals = np.einsum("gil,gtil->gtl", vecs.conj(), a @ vecs[:, None])
            # the gaps over the pairs i < j of lines of one block
            i, j = np.triu_indices(b, 1)
            gaps = np.abs(vals[:, :, i] - vals[:, :, j]).max(axis=1)
            min_sep = min(min_sep, float(gaps.min()))
        group = blocks.groups[b]
        values[:, first[group][:, None] + np.arange(b)] = vals.transpose(1, 0, 2)
        for k, v in zip(group, vecs):
            vectors[k] = v
    weights = [w for w, part in zip(blocks.labels, blocks.parts) for _ in part]
    return JointSpectrum(blocks.parts, vectors, values, weights, min_sep, scale)


class SpectralStrings:
    """h-strings of a wall family."""

    def __init__(self, strings, diagnostics):
        self.strings = strings  # list of dicts: lines, length, h_values, source_weight
        self.diagnostics = diagnostics

    def statistics(self) -> Counter:
        return Counter(
            (s["length"], s["source_weight"]) for s in self.strings
        )

    def ok(self):
        return self.diagnostics["passed"]


def wall_strings(members, rep, pair):
    """The h-strings of a wall family, h = E_ii - E_jj for pair = (i, j).

    The family must be simple on every weight block.  The wall's sl_2
    commutes with it and maps each coset chain along e_i - e_j to itself, so
    a string is the lines of one chain whose member values agree within
    cluster_tol.  A line's h is w_i - w_j of its weight, an exact int; a
    string's lines, by decreasing h, must have h = m, m - 2, ..., -m.
    """
    spec = joint_diagonalize(list(members), rep)
    if not spec.is_simple():
        raise SpectraError(
            f"wall family is not simple on a weight space (gap {spec.min_separation:.3e})"
        )
    i, j = pair
    h = [w[i - 1] - w[j - 1] for w in spec.weights]
    # a line lies in its weight block, and the block in one chain
    chain_of = rep.coset_chains(i, j).of
    lines_of = {}
    first = 0
    for part in spec.blocks:
        lines_of.setdefault(chain_of[part[0]], []).extend(range(first, first + len(part)))
        first += len(part)
    cluster_tol = max(spec.scale, 1.0) * 1e-6
    strings = []
    failures = []
    tops = []
    for lines in lines_of.values():
        # each unassigned line takes every unassigned line of its chain
        # within cluster_tol of it
        near = _pairwise_distance(spec.values[:, lines]) < cluster_tol
        free = np.ones(len(lines), dtype=bool)
        for k in range(len(lines)):
            if not free[k]:
                continue
            group = np.flatnonzero(near[k] & free)
            free[group] = False
            block = sorted((lines[g] for g in group), key=lambda x: -h[x])
            hvals = [h[x] for x in block]
            m = len(block) - 1
            expected = list(range(m, -m - 1, -2))
            if hvals != expected:
                failures.append(
                    {"kind": "broken string", "values": hvals, "expected": expected}
                )
            tops.append(spec.weights[block[0]])
            strings.append({"lines": block, "length": len(block), "h_values": hvals})
    # the source of a string is its top line
    for string, w in zip(strings, canonical_weight(tops).tolist()):
        string["source_weight"] = tuple(w)
    diagnostics = {
        "passed": not failures,
        "failures": failures,
        "min_separation": spec.min_separation,
    }
    return SpectralStrings(strings, diagnostics)


def compare_with_crystal(spectral_stats_by_j, crystal) -> dict:
    """Statistics-level comparison against an affine tensor crystal.

    spectral_stats_by_j: dict j -> Counter of (length, source weight).
    Matching is per residue class plus a global weight-multiset equality.
    """
    from .tensorcrystal import string_statistics

    per_wall = {}
    for j, stats in spectral_stats_by_j.items():
        comb = string_statistics(crystal, j)
        per_wall[j] = {
            "match": comb == stats,
            "combinatorial": sorted(
                ((ln, list(w)), c) for (ln, w), c in comb.items()
            ),
            "spectral": sorted(((ln, list(w)), c) for (ln, w), c in stats.items()),
        }
    return {
        "per_wall": per_wall,
        "all_match": all(v["match"] for v in per_wall.values()),
    }


def weight_multiset_matches(weights, crystal) -> bool:
    """Whether the weight list (a rep's `weight_basis`, which is the weights
    of any family's lines) and the crystal agree as multisets of sl_n weight
    classes."""
    from .tensorcrystal import weight_multiset

    return row_counts(canonical_weight(weights)) == weight_multiset(crystal)


def eigenvalues_csv(spec: JointSpectrum) -> str:
    """CSV dump of the eigenvalue tuples, one eigenline per row."""
    lines = [
        ",".join(
            ["line", "weight"]
            + [f"re_{m}" for m in range(spec.values.shape[0])]
            + [f"im_{m}" for m in range(spec.values.shape[0])]
        )
    ]
    for j in range(spec.dim):
        col = spec.values[:, j]
        lines.append(
            ",".join(
                [str(j), "(" + " ".join(str(x) for x in spec.weights[j]) + ")"]
                + [f"{v.real:.12g}" for v in col]
                + [f"{v.imag:.12g}" for v in col]
            )
        )
    return "\n".join(lines) + "\n"

