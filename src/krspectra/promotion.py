"""Promotion and affine Kirillov-Reshetikhin crystals.

The promotion operator is jeu-de-taquin on the letters n, and its map on a
crystal is a list of ids.  An affine crystal is a CrystalGraph on the indices
0..n-1 (operators e_[j], f_[j] for j in Z/nZ); view(crys, j) gives its
rotated classical view B^{[j]}.  Schutzenberger's involution (propagated on
the crystal graph, and by tableau evacuation) and phi = xi o xi' are the
tests' oracles for promotion (`tests/oracles.py`), not production paths.
"""

from __future__ import annotations

from functools import cache
from math import lcm

import numpy as np

from .tableaux import (
    CrystalError,
    CrystalGraph,
    Tableau,
    build_crystal,
    crystal_isomorphic,
    decompose_normal,
)
from .tensorcrystal import tensor_many


def promote(t: Tableau) -> Tableau:
    """Jeu-de-taquin promotion: remove the n's, slide, refill, add one."""
    n = t.n
    grid = [list(row) for row in t.rows]
    holes = [
        (r, c)
        for r, row in enumerate(grid)
        for c, x in enumerate(row)
        if x == n
    ]
    for r, c in holes:
        grid[r][c] = None
    for r, c in sorted(holes, key=lambda rc: rc[1]):
        hr, hc = r, c
        while True:
            above = grid[hr - 1][hc] if hr > 0 and hc < len(grid[hr - 1]) else None
            left = grid[hr][hc - 1] if hc > 0 else None
            if above is None and left is None:
                break
            if left is None or (above is not None and above >= left):
                grid[hr][hc], grid[hr - 1][hc] = above, None
                hr -= 1
            else:
                grid[hr][hc], grid[hr][hc - 1] = left, None
                hc -= 1
    new_rows = [
        [1 if x is None else x + 1 for x in row]
        for row in grid
    ]
    return Tableau(new_rows, t.n)


def promotion_map(graph: CrystalGraph) -> list:
    """pr as a list of ids on B_lam (pr[k] = id of pr(labels[k]));
    CrystalError unless a bijection."""
    try:
        pr = [graph.id(promote(t)) for t in graph.labels]
    except KeyError:
        raise CrystalError("promotion leaves the crystal") from None
    if len(set(pr)) != len(pr):
        raise CrystalError("promotion is not a bijection")
    return pr


def cycles(perm) -> list:
    """Cycle decomposition of a permutation of the ids 0..N-1 (a list of
    images), in id order."""
    seen = [False] * len(perm)
    out = []
    for b in range(len(perm)):
        if not seen[b]:
            seen[b] = True
            cycle = [b]
            cur = perm[b]
            while cur != b:
                seen[cur] = True
                cycle.append(cur)
                cur = perm[cur]
            out.append(cycle)
    return out


def promotion_order(orbits) -> int:
    """Least m with pr^m = id: the lcm of the cycle lengths of pr."""
    return lcm(*map(len, orbits))


def restricted_graph(graph: CrystalGraph) -> CrystalGraph:
    """Forget the last operator index (restriction of the crystal)."""
    return CrystalGraph(
        graph.n, graph.labels, graph.E[:-1], graph.F[:-1], graph.wt, indices=graph.indices[:-1]
    )


# ---------------------------------------------------------------------------
# Affine crystals


def view(crys: CrystalGraph, j) -> CrystalGraph:
    """The classical crystal B^{[j]} of an affine crystal: e_i := e_[i-j],
    weights composed with the cyclic coordinate rotation by j."""
    n = crys.n
    rows = [crys.row((i - j) % n) for i in range(1, n)]
    # coordinate i of a weight moves to (i + j) mod n
    wt = np.roll(crys.wt, j, axis=1)
    return CrystalGraph(n, crys.labels, crys.E[rows], crys.F[rows], wt)


def affine_extension(graph: CrystalGraph, pr) -> CrystalGraph:
    """B_lam with e_[0] = pr^{-1} e_1 pr and f_[0] = pr^{-1} f_1 pr added.

    `pr` is the promotion map of `graph` (a list of ids).  Returns a
    CrystalGraph on the indices 0..n-1; raises CrystalError if the axioms of
    the new index 0 fail (indices 1..n-1 are B_lam's own, which
    `build_crystal` checked).
    """
    pr = np.asarray(pr)
    pr_inv = np.empty_like(pr)
    pr_inv[pr] = np.arange(len(pr))

    def conjugated(maps):  # pr^{-1} op pr for op = e_1 or f_1, which vanish when n = 1
        op = maps[graph.row(1), pr] if graph.n > 1 else np.full(len(pr), -1)
        return np.where(op < 0, -1, pr_inv[op]).reshape(1, -1)

    E = np.concatenate([conjugated(graph.E), graph.E])
    F = np.concatenate([conjugated(graph.F), graph.F])
    kr = CrystalGraph(graph.n, graph.labels, E, F, graph.wt, indices=range(graph.n))
    bad = kr.check_axioms(indices=[0])
    if bad:
        raise CrystalError(f"affine crystal axioms failed: {bad}")
    return kr


@cache
def build_kr(n, l, r) -> CrystalGraph:
    """The Kirillov-Reshetikhin crystal B_{l w_r} with pr-conjugated affine operators.

    Built once per process for each (n, l, r) and shared: a CrystalGraph's
    arrays and labels are read-only."""
    graph = build_crystal(n, (l,) * r)
    return affine_extension(graph, promotion_map(graph))


def kr_tensor_crystal(n, factors):
    """Tensor product of the KR crystals B_{l w_r}; `build_kr` builds each
    distinct factor once per process."""
    return tensor_many([build_kr(n, *f) for f in factors])


def is_rectangle(lam):
    lam = tuple(x for x in lam if x)
    return len(set(lam)) <= 1


def verify_uniqueness(graph: CrystalGraph, pr, kr: CrystalGraph | None) -> dict:
    """Certificate for the classification of affine extensions of B_lam.

    `graph` is B_lam, `pr` its promotion map and `kr` the affine crystal
    affine_extension(graph, pr) when lam is a rectangle (None, and unread,
    when it is not).  For rectangular lam = (l^r):
    checks B^{[1]} is normal and isomorphic to B_lam (B^{[0]} is B_lam by
    construction), and that the multiplicity-free restriction forces the
    extension to be unique.  For non-rectangular lam: reports
    non-extendability via the promotion order.
    """
    n = graph.n
    order = promotion_order(cycles(pr))
    report = {"promotion_order": order}
    if not is_rectangle(graph.labels[0].shape):
        report["extendable"] = False
        report["reason"] = f"promotion order {order} != n={n} (shape not rectangular)"
        report["passed"] = order != n
        return report
    report["extendable"] = True
    if order != n and len(graph) > 1:
        report["passed"] = False
        report["reason"] = f"promotion order {order} != n"
        return report
    view1 = view(kr, 1)
    comps1 = decompose_normal(view1)
    ok1 = all(c["normal"] for c in comps1) and crystal_isomorphic(view1, graph)
    # any alternative affine extension differs by a crystal automorphism of
    # the B^{[1]} view; connectedness with a unique source leaves only the
    # identity, and the multiplicity-free restriction pins the intertwiner
    auto_trivial = len(comps1) == 1 and len(view1.sources()) == 1
    src_classes = [tuple(c["lambda"]) for c in decompose_normal(restricted_graph(graph))]
    unique_restriction = len(src_classes) == len(set(src_classes))
    # view(kr, 0) has B_lam's rows and weights, checked by
    # test_view0_is_the_classical_crystal_on_the_grid
    report["view0_isomorphic"] = True
    report["view1_normal"] = ok1
    report["view1_automorphism_trivial"] = auto_trivial
    report["restriction_multiplicity_free"] = unique_restriction
    # build_crystal and affine_extension have raised on any axiom failure of
    # any index, hence of any view
    report["views_pass_axioms"] = True
    report["passed"] = all([ok1, auto_trivial, unique_restriction])
    return report
