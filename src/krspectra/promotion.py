"""Promotion, Schutzenberger involution, and affine Kirillov-Reshetikhin crystals.

The promotion operator is jeu-de-taquin on the letters n; the involution is
computed from the crystal graph (source-to-sink propagation), which works
uniformly for tensor-product crystals.  Tableau evacuation is kept only as an
independent cross-check for single-tableau crystals.  Affine crystals carry
operators e_[j], f_[j] for j in Z/nZ and expose the rotated classical views
B^{[j]}.
"""

from __future__ import annotations

from .tableaux import (
    CrystalError,
    CrystalGraph,
    Tableau,
    build_crystal,
    crystal_isomorphic,
    decompose_normal,
    e_op,
    f_op,
)


def promote(t: Tableau, n=None) -> Tableau:
    """Jeu-de-taquin promotion: remove the n's, slide, refill, add one."""
    n = t.n if n is None else n
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


def promotion_order(n, lam, cap=10000) -> int:
    """Least m with pr^m = id on B_lam."""
    graph = build_crystal(n, lam)
    current = {t: promote(t, n) for t in graph.elements}
    step = {t: current[t] for t in graph.elements}
    m = 1
    while any(current[t] != t for t in graph.elements):
        current = {t: step[current[t]] for t in graph.elements}
        m += 1
        if m > cap:
            raise CrystalError(f"promotion order exceeds cap {cap}")
    return m


def evacuation(t: Tableau) -> Tableau:
    """Tableau evacuation: complement entries, rotate 180, rectify.

    Optional cross-check for the graph-based involution on single-tableau
    crystals; the graph route is the one used everywhere else because it
    also covers tensor products.
    """
    n = t.n
    shape = t.shape
    nrows = len(shape)
    ncols = shape[0] if shape else 0
    filled = {}
    inner = set()
    for r in range(nrows):
        # row r of the rotated diagram comes from row nrows-1-r
        src = nrows - 1 - r
        for c in range(ncols):
            cs = ncols - 1 - c
            if cs < shape[src]:
                filled[(r, c)] = n + 1 - t.rows[src][cs]
            else:
                inner.add((r, c))

    def is_inner_corner(cell):
        r, c = cell
        return (r + 1, c) not in inner and (r, c + 1) not in inner

    while inner:
        start = max(c for c in inner if is_inner_corner(c))
        inner.discard(start)
        r, c = start
        while True:
            a = filled.get((r, c + 1))
            b = filled.get((r + 1, c))
            if a is None and b is None:
                break
            if a is None or (b is not None and b <= a):
                filled[(r, c)] = b
                del filled[(r + 1, c)]
                r += 1
            else:
                filled[(r, c)] = a
                del filled[(r, c + 1)]
                c += 1
    rows = []
    r = 0
    while (r, 0) in filled:
        row = []
        c = 0
        while (r, c) in filled:
            row.append(filled[(r, c)])
            c += 1
        rows.append(row)
        r += 1
    out = Tableau(rows, n)
    if sum(out.shape) != sum(shape):
        raise CrystalError("rectification lost cells")
    return out


def _w0_weight(w, upto):
    """Longest-element action: reverse the first `upto` coordinates."""
    return tuple(reversed(w[:upto])) + tuple(w[upto:])


def schutzenberger(graph: CrystalGraph, alphabet=None):
    """The involution determined by e_i <-> f_{m-i} intertwining on a normal graph.

    `alphabet` is the number of weight coordinates moved by the longest Weyl
    element (defaults to max(indices)+1, i.e. all letters the operators touch).
    Returns a dict element -> element.
    """
    indices = graph.indices
    if indices and indices != list(range(indices[0], indices[-1] + 1)):
        raise CrystalError("operator indices must be contiguous")
    lo = indices[0] if indices else 1
    hi = indices[-1] if indices else 0
    alphabet = alphabet if alphabet is not None else hi + 1

    def mirror(i):
        return lo + hi - i

    comps = graph.components()
    xi = {}
    sinks_by_wt = {}
    for comp in comps:
        for t in graph.sinks(comp):
            sinks_by_wt.setdefault(graph.wt[t], []).append(t)

    for comp in comps:
        srcs = graph.sources(comp)
        if len(srcs) != 1:
            raise CrystalError("graph is not normal: component without unique source")
        s = srcs[0]
        target_wt = _w0_weight(graph.wt[s], alphabet)
        candidates = sinks_by_wt.get(target_wt, [])
        placed = None
        for cand in candidates:
            trial = _propagate(graph, s, cand, mirror)
            if trial is not None:
                if placed is not None:
                    raise CrystalError("ambiguous involution: non multiplicity-free")
                placed = trial
        if placed is None:
            raise CrystalError("no valid involution image for a component")
        xi.update(placed)

    for b, img in xi.items():
        if xi[img] != b:
            raise CrystalError("computed map is not an involution")
        if graph.wt[img] != _w0_weight(graph.wt[b], alphabet):
            raise CrystalError("weight relation failed")
    return xi


def _propagate(graph, source, image, mirror):
    out = {source: image}
    stack = [source]
    used = {image}
    while stack:
        b = stack.pop()
        for i in graph.indices:
            fb = graph.f(i, b)
            if fb is None:
                continue
            want = graph.e(mirror(i), out[b])
            if want is None:
                return None
            if fb in out:
                if out[fb] != want:
                    return None
            else:
                if want in used:
                    return None
                out[fb] = want
                used.add(want)
                stack.append(fb)
    return out


def restricted_graph(graph: CrystalGraph, drop_top=1) -> CrystalGraph:
    """Forget the last `drop_top` operator indices (restriction of the crystal)."""
    kept = graph.indices[: len(graph.indices) - drop_top]
    return CrystalGraph(
        graph.n,
        graph.elements,
        {i: graph.e_maps[i] for i in kept},
        {i: graph.f_maps[i] for i in kept},
        graph.wt,
        indices=kept,
    )


def phi_operator(graph: CrystalGraph, n=None):
    """The composition xi_B o xi_{B restricted}; equals promotion on B_lam."""
    n = n if n is not None else graph.n
    xi_full = schutzenberger(graph, alphabet=n)
    xi_restr = schutzenberger(restricted_graph(graph), alphabet=n - 1)
    return {b: xi_full[xi_restr[b]] for b in graph.elements}


# ---------------------------------------------------------------------------
# Affine crystals


class AffineCrystal:
    """A finite crystal with operators e_[j], f_[j] for j in Z/nZ.

    Every rotated view B^{[j]} (operators e_i := e_[i-j], weights composed
    with the cyclic coordinate rotation) must satisfy the classical axioms;
    this is checked at construction time.
    """

    def __init__(self, n, elements, e_maps, f_maps, wt, check=True):
        self.n = n
        self.elements = list(elements)
        self.e_maps = {j % n: dict(m) for j, m in e_maps.items()}
        self.f_maps = {j % n: dict(m) for j, m in f_maps.items()}
        for j in range(n):
            self.e_maps.setdefault(j, {})
            self.f_maps.setdefault(j, {})
        self.wt = dict(wt)
        if check:
            bad = self.check_invariants()
            if bad:
                raise CrystalError(f"affine crystal invariants failed: {bad}")

    def e(self, j, b):
        return self.e_maps[j % self.n].get(b)

    def f(self, j, b):
        return self.f_maps[j % self.n].get(b)

    def __len__(self):
        return len(self.elements)

    def view(self, j) -> CrystalGraph:
        """The classical crystal B^{[j]}: e_i := e_[i-j], rotated weights."""
        n = self.n
        e_maps = {i: self.e_maps[(i - j) % n] for i in range(1, n)}
        f_maps = {i: self.f_maps[(i - j) % n] for i in range(1, n)}
        wt = {b: _rotate(w, j) for b, w in self.wt.items()}
        return CrystalGraph(n, self.elements, e_maps, f_maps, wt)

    def check_invariants(self):
        """None, or the first view whose classical axioms fail, with the witness.

        The views together check the pairing and the weight of every edge of
        every e_[j]: view j covers all operators but e_[-j].
        """
        for j in range(self.n):
            bad = self.view(j).check_axioms()
            if bad:
                return ("view", j, bad)
        return None


def _rotate(w, j):
    n = len(w)
    out = [0] * n
    for i in range(n):
        out[(i + j) % n] = w[i]
    return tuple(out)


def build_kr(n, l, r) -> AffineCrystal:
    """The Kirillov-Reshetikhin crystal B_{l w_r} with pr-conjugated affine operators."""
    graph = build_crystal(n, (l,) * r)
    pr = {t: promote(t, n) for t in graph.elements}
    pr_inv = {v: k for k, v in pr.items()}
    if len(pr_inv) != len(pr):
        raise CrystalError("promotion is not a bijection")
    e0 = {}
    f0 = {}
    for t in graph.elements:
        img = e_op(1, pr[t])
        if img is not None:
            e0[t] = pr_inv[img]
        img = f_op(1, pr[t])
        if img is not None:
            f0[t] = pr_inv[img]
    e_maps = {0: e0}
    f_maps = {0: f0}
    for i in range(1, n):
        e_maps[i] = graph.e_maps[i]
        f_maps[i] = graph.f_maps[i]
    return AffineCrystal(n, graph.elements, e_maps, f_maps, graph.wt)


def is_rectangle(lam):
    lam = tuple(x for x in lam if x)
    return len(set(lam)) <= 1


def verify_uniqueness(n, lam) -> dict:
    """Certificate for the classification of affine extensions of B_lam.

    For rectangular lam = (l^r): checks B^{[0]} isomorphic to B_lam, all views
    satisfy the axioms, B^{[1]} is normal, and that the multiplicity-free
    restriction forces the extension to be unique.  For non-rectangular lam:
    reports non-extendability via the promotion order.
    """
    report = {"n": n, "lambda": list(lam)}
    order = promotion_order(n, lam)
    report["promotion_order"] = order
    if not is_rectangle(lam):
        report["extendable"] = False
        report["reason"] = f"promotion order {order} != n={n} (shape not rectangular)"
        report["passed"] = order != n
        return report
    l, r = lam[0], len([x for x in lam if x])
    report["extendable"] = True
    if order != n and len(build_crystal(n, lam)) > 1:
        report["passed"] = False
        report["reason"] = f"promotion order {order} != n"
        return report
    kr = build_kr(n, l, r)
    fresh = build_crystal(n, lam)
    ok0 = crystal_isomorphic(kr.view(0), fresh)
    view1 = kr.view(1)
    comps1 = decompose_normal(view1)
    ok1 = all(c["normal"] for c in comps1) and crystal_isomorphic(view1, fresh)
    # any alternative affine extension differs by a crystal automorphism of
    # the B^{[1]} view; connectedness with a unique source leaves only the
    # identity, and the multiplicity-free restriction pins the intertwiner
    auto_trivial = len(comps1) == 1 and len(view1.sources()) == 1
    restr = restricted_graph(fresh)
    src_classes = []
    for comp in decompose_normal(restr):
        src_classes.append(tuple(comp["lambda"]))
    unique_restriction = len(src_classes) == len(set(src_classes))
    report["view0_isomorphic"] = ok0
    report["view1_normal"] = ok1
    report["view1_automorphism_trivial"] = auto_trivial
    report["restriction_multiplicity_free"] = unique_restriction
    report["views_pass_axioms"] = kr.check_invariants() is None
    report["passed"] = all(
        [ok0, ok1, auto_trivial, unique_restriction, report["views_pass_axioms"]]
    )
    return report
