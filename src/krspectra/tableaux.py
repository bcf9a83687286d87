"""Semistandard Young tableaux and the classical sl_n crystal structure.

Kashiwara operators use the signature rule on the Far-Eastern reading word
(columns bottom to top, taken left to right).  Crystal graphs are explicit
finite graphs on integer ids, each id labeled by its tableau or tensor pair;
the same container carries the affine KR crystals (operator indices
0..n-1), their classical views and tensor products.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter, sub


class CrystalError(ValueError):
    pass


class Tableau(tuple):
    """A semistandard filling: the tuple (rows, n), compared and hashed as a tuple."""

    __slots__ = ()

    rows = property(itemgetter(0))
    n = property(itemgetter(1))

    def __new__(cls, rows, n):
        self = tuple.__new__(cls, (tuple(tuple(r) for r in rows), n))
        if not self.is_semistandard():
            raise CrystalError(f"not semistandard: {self.rows}")
        return self

    def is_semistandard(self):
        rows = self.rows
        for r, row in enumerate(rows):
            if r + 1 < len(rows) and len(rows[r + 1]) > len(row):
                return False
            for c, x in enumerate(row):
                if not (1 <= x <= self.n):
                    return False
                if c + 1 < len(row) and row[c + 1] < x:
                    return False
                if r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r + 1][c] <= x:
                    return False
        return True

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    def content(self):
        c = [0] * self.n
        for row in self.rows:
            for x in row:
                c[x - 1] += 1
        return tuple(c)

    def __repr__(self):
        return "/".join("".join(str(x) for x in row) for row in self.rows)


def enumerate_ssyt(shape, n):
    """All semistandard tableaux of the given shape with entries <= n."""
    shape = tuple(shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise CrystalError(f"shape must weakly decrease: {shape}")
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    results = []
    grid = [[0] * ln for ln in shape]

    def fill(k):
        if k == len(cells):
            results.append(Tableau([row[:] for row in grid], n))
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            fill(k + 1)
        grid[r][c] = 0

    fill(0)
    return results


def reading_order(shape):
    """Cell positions in Far-Eastern reading order."""
    ncols = shape[0] if shape else 0
    out = []
    for c in range(ncols):
        col_height = sum(1 for ln in shape if ln > c)
        for r in range(col_height - 1, -1, -1):
            out.append((r, c))
    return out


def _signature_positions(t: Tableau, i):
    """Unmatched positions for the letters i (close) and i+1 (open).

    Returns (unmatched_closes, unmatched_opens), each a list of cell
    positions in reading order; an i+1 earlier in the word matches an i later.
    """
    closes = []
    opens = []
    for pos in reading_order(t.shape):
        x = t.rows[pos[0]][pos[1]]
        if x == i + 1:
            opens.append(pos)
        elif x == i:
            if opens:
                opens.pop()
            else:
                closes.append(pos)
    return closes, opens


def _replace(t: Tableau, pos, value):
    rows = [list(r) for r in t.rows]
    rows[pos[0]][pos[1]] = value
    return Tableau(rows, t.n)


def f_op(i, t: Tableau):
    """Lowering operator: turn the rightmost unmatched i into i+1."""
    if not (1 <= i <= t.n - 1):
        raise CrystalError(f"index {i} out of range for n={t.n}")
    closes, _ = _signature_positions(t, i)
    if not closes:
        return None
    return _replace(t, closes[-1], i + 1)


def e_op(i, t: Tableau):
    """Raising operator: turn the leftmost unmatched i+1 into i."""
    if not (1 <= i <= t.n - 1):
        raise CrystalError(f"index {i} out of range for n={t.n}")
    _, opens = _signature_positions(t, i)
    if not opens:
        return None
    return _replace(t, opens[0], i)


# ---------------------------------------------------------------------------
# Crystal graphs


class CrystalGraph:
    """A finite crystal on the integer ids 0..N-1.

    labels[k] is the tableau or (left, right) pair that id k stands for;
    only export, jeu de taquin and `id` read them.  e_maps[i] and f_maps[i]
    are lists of target ids, None where the operator vanishes, for i in
    `indices`: 1..n-1 for classical crystals, 0..n-1 for affine ones.
    wt[k] is the raw integer content vector of id k; sl_n weight classes
    compare via canonical_weight.
    """

    def __init__(self, n, labels, e_maps, f_maps, wt, indices=None):
        self.n = n
        self.labels = list(labels)
        self.e_maps = e_maps
        self.f_maps = f_maps
        self.wt = wt
        self.indices = list(indices) if indices is not None else list(range(1, n))
        self._ids = None

    @property
    def elements(self):
        return range(len(self.labels))

    def id(self, label):
        """The id of an element given by its label; KeyError if absent."""
        if self._ids is None:
            self._ids = {b: k for k, b in enumerate(self.labels)}
        return self._ids[label]

    def e(self, i, b):
        return self.e_maps[i][b]

    def f(self, i, b):
        return self.f_maps[i][b]

    def __len__(self):
        return len(self.labels)

    def check_axioms(self):
        """Pairing and weight axioms for every edge; returns None or a witness
        (kind, i, id).

        coroot_vector is cyclic for i=0, so on an affine crystal one pass
        checks every edge of every e_[j] once.
        """
        wt = self.wt
        for i in self.indices:
            fmap = self.f_maps[i]
            emap = self.e_maps[i]
            alpha = coroot_vector(self.n, i)
            for b, fb in enumerate(fmap):
                if fb is not None and emap[fb] != b:
                    return ("pairing", i, b)
            for b, eb in enumerate(emap):
                if eb is None:
                    continue
                if fmap[eb] != b:
                    return ("pairing", i, b)
                if tuple(map(sub, wt[eb], wt[b])) != alpha:
                    return ("weight", i, b)
        return None

    def components(self):
        """Connected components under all e_i/f_i edges, as lists of ids."""
        maps = [m for i in self.indices for m in (self.e_maps[i], self.f_maps[i])]
        seen = [False] * len(self)
        comps = []
        for b in self.elements:
            if seen[b]:
                continue
            comp = []
            stack = [b]
            seen[b] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for m in maps:
                    nxt = m[x]
                    if nxt is not None and not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
            comps.append(comp)
        return comps

    def sources(self, comp=None):
        return self._ends(self.e_maps, comp)

    def sinks(self, comp=None):
        return self._ends(self.f_maps, comp)

    def _ends(self, op_maps, comp):
        maps = [op_maps[i] for i in self.indices]
        elems = comp if comp is not None else self.elements
        return [b for b in elems if all(m[b] is None for m in maps)]


def coroot_vector(n, i):
    """alpha_i as a content increment: +1 at i, -1 at i+1 (cyclic for i=0)."""
    v = [0] * n
    v[(i - 1) % n] += 1
    v[i % n] -= 1
    return tuple(v)


def canonical_weight(w):
    """Representative of the sl_n weight class: subtract the minimum entry."""
    return tuple(map(sub, w, repeat(min(w))))


def shape_from_partition(lam):
    lam = tuple(x for x in lam if x > 0)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise CrystalError(f"not a partition: {lam}")
    return lam


def ssyt_count(shape, n):
    """Number of semistandard tableaux of the shape with entries <= n.

    Hook-content formula: prod over cells (n + c - r) / hook(r, c).
    """
    cols = [sum(1 for ln in shape if ln > c) for c in range(shape[0] if shape else 0)]
    num = den = 1
    for r, ln in enumerate(shape):
        for c in range(ln):
            num *= n + c - r
            den *= (ln - c) + (cols[c] - r) - 1
    return num // den


def build_crystal(n, lam, cap=100000) -> CrystalGraph:
    """The crystal B_lam of semistandard tableaux with the signature rule."""
    shape = shape_from_partition(lam)
    if len(shape) > n:
        raise CrystalError(f"partition {shape} has more than n={n} rows")
    size = ssyt_count(shape, n)
    if size > cap:
        raise CrystalError(f"crystal would have {size} > cap {cap} elements")
    elems = enumerate_ssyt(shape, n)
    ids = {t: k for k, t in enumerate(elems)}

    def targets(op, i):
        return [None if (u := op(i, t)) is None else ids[u] for t in elems]

    e_maps = {i: targets(e_op, i) for i in range(1, n)}
    f_maps = {i: targets(f_op, i) for i in range(1, n)}
    wt = [t.content() for t in elems]
    g = CrystalGraph(n, elems, e_maps, f_maps, wt)
    bad = g.check_axioms()
    if bad:
        raise CrystalError(f"crystal axioms failed: {bad}")
    return g


def string_positions(graph, i):
    """Per-id lists (eps, phi): how many times e_i resp. f_i apply to each id
    before vanishing.

    Walks each i-string once, down from its top (the element e_i kills).
    Works for any graph with e and f maps, classical or affine.
    """
    emap, fmap = graph.e_maps[i], graph.f_maps[i]
    eps = [None] * len(emap)
    phi = [None] * len(emap)
    for top, up in enumerate(emap):
        if up is not None:
            continue
        chain = [top]
        cur = fmap[top]
        while cur is not None:
            chain.append(cur)
            cur = fmap[cur]
        last = len(chain) - 1
        for k, b in enumerate(chain):
            eps[b] = k
            phi[b] = last - k
    return eps, phi


def decompose_normal(graph: CrystalGraph):
    """Connected components with their highest-weight data.

    Returns a list of dicts: the ids of the highest element(s) and of all
    elements, size, lambda (source content), and a normal flag (exactly one
    source whose content is a partition, and exactly one sink).
    """
    lo = graph.indices[0] - 1 if graph.indices else 0
    hi = graph.indices[-1] + 1 if graph.indices else 1
    out = []
    for comp in graph.components():
        srcs = graph.sources(comp)
        snks = graph.sinks(comp)
        lam = None
        normal = len(srcs) == 1 and len(snks) == 1
        if len(srcs) == 1:
            c = graph.wt[srcs[0]]
            lam = tuple(c)
            # dominance only on the coordinates the operators touch
            if any(c[i] < c[i + 1] for i in range(lo, hi - 1)):
                normal = False
        out.append(
            {
                "sources": srcs,
                "size": len(comp),
                "lambda": lam,
                "normal": normal,
                "elements": comp,
            }
        )
    return out


def crystal_isomorphic(g1: CrystalGraph, g2: CrystalGraph) -> bool:
    """Isomorphism test for connected crystals with a unique source each."""
    s1 = g1.sources()
    s2 = g2.sources()
    if len(s1) != 1 or len(s2) != 1 or len(g1) != len(g2):
        return False
    if g1.indices != g2.indices:
        return False
    if canonical_weight(g1.wt[s1[0]]) != canonical_weight(g2.wt[s2[0]]):
        return False
    pair = [None] * len(g1)
    pair[s1[0]] = s2[0]
    matched = 1
    stack = [s1[0]]
    maps = [(g1.f_maps[i], g2.f_maps[i]) for i in g1.indices]
    while stack:
        x = stack.pop()
        y = pair[x]
        for f1, f2 in maps:
            fx, fy = f1[x], f2[y]
            if (fx is None) != (fy is None):
                return False
            if fx is not None:
                if pair[fx] is not None:
                    if pair[fx] != fy:
                        return False
                else:
                    pair[fx] = fy
                    matched += 1
                    stack.append(fx)
    return matched == len(g1)


def schur_polynomial(lam, xs):
    """Schur polynomial via the bialternant determinant formula, exact.

    Independent character oracle: s_lam(x_1..x_n) =
    det(x_i^(lam_j + n - j)) / det(x_i^(n - j)).
    """
    from .scalars import QQi, cdet

    n = len(xs)
    lam = tuple(lam) + (0,) * (n - len(lam))
    # on commuting entries the column determinant is the determinant
    num = [[QQi.of(xs[i]) ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    den = [[QQi.of(xs[i]) ** (n - 1 - j) for j in range(n)] for i in range(n)]
    return cdet(num) / cdet(den)


def character_eval(graph: CrystalGraph, elements, xs):
    """sum over the ids `elements` of prod x_i^(content_i), exact."""
    from .scalars import QQi

    total = QQi(0)
    for b in elements:
        term = QQi(1)
        for i, c in enumerate(graph.wt[b]):
            term = term * QQi.of(xs[i]) ** c
        total = total + term
    return total
