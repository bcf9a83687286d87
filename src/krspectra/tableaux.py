"""Semistandard Young tableaux and the classical sl_n crystal structure.

Kashiwara operators use the signature rule on the Far-Eastern reading word
(columns bottom to top, taken left to right).  Crystal graphs are explicit
finite labeled graphs; the same graph container also carries tensor-product
and affine-view crystals elsewhere in the package.
"""

from __future__ import annotations

class CrystalError(ValueError):
    pass


class Tableau:
    """A semistandard filling, stored as a tuple of weakly increasing rows."""

    __slots__ = ("rows", "n")

    def __init__(self, rows, n):
        self.rows = tuple(tuple(r) for r in rows)
        self.n = n
        if not self.is_semistandard():
            raise CrystalError(f"not semistandard: {self.rows}")

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

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows and self.n == other.n

    def __hash__(self):
        return hash((self.rows, self.n))

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
    """A finite crystal: elements, partial maps e_i/f_i, and a weight map.

    Operator indices run over `indices` (1..n-1 for classical crystals).
    Weights are raw integer content vectors; sl_n weight classes compare via
    canonical_weight.
    """

    def __init__(self, n, elements, e_maps, f_maps, wt, indices=None):
        self.n = n
        self.elements = list(elements)
        self.e_maps = e_maps
        self.f_maps = f_maps
        self.wt = wt
        self.indices = list(indices) if indices is not None else list(range(1, n))
        self._elem_set = set(self.elements)

    def e(self, i, b):
        return self.e_maps.get(i, {}).get(b)

    def f(self, i, b):
        return self.f_maps.get(i, {}).get(b)

    def __len__(self):
        return len(self.elements)

    def check_axioms(self):
        """Pairing and weight axioms for every edge; returns None or a witness."""
        for i in self.indices:
            fmap = self.f_maps.get(i, {})
            emap = self.e_maps.get(i, {})
            for b, fb in fmap.items():
                if emap.get(fb) != b:
                    return ("pairing", i, b)
            for b, eb in emap.items():
                if fmap.get(eb) != b:
                    return ("pairing", i, b)
                dw = weight_diff(self.wt[eb], self.wt[b])
                if dw != coroot_vector(self.n, i):
                    return ("weight", i, b)
        return None

    def components(self):
        """Connected components under all e_i/f_i edges."""
        seen = {}
        comps = []
        for b in self.elements:
            if b in seen:
                continue
            comp = []
            stack = [b]
            seen[b] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for i in self.indices:
                    for nxt in (self.e(i, x), self.f(i, x)):
                        if nxt is not None and nxt not in seen:
                            seen[nxt] = True
                            stack.append(nxt)
            comps.append(comp)
        return comps

    def sources(self, comp=None):
        elems = comp if comp is not None else self.elements
        return [
            b
            for b in elems
            if all(self.e(i, b) is None for i in self.indices)
        ]

    def sinks(self, comp=None):
        elems = comp if comp is not None else self.elements
        return [
            b
            for b in elems
            if all(self.f(i, b) is None for i in self.indices)
        ]


def coroot_vector(n, i):
    """alpha_i as a content increment: +1 at i, -1 at i+1 (cyclic for i=0)."""
    v = [0] * n
    v[(i - 1) % n] += 1
    v[i % n] -= 1
    return tuple(v)


def weight_diff(w1, w2):
    return tuple(a - b for a, b in zip(w1, w2))


def canonical_weight(w):
    """Representative of the sl_n weight class: subtract the minimum entry."""
    m = min(w)
    return tuple(x - m for x in w)


def shape_from_partition(lam):
    lam = tuple(x for x in lam if x > 0)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise CrystalError(f"not a partition: {lam}")
    return lam


def build_crystal(n, lam, cap=100000) -> CrystalGraph:
    """The crystal B_lam of semistandard tableaux with the signature rule."""
    shape = shape_from_partition(lam)
    if len(shape) > n:
        raise CrystalError(f"partition {shape} has more than n={n} rows")
    elems = enumerate_ssyt(shape, n)
    if len(elems) > cap:
        raise CrystalError(f"crystal would have {len(elems)} > cap {cap} elements")
    e_maps = {i: {} for i in range(1, n)}
    f_maps = {i: {} for i in range(1, n)}
    for t in elems:
        for i in range(1, n):
            ft = f_op(i, t)
            if ft is not None:
                f_maps[i][t] = ft
            et = e_op(i, t)
            if et is not None:
                e_maps[i][t] = et
    wt = {t: t.content() for t in elems}
    g = CrystalGraph(n, elems, e_maps, f_maps, wt)
    bad = g.check_axioms()
    if bad:
        raise CrystalError(f"crystal axioms failed: {bad}")
    return g


def string_data(graph, i, b):
    """(eps, phi): how many times e_i resp. f_i apply to b before vanishing.

    Works for any graph with e(i, b) and f(i, b), classical or affine.
    """
    eps = 0
    cur = graph.e(i, b)
    while cur is not None:
        eps += 1
        cur = graph.e(i, cur)
    phi = 0
    cur = graph.f(i, b)
    while cur is not None:
        phi += 1
        cur = graph.f(i, cur)
    return eps, phi


def decompose_normal(graph: CrystalGraph):
    """Connected components with their highest-weight data.

    Returns a list of dicts: highest element(s), size, lambda (sorted source
    content), and a normal flag (exactly one source whose content is a
    partition, and exactly one sink).
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
    pair = {s1[0]: s2[0]}
    stack = [s1[0]]
    while stack:
        x = stack.pop()
        y = pair[x]
        for i in g1.indices:
            fx, fy = g1.f(i, x), g2.f(i, y)
            if (fx is None) != (fy is None):
                return False
            if fx is not None:
                if fx in pair:
                    if pair[fx] != fy:
                        return False
                else:
                    pair[fx] = fy
                    stack.append(fx)
    return len(pair) == len(g1)


def schur_polynomial(lam, xs):
    """Schur polynomial via the bialternant determinant formula, exact.

    Independent character oracle: s_lam(x_1..x_n) =
    det(x_i^(lam_j + n - j)) / det(x_i^(n - j)).
    """
    from .scalars import Mat, QQi, determinant

    n = len(xs)
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = Mat(
        [[QQi.of(xs[i]) ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    )
    den = Mat([[QQi.of(xs[i]) ** (n - 1 - j) for j in range(n)] for i in range(n)])
    return determinant(num) / determinant(den)


def character_eval(graph: CrystalGraph, elements, xs):
    """sum over elements of prod x_i^(content_i), exact."""
    from .scalars import QQi

    total = QQi(0)
    for b in elements:
        term = QQi(1)
        for i, c in enumerate(graph.wt[b]):
            term = term * QQi.of(xs[i]) ** c
        total = total + term
    return total
