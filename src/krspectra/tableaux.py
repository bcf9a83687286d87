"""Semistandard Young tableaux and the classical sl_n crystal structure.

Kashiwara operators use the signature rule on the Far-Eastern reading word
(columns bottom to top, taken left to right).  `build_crystal` applies it to
all tableaux of a shape at once: their reading words are the rows of one
(N, L) int array, each e_i and f_i is read off the prefix sums of one array
pass per index, and targets are matched to ids by a sorted search over
packed word keys (`row_keys`); the rule on one tableau is the tests' oracle.
Crystal graphs are explicit finite graphs on integer ids, stored as
read-only numpy int arrays, each id labeled by its tableau or tensor pair;
the same container carries the affine KR crystals (operator indices
0..n-1), their classical views and tensor products.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import MutableSequence, Sequence
from operator import itemgetter

import numpy as np


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

    def __repr__(self):
        return "/".join("".join(str(x) for x in row) for row in self.rows)


def column_heights(shape):
    """The height of each column of a partition shape, left to right."""
    return [sum(1 for ln in shape if ln > c) for c in range(shape[0] if shape else 0)]


def enumerate_ssyt(shape, n):
    """All semistandard tableaux of the given shape with entries <= n, in
    lexicographic order of their rows read one after another.

    Cell (r, c) holds at most n - (height of column c - 1 - r), since the
    entries below it in its column strictly increase up to n; without that
    bound the search would explore branches with no tableau in them.
    """
    shape = tuple(shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise CrystalError(f"shape must weakly decrease: {shape}")
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    height = column_heights(shape)
    results = []
    grid = [[0] * ln for ln in shape]

    def fill(k):
        if k == len(cells):
            # semistandard by construction, so Tableau's check is skipped
            results.append(tuple.__new__(Tableau, (tuple(map(tuple, grid)), n)))
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n - height[c] + r + 2):
            grid[r][c] = v
            fill(k + 1)
        grid[r][c] = 0

    fill(0)
    return results


def reading_order(shape):
    """Cell positions in Far-Eastern reading order."""
    return [(r, c) for c, h in enumerate(column_heights(shape)) for r in range(h - 1, -1, -1)]


# ---------------------------------------------------------------------------
# Crystal graphs


def _frozen(a, shape, what):
    """`a` as a read-only int array of the given shape.

    Only a view is frozen, so a caller's own array keeps its flags; the graph
    shares the arrays it is given, so the caller must not write to them
    afterwards."""
    a = np.asarray(a, dtype=np.intp).view()
    if a.size == 0:
        a = a.reshape(shape)  # no rows at all, e.g. the maps of an n = 1 crystal
    if a.shape != shape:
        raise CrystalError(f"{what} has shape {a.shape}, expected {shape}")
    a.setflags(write=False)
    return a


class CrystalGraph:
    """A finite crystal on the integer ids 0..N-1, stored as read-only int arrays.

    E and F are (k, N): row r holds the targets of e_i and f_i for
    i = indices[r], -1 where the operator vanishes; `indices` is 1..n-1 for
    classical crystals and 0..n-1 for affine ones.  wt is (N, n): wt[k] is the
    raw integer content vector of id k; sl_n weight classes compare via
    canonical_weight.  labels[k] is the tableau or (left, right) pair that id
    k stands for; labels is a tuple or another read-only sequence, so a
    graph can be shared (`promotion.build_kr` builds each once per process).
    """

    def __init__(self, n, labels, E, F, wt, indices=None):
        self.n = n
        self.indices = tuple(indices) if indices is not None else tuple(range(1, n))
        self.wt = _frozen(wt, (len(wt), n), "wt")
        size = (len(self.indices), len(self.wt))
        self.E = _frozen(E, size, "E")
        self.F = _frozen(F, size, "F")
        if self.E.size and (
            min(self.E.min(), self.F.min()) < -1 or max(self.E.max(), self.F.max()) >= size[1]
        ):
            raise CrystalError("an operator target is not an id")
        read_only = isinstance(labels, Sequence) and not isinstance(labels, MutableSequence)
        self.labels = labels if read_only else tuple(labels)
        self._rows = {i: r for r, i in enumerate(self.indices)}
        self._ids = None
        self._positions = None

    @property
    def elements(self):
        return range(len(self.wt))

    def id(self, label):
        """The id of an element given by its label; KeyError if absent."""
        if self._ids is None:
            self._ids = {b: k for k, b in enumerate(self.labels)}
        return self._ids[label]

    def row(self, i):
        """The row of E and F that holds operator index i."""
        return self._rows[i]

    def __len__(self):
        return len(self.wt)

    def check_axioms(self, indices=None):
        """Pairing and weight axioms for every edge of the operator indices
        `indices` (all of them by default); returns None or the first witness
        (kind, i, id): index by index, the f-pairing of every id before the
        e-pairing and weight of every id.

        coroot_vector is cyclic for i=0, so on an affine crystal one pass
        checks every edge of every e_[j] once.
        """
        if indices is None:
            indices = self.indices
            E, F = self.E, self.F
        else:
            picked = [self._rows[i] for i in indices]
            E, F = self.E[picked], self.F[picked]
        k, size = E.shape
        rows = np.arange(k).reshape(k, 1)
        ids = np.arange(size)
        alpha = np.array([coroot_vector(self.n, i) for i in indices], dtype=np.intp)
        alpha = alpha.reshape(k, self.n)  # also when k = 0 or n = 1
        # a vanishing operator (-1) reads the last id, and the mask drops it
        has_e = E >= 0
        f_unpaired = (F >= 0) & (E[rows, F] != ids)
        e_unpaired = has_e & (F[rows, E] != ids)
        # the weight axiom one coordinate at a time, on (k, N) arrays
        wrong_wt = np.zeros((k, size), dtype=bool)
        for j, col in enumerate(np.ascontiguousarray(self.wt.T)):
            wrong_wt |= col[E] - col != alpha[:, j : j + 1]
        e_bad = e_unpaired | (has_e & wrong_wt)
        bad = f_unpaired | e_bad
        if not bad.any():
            return None
        r = int(bad.any(axis=1).argmax())
        i = indices[r]
        if f_unpaired[r].any():
            return ("pairing", i, int(f_unpaired[r].argmax()))
        b = int(e_bad[r].argmax())
        return ("pairing" if e_unpaired[r, b] else "weight", i, b)

    def positions(self):
        """(eps, phi), (k, N) arrays like E and F: how many times e_i resp.
        f_i apply to each id before vanishing.

        Computed once per graph, the maps being read-only, by one walk over
        all strings of all indices at once: eps counts the steps down each
        i-string from its top, phi the steps up from its bottom.
        CrystalError names (i, id) of an id on no i-string (an f_i cycle).
        """
        if self._positions is None:
            k, size = self.E.shape
            # rows 0..k-1 walk down from the tops, rows k..2k-1 up from the bottoms
            step = np.concatenate([self.F, self.E])
            offset = np.arange(0, 2 * k * size, size).reshape(2 * k, 1)
            step = np.where(step < 0, -1, step + offset).ravel()
            starts = np.flatnonzero(np.concatenate([self.E, self.F]) < 0)
            dist = _string_walk(starts, step, size)
            if dist.size and dist.min() < 0:
                r, b = divmod(int(dist.argmin()), size)
                i = self.indices[r % k]
                raise CrystalError(f"(i, id) = {(i, b)}: id {b} lies on no {i}-string")
            dist = dist.reshape(2, k, size)
            dist.setflags(write=False)
            self._positions = (dist[0], dist[1])
        return self._positions

    def components(self):
        """Connected components under all e_i/f_i edges, as lists of ids."""
        maps = self.E.tolist() + self.F.tolist()
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
                    if nxt >= 0 and not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
            comps.append(comp)
        return comps

    def sources(self, comp=None):
        return self._ends(self.E, comp)

    def sinks(self, comp=None):
        return self._ends(self.F, comp)

    def _ends(self, maps, comp):
        end = (maps < 0).all(axis=0).tolist()
        return [b for b in (comp if comp is not None else self.elements) if end[b]]


def _string_walk(starts, step, size):
    """For each flat position, the number of `step`s (-1 where the map ends)
    from the start of its walk, all walks from `starts` at once; -1 where no
    walk arrives.

    A string has at most `size` elements, so a longer walk is a cycle
    entered from outside (a map that is not injective).
    """
    out = np.full(step.size, -1, dtype=np.intp)
    cur = starts
    for d in range(size + 1):
        if not cur.size:
            return out
        out[cur] = d
        cur = step[cur]
        cur = cur[cur >= 0]
    raise CrystalError("an operator map revisits an id: not a crystal")


def coroot_vector(n, i):
    """alpha_i as a content increment: +1 at i, -1 at i+1 (cyclic for i=0)."""
    v = [0] * n
    v[(i - 1) % n] += 1
    v[i % n] -= 1
    return tuple(v)


def canonical_weight(w):
    """Representatives of sl_n weight classes, as an array: each weight (a
    row of `w`, or `w` itself when it is one weight) minus its minimum entry."""
    w = np.asarray(w)
    return w - w.min(axis=-1, keepdims=True)


def row_keys(rows):
    """One int64 key per row of a nonnegative (m, c) int array with m >= 1:
    equal rows have equal keys, and keys order as the rows do
    lexicographically.

    The columns are packed, left to right, each column a digit in base (its
    max + 1); before a digit would overflow the keys, they are replaced by
    their ranks, which keep their order and are below m.  So keys compare
    only within one call: rows to be matched are packed together.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1  # every key is below span
    for col, base in zip(rows.T, (rows.max(axis=0) + 1).tolist()):
        if span * base >= 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key = key * base + col
        span *= base
    return key


def row_counts(rows) -> Counter:
    """Counter of the rows of a nonnegative (m, c) int array, keyed by tuples
    of Python ints, in lexicographic order: equal rows are runs of the sorted
    `row_keys`.
    """
    m = len(rows)
    if not m:
        return Counter()
    key = row_keys(rows)
    order = key.argsort()
    key = key[order]
    edge = np.empty(m + 1, dtype=bool)
    edge[0] = edge[m] = True
    np.not_equal(key[1:], key[:-1], out=edge[1:m])
    bounds = np.flatnonzero(edge)
    runs = bounds[1:] - bounds[:-1]
    return Counter(dict(zip(map(tuple, rows[order[bounds[:-1]]].tolist()), runs.tolist())))


def shape_from_partition(lam):
    """The nonzero parts of a partition given as a non-increasing tuple of
    nonnegative parts; trailing zeros are allowed."""
    lam = tuple(lam)
    if any(x < 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise CrystalError(f"not a partition: {lam}")
    return tuple(x for x in lam if x > 0)


def ssyt_count(shape, n):
    """Number of semistandard tableaux of the shape with entries <= n.

    Hook-content formula: prod over cells (n + c - r) / hook(r, c).
    """
    cols = column_heights(shape)
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
    words = reading_words(shape, elems)
    E, F = signature_rule(words, n)
    g = CrystalGraph(n, elems, E, F, letter_counts(words, n))
    bad = g.check_axioms()
    if bad:
        raise CrystalError(f"crystal axioms failed: {bad}")
    return g


def reading_words(shape, tableaux):
    """(N, L) int array: row k is the Far-Eastern reading word of tableaux[k],
    each of the given shape with L cells."""
    start = [sum(shape[:r]) for r in range(len(shape))]
    flat = np.array([x for t in tableaux for row in t.rows for x in row], dtype=np.intp)
    words = flat.reshape(len(tableaux), sum(shape))
    return words[:, [start[r] + c for r, c in reading_order(shape)]]


def signature_rule(words, n):
    """(E, F), (n-1, N) id arrays: Kashiwara's signature rule on the rows of
    `words`, an (N, L) int array of Far-Eastern reading words in the letters
    1..n, one array pass per index i.

    Count letter i+1 as +1 and letter i as -1, and let m be the least prefix
    sum, the empty prefix counting 0.  f_i turns into i+1 the letter where
    the prefix sums first reach m, if m < 0: the rightmost i that no earlier
    i+1 brackets.  e_i turns into i the letter right after the last prefix
    that sums to m, if the word ends above m: the leftmost unbracketed i+1.
    The targets of all indices are found by one sorted search over the
    `row_keys` of the words and the targets; a target that is not a row
    raises CrystalError.
    """
    size, length = words.shape
    indices = range(1, n)
    sums = np.zeros((size, length + 1), dtype=np.intp)
    found = []  # (0 for f_i or 1 for e_i, row, sources, cells, new letter)
    for r, i in enumerate(indices):
        np.cumsum((words == i + 1).view(np.int8) - (words == i), axis=1, out=sums[:, 1:])
        low = sums.min(axis=1)
        at_low = sums == low[:, None]
        f_src = np.flatnonzero(low < 0)
        e_src = np.flatnonzero(sums[:, length] > low)
        found += [
            (0, r, f_src, at_low[f_src].argmax(axis=1) - 1, i + 1),
            (1, r, e_src, length - at_low[e_src, ::-1].argmax(axis=1), i),
        ]
    maps = np.full((2, len(indices), size), -1, dtype=np.intp)
    if found:
        which, rows, sources, cells, letters = zip(*found)
        counts = [len(src) for src in sources]
        sources = np.concatenate(sources)
        targets = words[sources]
        targets[np.arange(len(sources)), np.concatenate(cells)] = np.repeat(letters, counts)
        maps[np.repeat(which, counts), np.repeat(rows, counts), sources] = _row_ids(words, targets)
    F, E = maps
    return E, F


def _row_ids(rows, targets):
    """The row index of each target row; CrystalError names one that is no row."""
    keys = row_keys(np.concatenate([rows, targets]))
    own, wanted = keys[: len(rows)], keys[len(rows) :]
    order = own.argsort()
    own = own[order]
    at = np.searchsorted(own, wanted).clip(max=len(own) - 1)
    missing = own[at] != wanted
    if missing.any():
        word = targets[missing.argmax()].tolist()
        raise CrystalError(f"an operator target is not an element: {word}")
    return order[at]


def letter_counts(words, n):
    """(N, n) array: how often each letter 1..n occurs in each row of `words`."""
    size = len(words)
    flat = (words - 1 + n * np.arange(size).reshape(size, 1)).ravel()
    return np.bincount(flat, minlength=size * n).reshape(size, n)


def string_positions(graph, i):
    """(eps, phi) of index i as arrays over the ids: how many times e_i resp.
    f_i apply to each id before vanishing (rows of `CrystalGraph.positions`)."""
    eps, phi = graph.positions()
    r = graph.row(i)
    return eps[r], phi[r]


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
            c = graph.wt[srcs[0]].tolist()
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
    if canonical_weight(g1.wt[s1[0]]).tolist() != canonical_weight(g2.wt[s2[0]]).tolist():
        return False
    pair = [None] * len(g1)
    pair[s1[0]] = s2[0]
    matched = 1
    stack = [s1[0]]
    maps = list(zip(g1.F.tolist(), g2.F.tolist()))
    while stack:
        x = stack.pop()
        y = pair[x]
        for f1, f2 in maps:
            fx, fy = f1[x], f2[y]
            if (fx < 0) != (fy < 0):
                return False
            if fx >= 0:
                if pair[fx] is not None:
                    if pair[fx] != fy:
                        return False
                else:
                    pair[fx] = fy
                    matched += 1
                    stack.append(fx)
    return matched == len(g1)
