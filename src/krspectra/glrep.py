"""Explicit matrix representations of gl_n.

The defining representation, wedge powers, rectangular irreducibles V_{l*w_r}
and tensor products, all with exact matrices for every generator E_ab.

V_{l*w_r} is realized as the cyclic span of the highest vector
(e_1 ^ ... ^ e_r)^{tensor l} inside (wedge^r C^n)^{tensor l} under repeated
lowering, with a basis extracted by exact row reduction.  The basis is ordered
by (content vector lexicographic, discovery order) so construction is
deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .scalars import Mat, QQi, mat_inverse


class RepError(ValueError):
    pass


def _wedge_basis(n, r):
    return [tuple(c) for c in combinations(range(1, n + 1), r)]


def _wedge_apply(n, a, b, subset):
    """E_ab applied to a wedge monomial; returns (sign, new_subset) or None."""
    if b not in subset:
        return None
    if a == b:
        return 1, subset
    if a in subset:
        return None
    pos_b = subset.index(b)
    rest = subset[:pos_b] + subset[pos_b + 1 :]
    pos_a = 0
    while pos_a < len(rest) and rest[pos_a] < a:
        pos_a += 1
    sign = -1 if (pos_b - pos_a) % 2 else 1
    return sign, rest[:pos_a] + (a,) + rest[pos_a:]


class _Echelon:
    """Reduced row echelon basis over Fraction with sparse dict rows."""

    def __init__(self):
        self.rows = {}  # pivot index -> dict(index -> Fraction), pivot coeff 1

    def reduce(self, vec):
        vec = dict(vec)
        for piv, row in self.rows.items():
            c = vec.get(piv)
            if c:
                for idx, val in row.items():
                    nv = vec.get(idx, Fraction(0)) - c * val
                    if nv:
                        vec[idx] = nv
                    else:
                        vec.pop(idx, None)
        return vec

    def insert(self, vec):
        """Reduce and insert; returns the new pivot or None if dependent."""
        vec = self.reduce(vec)
        if not vec:
            return None
        piv = min(vec)
        pc = vec[piv]
        vec = {i: v / pc for i, v in vec.items()}
        for opiv, orow in self.rows.items():
            c = orow.get(piv)
            if c:
                for idx, val in vec.items():
                    nv = orow.get(idx, Fraction(0)) - c * val
                    if nv:
                        orow[idx] = nv
                    else:
                        orow.pop(idx, None)
        self.rows[piv] = vec
        return piv

    def coordinates(self, vec):
        """Coefficients of vec on the stored rows; raises if not in the span."""
        coords = {}
        residual = dict(vec)
        for piv, row in self.rows.items():
            c = residual.get(piv)
            if c:
                coords[piv] = c
                for idx, val in row.items():
                    nv = residual.get(idx, Fraction(0)) - c * val
                    if nv:
                        residual[idx] = nv
                    else:
                        residual.pop(idx, None)
        if residual:
            raise RepError("vector not in the cyclic span")
        return coords


class MatrixRep:
    """Matrices of all E_ab on a concrete basis, plus weights and Gram form."""

    def __init__(self, n, gens, weight_basis, label, gram=None):
        self.n = n
        self.gens = gens  # gens[a-1][b-1] = Mat of E_ab
        self.dim = gens[0][0].nr
        self.weight_basis = [tuple(w) for w in weight_basis]
        self.label = label
        self.gram = gram if gram is not None else Mat.identity(self.dim)

    def e(self, a, b) -> Mat:
        """Matrix of E_ab (1-based indices)."""
        return self.gens[a - 1][b - 1]

    def check_commutation(self):
        """[E_ab, E_cd] = d_bc E_ad - d_da E_cb for all index quadruples."""
        n = self.n
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        lhs = self.e(a, b).commutator(self.e(c, d))
                        rhs = Mat.zeros(self.dim)
                        if b == c:
                            rhs = rhs + self.e(a, d)
                        if d == a:
                            rhs = rhs - self.e(c, b)
                        if lhs != rhs:
                            return (a, b, c, d)
        return None

    def casimir(self) -> Mat:
        total = Mat.zeros(self.dim)
        for a in range(1, self.n + 1):
            for b in range(1, self.n + 1):
                total = total + self.e(a, b) * self.e(b, a)
        return total

    @cached_property
    def gram_inverse(self):
        """Inverse of the Gram matrix, or None when the form is the standard one."""
        if self.gram == Mat.identity(self.dim):
            return None
        return mat_inverse(self.gram)

    def adjoint(self, m: Mat) -> Mat:
        """Adjoint with respect to the invariant Hermitian form (Gram matrix)."""
        if self.gram_inverse is None:
            return m.conj_transpose()
        return self.gram_inverse * m.conj_transpose() * self.gram

    def to_json(self):
        return {
            "label": list(self.label),
            "n": self.n,
            "dim": self.dim,
            "weight_basis": [list(w) for w in self.weight_basis],
            "generators": {
                f"E[{a},{b}]": [[str(x) for x in row] for row in self.e(a, b).rows]
                for a in range(1, self.n + 1)
                for b in range(1, self.n + 1)
            },
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=1)


def build_defining(n) -> MatrixRep:
    gens = [[Mat.unit(n, n, a, b) for b in range(n)] for a in range(n)]
    weights = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return MatrixRep(n, gens, weights, ("irrep", n, 1, 1))


def build_wedge(n, r) -> MatrixRep:
    basis = _wedge_basis(n, r)
    index = {s: i for i, s in enumerate(basis)}
    dim = len(basis)
    gens = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            m = Mat.zeros(dim)
            for j, s in enumerate(basis):
                hit = _wedge_apply(n, a, b, s)
                if hit:
                    sign, t = hit
                    m.rows[index[t]][j] = QQi(sign)
            row.append(m)
        gens.append(row)
    weights = [
        tuple(1 if i in s else 0 for i in range(1, n + 1)) for s in basis
    ]
    return MatrixRep(n, gens, weights, ("wedge", n, r))


def build_irrep(n, l, r) -> MatrixRep:
    """The rectangular irreducible V_{l*w_r} with exact E_ab matrices."""
    if not (1 <= r <= n) or l < 1:
        raise RepError(f"invalid rectangle parameters n={n}, l={l}, r={r}")
    if l == 1:
        return build_wedge(n, r)

    wedge = _wedge_basis(n, r)
    top = tuple(range(1, r + 1))

    def content(idx_tuple):
        c = [0] * n
        for s in idx_tuple:
            for i in s:
                c[i - 1] += 1
        return tuple(c)

    def apply_eab(a, b, vec):
        out = {}
        for idx, coeff in vec.items():
            for slot in range(l):
                hit = _wedge_apply(n, a, b, idx[slot])
                if hit:
                    sign, t = hit
                    nidx = idx[:slot] + (t,) + idx[slot + 1 :]
                    nv = out.get(nidx, Fraction(0)) + coeff * sign
                    if nv:
                        out[nidx] = nv
                    else:
                        out.pop(nidx, None)
        return out

    ech = _Echelon()
    hv = {(top,) * l: Fraction(1)}
    first_piv = ech.insert(hv)
    discovered = [first_piv]
    frontier = [hv]
    while frontier:
        new_frontier = []
        for vec in frontier:
            for a in range(1, n):
                img = apply_eab(a + 1, a, vec)
                if not img:
                    continue
                piv = ech.insert(img)
                if piv is not None:
                    discovered.append(piv)
                    new_frontier.append(img)
        frontier = new_frontier

    # canonical basis = reduced echelon rows sorted by (content lex, discovery)
    order = sorted(
        range(len(discovered)),
        key=lambda i: (content(discovered[i]), i),
    )
    pivots = [discovered[i] for i in order]
    piv_pos = {p: i for i, p in enumerate(pivots)}
    basis = [ech.rows[p] for p in pivots]
    dim = len(basis)

    gens = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            m = Mat.zeros(dim)
            for j, vec in enumerate(basis):
                img = apply_eab(a, b, vec)
                for piv, c in ech.coordinates(img).items():
                    m.rows[piv_pos[piv]][j] = QQi(c)
            row.append(m)
        gens.append(row)

    reduced_basis = basis
    weights = [content(piv) for piv in pivots]
    gram = Mat.zeros(dim)
    for i, vi in enumerate(reduced_basis):
        for j, vj in enumerate(reduced_basis):
            if j < i:
                gram.rows[i][j] = gram.rows[j][i]
                continue
            acc = Fraction(0)
            small, big = (vi, vj) if len(vi) <= len(vj) else (vj, vi)
            for idx, c in small.items():
                o = big.get(idx)
                if o:
                    acc += c * o
            gram.rows[i][j] = QQi(acc)
    return MatrixRep(n, gens, weights, ("irrep", n, l, r), gram)


class TensorRep:
    """Tensor product of matrix reps with evaluation data per factor."""

    def __init__(self, factors):
        pts = [z for (_, z, _) in factors]
        if len({(p.re, p.im) for p in pts}) != len(pts):
            raise RepError("evaluation points must be distinct")
        ns = {rep.n for (rep, _, _) in factors}
        if len(ns) != 1:
            raise RepError("all factors must share the same n")
        self.n = ns.pop()
        self.factors = list(factors)
        self.dims = [rep.dim for (rep, _, _) in factors]
        self.dim = 1
        for d in self.dims:
            self.dim *= d
        self.weight_basis = []
        self._iterate_weights()
        g = self.factors[0][0].gram
        for rep, _, _ in self.factors[1:]:
            g = g.kron(rep.gram)
        self.gram = g
        self._embed_cache = {}

    def _iterate_weights(self):
        combos = [[]]
        for rep, _, _ in self.factors:
            combos = [c + [w] for c in combos for w in rep.weight_basis]
        self.weight_basis = [
            tuple(sum(w[i] for w in ws) for i in range(self.n)) for ws in combos
        ]

    @property
    def points(self):
        return [z for (_, z, _) in self.factors]

    @property
    def shifts(self):
        return [d for (_, _, d) in self.factors]

    def embed(self, slot, m: Mat) -> Mat:
        out = None
        for i, (rep, _, _) in enumerate(self.factors):
            piece = m if i == slot else Mat.identity(rep.dim)
            out = piece if out is None else out.kron(piece)
        return out

    def e_slot(self, slot, a, b) -> Mat:
        key = (slot, a, b)
        if key not in self._embed_cache:
            rep = self.factors[slot][0]
            self._embed_cache[key] = self.embed(slot, rep.e(a, b))
        return self._embed_cache[key]

    def delta(self, a, b) -> Mat:
        """Diagonal action sum_i E_ab^{(i)}."""
        out = Mat.zeros(self.dim)
        for i in range(len(self.factors)):
            out = out + self.e_slot(i, a, b)
        return out

    # MatrixRep's bodies, bound in this class's own namespace too, so that
    # per-class method patching (perfbench/tracer.py) reaches both
    gram_inverse = MatrixRep.gram_inverse
    adjoint = MatrixRep.adjoint


def build_tensor(factors) -> TensorRep:
    return TensorRep(factors)


def weight_multiplicities(rep):
    counts = {}
    for w in rep.weight_basis:
        counts[w] = counts.get(w, 0) + 1
    return counts
