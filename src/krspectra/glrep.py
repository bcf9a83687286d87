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

from functools import cached_property
from itertools import combinations
from math import lcm, prod

from .scalars import Blocks, Echelon, Mat, kron_identities, mat_inverse


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

    @cached_property
    def gram_inverse(self):
        """Inverse of the Gram matrix, or None when the form is the standard one."""
        if self.gram == Mat.identity(self.dim):
            return None
        return mat_inverse(self.gram)

    @cached_property
    def weight_blocks(self) -> Blocks:
        """The weight spaces of the basis: index blocks labelled by weight,
        in order of first appearance in `weight_basis`."""
        parts = {}
        for i, w in enumerate(self.weight_basis):
            parts.setdefault(w, []).append(i)
        return Blocks(parts.values(), parts)

    def coset_chains(self, a, b) -> Blocks:
        """The basis grouped by weight up to multiples of e_a - e_b, a != b:
        each block is a chain of weight spaces that Delta(E_ab), Delta(E_ba)
        and every weight-keeping matrix map to itself.  A chain's label is the
        weight with its b entry added to its a entry and set to 0."""
        parts = {}
        for i, w in enumerate(self.weight_basis):
            key = list(w)
            key[a - 1] += key[b - 1]
            key[b - 1] = 0
            parts.setdefault(tuple(key), []).append(i)
        return Blocks(parts.values(), parts)

    def adjoint(self, m: Mat) -> Mat:
        """Adjoint with respect to the invariant Hermitian form (Gram matrix)."""
        if self.gram_inverse is None:
            return m.conj_transpose()
        return self.gram_inverse * m.conj_transpose() * self.gram


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
            rows = [[0] * dim for _ in range(dim)]
            for j, s in enumerate(basis):
                hit = _wedge_apply(n, a, b, s)
                if hit:
                    sign, t = hit
                    rows[index[t]][j] = sign
            row.append(Mat(rows))
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

    top = tuple(range(1, r + 1))

    def content(idx_tuple):
        c = [0] * n
        for s in idx_tuple:
            for i in s:
                c[i - 1] += 1
        return tuple(c)

    def apply_eab(a, b, vec):
        out = {}
        for idx, (re, im) in vec.items():
            for slot in range(l):
                hit = _wedge_apply(n, a, b, idx[slot])
                if hit:
                    sign, t = hit
                    nidx = idx[:slot] + (t,) + idx[slot + 1 :]
                    x, y = out.get(nidx, (0, 0))
                    x, y = x + sign * re, y + sign * im
                    if x or y:
                        out[nidx] = (x, y)
                    else:
                        out.pop(nidx, None)
        return out

    ech = Echelon()
    hv = {(top,) * l: (1, 0)}
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

    # canonical basis = reduced echelon rows sorted by (content lex, discovery),
    # as numerators over one common denominator den
    order = sorted(
        range(len(discovered)),
        key=lambda i: (content(discovered[i]), i),
    )
    pivots = [discovered[i] for i in order]
    piv_pos = {p: i for i, p in enumerate(pivots)}
    den = lcm(*(ech.rows[p][0] for p in pivots))
    basis = []
    for p in pivots:
        d, nums = ech.rows[p]
        s = den // d
        basis.append({k: (re * s, im * s) for k, (re, im) in nums.items()})
    dim = len(basis)

    # E_ab maps basis vector j to the coordinates of its image, over den
    gens = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            entries = [{} for _ in range(dim)]
            for j, vec in enumerate(basis):
                for piv, c in ech.coordinates(apply_eab(a, b, vec)).items():
                    entries[piv_pos[piv]][j] = c
            row.append(Mat.from_numerators(dim, [(den, r) for r in entries]))
        gens.append(row)

    weights = [content(piv) for piv in pivots]
    # every image of the highest vector is real, so the Gram entries are sums
    # of products of real parts, over den^2
    gram = [{} for _ in range(dim)]
    for i, vi in enumerate(basis):
        for j in range(i, dim):
            vj = basis[j]
            small, big = (vi, vj) if len(vi) <= len(vj) else (vj, vi)
            acc = sum(c * big[idx][0] for idx, (c, _) in small.items() if idx in big)
            if acc:
                gram[i][j] = gram[j][i] = (acc, 0)
    gram = Mat.from_numerators(dim, [(den * den, g) for g in gram])
    return MatrixRep(n, gens, weights, ("irrep", n, l, r), gram)


class TensorRep:
    """Tensor product of matrix reps with evaluation data per factor."""

    def __init__(self, factors):
        pts = [z for (_, z, _) in factors]
        if len(set(pts)) != len(pts):
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
        """m acting in tensor slot `slot`: the identity on every other factor."""
        return kron_identities(prod(self.dims[:slot]), m, prod(self.dims[slot + 1 :]))

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
    weight_blocks = MatrixRep.weight_blocks
    coset_chains = MatrixRep.coset_chains
    adjoint = MatrixRep.adjoint


def build_tensor(factors) -> TensorRep:
    return TensorRep(factors)
