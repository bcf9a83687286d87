"""Oracles that only tests read.

Each is an independent cross-check of a production path of the package, or
a plain reading of an exact object that a test compares against one.  None
of them is a production path, so none lives in `src/krspectra`; they read
`Mat` only through its public API (`m[i, j]`, products, sums and
`span_rank`), except `leak`, whose witness is the first in the order of the
stored entries.

- exact scalars: the text form from the `Fraction` parts;
- exact matrices: dense rows, conjugation, traces, commutators, ranks and
  span equality, scalar parts, the complex rows that the dense float routes
  start from, the first entry of a matrix between two blocks, and the rows
  of an echelon basis;
- permutations: the sign, from the cycle lengths;
- Bethe: regularity of a torus element, the literal trace of tau_a in two
  forms (index sum and Kronecker product over (C^n)^a x V), both on the
  full-dimension T-grid, and the quantum-minor table by `cdet` of that grid;
- exact functions: a pole term and the lift-based derivative;
- Gaudin: the Lax matrix as a sum of pole terms, the Manin relations of
  L(u) - d_u - chi, as operator identities and applied to monomials, the
  antisymmetrized-trace identity tr A_n M_1 ... M_n = cdet M, a
  configuration at scaled points, and the sums Delta(sum_{a in cls} E_aa)
  over the classes of a torus element or of chi;
- reps: the gl_n commutation relations, the Casimir and a JSON dump;
- crystals: the operators e_i and f_i on one tableau and on element ids,
  Schutzenberger's involution by propagation on the graph, tableau
  evacuation, phi = xi o xi', and characters against the bialternant Schur
  polynomial;
- alcoves: the identity of the extended affine Weyl group, a regular
  sample point and wall membership;
- spectra: a joint spectrum's report, and the dense routes that rebuild on
  whole dim x dim arrays what the package computes one weight block at a
  time;
- walls: the string statistics of every wall from the whole B(C) at that
  wall's own torus element, the route that one rotated wall family
  replaced;
- scans: the simplicity scan of the whole B(C) at the regular element, the
  route that the family of the lowest simple tau orders replaced;
- the regular element: `compare`'s simplicity and weight verdicts from the
  whole B(C) at the regular element, the route that the family of the
  lowest simple tau orders and the weight basis replaced.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import numpy as np

from krspectra.alcoves import AffinePoint, AlcoveError, ExtAffineWeylElt, Wall
from krspectra.bethe import BetheError, TorusElement, bethe_family, standard_torus, wall_pair
from krspectra.gaudin import GaudinConfig, coincidence_classes, gaudin_operator_matrix
from krspectra.glrep import RepError, TensorRep
from krspectra.pipeline import build_spectral_config
from krspectra.promotion import kr_tensor_crystal, restricted_graph
from krspectra.scalars import (
    Blocks,
    DiffOpPoly,
    Echelon,
    Mat,
    QQi,
    RatFun,
    cdet,
    span_rank,
)
from krspectra.spectra import TOL, SpectraError, _refine, joint_diagonalize, wall_strings
from krspectra.tableaux import CrystalError, CrystalGraph, Tableau, reading_order

# ---------------------------------------------------------------------------
# Exact scalars and matrices


def conjugate(z: QQi) -> QQi:
    return QQi(z.re, -z.im)


def qqi_text(z: QQi) -> str:
    """The text form "a/b", "c/d*i", "a/b+c/d*i" or "a/b-c/d*i", formatted
    from the `Fraction` parts: the reference for `QQi.__str__`."""
    re, im = z.re, z.im
    if not im:
        return str(re)
    ipart = "i" if abs(im) == 1 else f"{abs(im)}*i"
    sign = "-" if im < 0 else "+"
    if not re:
        return ipart if im > 0 else "-" + ipart
    return f"{re}{sign}{ipart}"


def mat_rows(m: Mat):
    """Dense rows of QQi entries, read one entry at a time."""
    return [[m[i, j] for j in range(m.nc)] for i in range(m.nr)]


def complex_rows(m: Mat):
    """Dense rows of Python complex numbers, each part correctly rounded."""
    return [[complex(float(x.re), float(x.im)) for x in row] for row in mat_rows(m)]


def trace(m: Mat) -> QQi:
    return sum((m[i, i] for i in range(m.nr)), QQi(0))


def commutator(a: Mat, b: Mat) -> Mat:
    return a * b - b * a


def commutes(a: Mat, b: Mat) -> bool:
    """Whether a * b == b * a, exactly, for square matrices of one size."""
    if not (a.nr == a.nc == b.nr == b.nc):
        raise ValueError(f"commutes needs square matrices of one size, not {a!r} and {b!r}")
    return a * b == b * a


def scalar_part(m: Mat):
    """The scalar s with m == s * identity, or None."""
    s = m[0, 0]
    return s if m == Mat.identity(m.nr) * s else None


def mat_rank(mat_rows) -> int:
    """Exact rank of a list of QQi row vectors: the span rank of 1-row Mats."""
    return span_rank([Mat([list(row)]) for row in mat_rows])


def spans_equal(mats_a, mats_b) -> bool:
    """Exact equality of the linear spans of two matrix lists."""
    ra = span_rank(mats_a)
    return ra == span_rank(mats_b) == span_rank(list(mats_a) + list(mats_b))


def monomial(c: Mat, k) -> RatFun:
    """c u^k."""
    return RatFun([Mat.zeros(c.nr, c.nc)] * k + [c], {})


def pole_term(c: Mat, p, mult=1) -> RatFun:
    """c / (u - p)^mult."""
    return RatFun([c], {QQi.of(p): mult})


def _times_linear(a, p):
    """Coefficients of (u - p) * a(u) for a list of Mats a."""
    if not a:
        return []
    return [-(a[0] * p)] + [a[k - 1] - a[k] * p for k in range(1, len(a))] + [a[-1]]


def lift_derivative(f: RatFun) -> RatFun:
    """d/du f by the quotient rule on lifted numerators: N' times each
    (u - p) plus, per pole p, -m_p N times each (u - q), q != p, over the
    poles raised by one; the closed form of `RatFun.derivative` replaced it."""
    if f.is_zero():
        return f
    dnum = [f.num[k] * QQi(k) for k in range(1, len(f.num))]
    while dnum and not dnum[-1]:
        dnum.pop()
    if not f.poles:
        return RatFun(dnum, {})
    total = dnum
    for p in f.poles:
        total = _times_linear(total, p)
    out = RatFun(total, {})
    for p, m in f.poles.items():
        term = [c * QQi(-m) for c in f.num]
        for q in f.poles:
            if q != p:
                term = _times_linear(term, q)
        out = out + RatFun(term, {})
    return RatFun(out.num, {p: m + 1 for p, m in f.poles.items()})


def apply(op: DiffOpPoly, f: RatFun) -> RatFun:
    """op acting on f, sum_k b_k f^(k), without `DiffOpPoly.__mul__`."""
    out = RatFun([], {})
    for k, c in enumerate(op.coeffs):
        if k:
            f = f.derivative()
        if not c.is_zero():
            out = out + c * f
    return out


def mat_to_numpy(m: Mat) -> np.ndarray:
    return np.array(complex_rows(m), dtype=np.complex128)


def leak(blocks: Blocks, m: Mat):
    """The first entry (i, j) of m, in row order, whose row and column lie
    in different blocks, or None when m maps each block to itself."""
    of = blocks.of
    for i, row in enumerate(m.nums):
        for j in row:
            if of[j] != of[i]:
                return i, j
    return None


def echelon_row(ech: Echelon, p):
    """The stored row of `ech` at pivot p as {key: QQi}."""
    d, nums = ech.rows[p]
    return {k: QQi(Fraction(re, d), Fraction(im, d)) for k, (re, im) in nums.items()}


# ---------------------------------------------------------------------------
# Bethe: torus elements, the antisymmetrizer and the literal traces


def sgn(sigma) -> int:
    """Sign of a permutation of range(len(sigma)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def is_regular(C: TorusElement) -> bool:
    """Whether the entries of C are pairwise distinct."""
    return len(coincidence_classes(C.entries)) == len(C.entries)


def normalized(C: TorusElement) -> TorusElement:
    """Same adjoint-torus class with first entry 1."""
    c0 = C.entries[0]
    return TorusElement([c / c0 for c in C.entries], require_unit=False)


def scaled(C: TorusElement, a) -> TorusElement:
    return TorusElement([c * QQi.of(a) for c in C.entries], require_unit=False)


def antisymmetrizer(n, a) -> Mat:
    """A_a on (C^n)^{tensor a}, normalized idempotent, rank C(n,a)."""
    if not (1 <= a <= n):
        raise BetheError(f"antisymmetrizer needs 1 <= a <= n, got a={a}")
    dim = n**a
    rows = [[QQi(0)] * dim for _ in range(dim)]
    idx = list(product(range(n), repeat=a))
    pos = {t: i for i, t in enumerate(idx)}
    inv_fact = QQi(Fraction(1, factorial(a)))
    for sigma in permutations(range(a)):
        sign = sgn(sigma)
        for j in idx:
            # sigma moves the vector in slot m to slot sigma(m):
            # (sigma v)_{sigma(m)} = v_m, so row index i has i_{sigma(m)} = j_m
            row = [0] * a
            for m_ in range(a):
                row[sigma[m_]] = j[m_]
            r = pos[tuple(row)]
            rows[r][pos[j]] = rows[r][pos[j]] + (inv_fact if sign > 0 else -inv_fact)
    return Mat(rows)


def oracle_t_grid(cfg: GaudinConfig):
    """ev T(u) = prod_i (1 + E^(i)/(u - w_i)) as one full-dimension grid."""
    n, rep = cfg.n, cfg.rep
    dim = rep.dim
    ident = Mat.identity(dim)
    grid = [
        [RatFun.const(ident if r == c else Mat.zeros(dim)) for c in range(n)]
        for r in range(n)
    ]
    for slot, w in enumerate(cfg.points):
        factor = [
            [
                (RatFun.const(ident) if r == c else RatFun.const(Mat.zeros(dim)))
                + pole_term(rep.e_slot(slot, r + 1, c + 1), w)
                for c in range(n)
            ]
            for r in range(n)
        ]
        grid = grid_mul(grid, factor, n)
    return grid


def grid_mul(A, B, n):
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = None
            for m in range(n):
                term = A[r][m] * B[m][c]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def oracle_minors(cfg: GaudinConfig) -> dict:
    """The `bethe.quantum_minors` table by `cdet` of the full-dimension grid."""
    grid = oracle_t_grid(cfg)
    return {
        I: cdet([[grid[r][c].shift_arg(m) for m, c in enumerate(I)] for r in I])
        for a in range(1, cfg.n + 1)
        for I in combinations(range(cfg.n), a)
    }


def tau_trace_direct(a, C: TorusElement, cfg: GaudinConfig, u) -> Mat:
    """Literal index-sum form of tr A_a C_1..C_a T_1(u)..T_a(u-a+1).

    Slot m carries the grid C_r * T(u - m)[r][c].
    """
    n = cfg.n
    u = QQi.of(u)
    grid = oracle_t_grid(cfg)
    return antisymmetrized_trace([
        [[grid[r][c].eval(u - m) * C.entries[r] for c in range(n)] for r in range(n)]
        for m in range(a)
    ])


def tau_kron_direct(a, C: TorusElement, cfg: GaudinConfig, u) -> Mat:
    """Fully literal route: build A_a C_1..C_a T_1..T_a on (C^n)^a x V and trace."""
    n = cfg.n
    dim = cfg.rep.dim
    u = QQi.of(u)
    ident = Mat.identity(dim)
    big = antisymmetrizer(n, a).kron(ident)
    cmat = Mat([[C.entries[i] if i == j else QQi(0) for j in range(n)] for i in range(n)])
    for m in range(a):
        big = big * embed_aux(cmat, n, a, m, dim, constant=True)
    grid = oracle_t_grid(cfg)
    for m in range(a):
        tval = [[grid[r][c].eval(u - m) for c in range(n)] for r in range(n)]
        big = big * embed_aux(tval, n, a, m, dim, constant=False)
    # partial trace over the auxiliary space, one diagonal block at a time
    out = Mat.zeros(dim)
    for q in range(n**a):
        out = out + Mat.unit(1, n**a, 0, q).kron(ident) * big * Mat.unit(n**a, 1, q, 0).kron(ident)
    return out


def embed_aux(entry_grid, n, a, slot, dim, constant):
    """Aux-slot embedding of an n x n (scalar or Mat-valued) matrix."""
    before, after = Mat.identity(n**slot), Mat.identity(n ** (a - slot - 1))
    out = Mat.zeros(n**a * dim)
    for r in range(n):
        for c in range(n):
            val = entry_grid[r, c] * Mat.identity(dim) if constant else entry_grid[r][c]
            out = out + before.kron(Mat.unit(n, n, r, c)).kron(after).kron(val)
    return out


# ---------------------------------------------------------------------------
# Gaudin: the Lax matrix as a sum of pole terms, and the Manin relations


def lax_oracle(cfg: GaudinConfig, chi=None):
    """The grid of sum_i E_ab^(i)/(u - z_i), minus chi_a on the diagonal, as
    a sum of pole terms, one `RatFun` sum per term."""
    n, rep = cfg.n, cfg.rep
    grid = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            f = RatFun([], {})
            for slot, z in enumerate(cfg.points):
                f = f + pole_term(rep.e_slot(slot, a, b), z)
            if chi is not None and a == b:
                f = f - RatFun.const(Mat.identity(rep.dim) * chi[a - 1])
            row.append(f)
        grid.append(row)
    return grid



def manin_relations_check(cfg: GaudinConfig, monomial_orders=range(4)) -> dict:
    """[M_pl, M_rs] = [M_rl, M_ps] for all quadruples, two ways.

    Checked once as normal-ordered operator identities and once by applying
    both sides to monomials u^m (times the identity), which exercises only
    the action of operators on functions.
    """
    entries = gaudin_operator_matrix(cfg)
    n = cfg.n
    ident = Mat.identity(cfg.rep.dim)
    failures = []
    for p in range(n):
        for l in range(n):
            for r in range(n):
                for s in range(n):
                    lhs = entries[p][l] * entries[r][s] - entries[r][s] * entries[p][l]
                    rhs = entries[r][l] * entries[p][s] - entries[p][s] * entries[r][l]
                    if not (lhs - rhs).is_zero():
                        failures.append(("operator", p + 1, l + 1, r + 1, s + 1))
                        continue
                    for m in monomial_orders:
                        mono = monomial(ident, m)
                        a1 = apply(entries[p][l], apply(entries[r][s], mono))
                        a2 = apply(entries[r][s], apply(entries[p][l], mono))
                        b1 = apply(entries[r][l], apply(entries[p][s], mono))
                        b2 = apply(entries[p][s], apply(entries[r][l], mono))
                        if not ((a1 - a2) - (b1 - b2)).is_zero():
                            failures.append(("applied", p + 1, l + 1, r + 1, s + 1, m))
    return {"passed": not failures, "failures": failures}


def antisymmetrized_trace(grids):
    """tr A_a M_1 ... M_a computed literally from the tensor-slot expansion.

    grids[m] is the n x n matrix acting in tensor slot m + 1, its entries
    from any ring with +, - and *; there are a = len(grids) <= n slots.
    Each product is folded from the right, so a DiffOpPoly entry is always
    a first-order left factor.
    """
    a, n = len(grids), len(grids[0])
    total = None
    for sigma in permutations(range(a)):
        inv = [0] * a
        for m, v in enumerate(sigma):
            inv[v] = m
        sign = sgn(sigma)
        for j in product(range(n), repeat=a):
            prod = grids[a - 1][j[a - 1]][j[inv[a - 1]]]
            for m in range(a - 2, -1, -1):
                prod = grids[m][j[m]][j[inv[m]]] * prod
            if sign < 0:
                prod = -prod
            total = prod if total is None else total + prod
    return total * QQi(Fraction(1, factorial(a)))


def manin_cdet_trace_identity(cfg: GaudinConfig) -> bool:
    """tr A_n M_1...M_n = cdet M for M = L(u) - d_u - chi."""
    entries = gaudin_operator_matrix(cfg)
    lhs = antisymmetrized_trace([entries] * cfg.n)
    rhs = cdet(entries)
    return (lhs - rhs).is_zero()


def scaled_config(cfg: GaudinConfig, s) -> GaudinConfig:
    """Points sz with the same chi (pairs with chi -> s*chi on the other side)."""
    s = QQi.of(s)
    rep = TensorRep([(r, s * z, d) for (r, z, d) in cfg.rep.factors])
    return GaudinConfig(rep, cfg.chi)


def center_members(rep, classes):
    """Tagged sums Delta(sum_{a in cls} E_aa), one per index class."""
    out = []
    for cls in classes:
        m = None
        for a in cls:
            d = rep.delta(a, a)
            m = d if m is None else m + d
        out.append((("torus", tuple(cls)), m))
    return out


# ---------------------------------------------------------------------------
# Representations


def check_commutation(rep):
    """The first (a, b, c, d) with [E_ab, E_cd] != d_bc E_ad - d_da E_cb, or None."""
    n = rep.n
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    lhs = commutator(rep.e(a, b), rep.e(c, d))
                    rhs = Mat.zeros(rep.dim)
                    if b == c:
                        rhs = rhs + rep.e(a, d)
                    if d == a:
                        rhs = rhs - rep.e(c, b)
                    if lhs != rhs:
                        return (a, b, c, d)
    return None


def casimir(rep) -> Mat:
    total = Mat.zeros(rep.dim)
    for a in range(1, rep.n + 1):
        for b in range(1, rep.n + 1):
            total = total + rep.e(a, b) * rep.e(b, a)
    return total


def rep_to_json(rep):
    return {
        "label": list(rep.label),
        "n": rep.n,
        "dim": rep.dim,
        "weight_basis": [list(w) for w in rep.weight_basis],
        "generators": {
            f"E[{a},{b}]": [[str(x) for x in row] for row in mat_rows(rep.e(a, b))]
            for a in range(1, rep.n + 1)
            for b in range(1, rep.n + 1)
        },
    }


# ---------------------------------------------------------------------------
# Crystals: the per-tableau signature rule, Schutzenberger's involution,
# evacuation, phi and characters


def ssyt_unbounded(shape, n):
    """Semistandard tableaux of the shape with entries <= n, by a search that
    bounds each cell only from its left and upper neighbours, in the order of
    `enumerate_ssyt`: the cross-check of that search's upper bound."""
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    grid = [[0] * ln for ln in shape]
    out = []

    def fill(k):
        if k == len(cells):
            out.append(Tableau(grid, n))
            return
        r, c = cells[k]
        lo = max(grid[r][c - 1] if c else 1, grid[r - 1][c] + 1 if r else 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            fill(k + 1)

    fill(0)
    return out


def crystal_by_tableaux(n, shape):
    """(labels, E, F, wt) of B_shape by `e_op` and `f_op` on each tableau, as
    lists: ids in the order of `ssyt_unbounded`, -1 where an operator
    vanishes, wt the content of each tableau."""
    labels = ssyt_unbounded(shape, n)
    ids = {t: k for k, t in enumerate(labels)}

    def targets(op, i):
        return [-1 if (u := op(i, t)) is None else ids[u] for t in labels]

    E = [targets(e_op, i) for i in range(1, n)]
    F = [targets(f_op, i) for i in range(1, n)]
    return labels, E, F, [list(content(t)) for t in labels]


def content(t: Tableau):
    """How often each letter 1..n occurs in the tableau, as a tuple."""
    c = [0] * t.n
    for row in t.rows:
        for x in row:
            c[x - 1] += 1
    return tuple(c)


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
    """Lowering operator on one tableau: turn the rightmost unmatched i into
    i+1; the cross-check of `signature_rule`."""
    if not (1 <= i <= t.n - 1):
        raise CrystalError(f"index {i} out of range for n={t.n}")
    closes, _ = _signature_positions(t, i)
    if not closes:
        return None
    return _replace(t, closes[-1], i + 1)


def e_op(i, t: Tableau):
    """Raising operator on one tableau: turn the leftmost unmatched i+1 into i."""
    if not (1 <= i <= t.n - 1):
        raise CrystalError(f"index {i} out of range for n={t.n}")
    _, opens = _signature_positions(t, i)
    if not opens:
        return None
    return _replace(t, opens[0], i)


def graph_e(graph: CrystalGraph, i, b):
    """e_i of element id b, or None where it vanishes."""
    t = int(graph.E[graph.row(i), b])
    return None if t < 0 else t


def graph_f(graph: CrystalGraph, i, b):
    """f_i of element id b, or None where it vanishes."""
    t = int(graph.F[graph.row(i), b])
    return None if t < 0 else t


def w0_weight(w, upto):
    """Longest-element action: reverse the first `upto` coordinates."""
    return tuple(reversed(w[:upto])) + tuple(w[upto:])


def schutzenberger(graph: CrystalGraph, alphabet=None):
    """The involution determined by e_i <-> f_{m-i} intertwining on a normal graph.

    `alphabet` is the number of weight coordinates moved by the longest Weyl
    element (defaults to max(indices)+1, i.e. all letters the operators touch).
    Returns a list: the id of the image of each id.
    """
    indices = graph.indices
    if indices and list(indices) != list(range(indices[0], indices[-1] + 1)):
        raise CrystalError("operator indices must be contiguous")
    lo = indices[0] if indices else 1
    hi = indices[-1] if indices else 0
    alphabet = alphabet if alphabet is not None else hi + 1

    def mirror(i):
        return lo + hi - i

    comps = graph.components()
    wt = list(map(tuple, graph.wt.tolist()))
    E, F = graph.E.tolist(), graph.F.tolist()
    maps = [(F[r], E[graph.row(mirror(i))]) for r, i in enumerate(indices)]
    xi = [None] * len(graph)
    sinks_by_wt = {}
    for comp in comps:
        for t in graph.sinks(comp):
            sinks_by_wt.setdefault(wt[t], []).append(t)

    for comp in comps:
        srcs = graph.sources(comp)
        if len(srcs) != 1:
            raise CrystalError("graph is not normal: component without unique source")
        s = srcs[0]
        target_wt = w0_weight(wt[s], alphabet)
        candidates = sinks_by_wt.get(target_wt, [])
        placed = None
        for cand in candidates:
            trial = propagate(maps, len(graph), s, cand)
            if trial is not None:
                if placed is not None:
                    raise CrystalError("ambiguous involution: non multiplicity-free")
                placed = trial
        if placed is None:
            raise CrystalError("no valid involution image for a component")
        for b in comp:
            xi[b] = placed[b]

    for b, img in enumerate(xi):
        if img is None or xi[img] != b:
            raise CrystalError("computed map is not an involution")
        if wt[img] != w0_weight(wt[b], alphabet):
            raise CrystalError("weight relation failed")
    return xi


def propagate(maps, size, source, image):
    """The map source -> image extended by f_i b -> e_mirror(i) xi(b), as a
    list over all `size` ids (None off the component); None on a conflict.

    `maps` pairs the f_i row with the e_mirror(i) row, as lists (-1 where the
    operator vanishes)."""
    out = [None] * size
    out[source] = image
    used = [False] * size
    used[image] = True
    stack = [source]
    while stack:
        b = stack.pop()
        for fmap, emap in maps:
            fb = fmap[b]
            if fb < 0:
                continue
            want = emap[out[b]]
            if want < 0:
                return None
            if out[fb] is not None:
                if out[fb] != want:
                    return None
            else:
                if used[want]:
                    return None
                out[fb] = want
                used[want] = True
                stack.append(fb)
    return out


def phi_operator(graph: CrystalGraph, n=None):
    """The composition xi_B o xi_{B restricted} as a list of ids; equals
    promotion on B_lam."""
    n = n if n is not None else graph.n
    xi_full = schutzenberger(graph, alphabet=n)
    xi_restr = schutzenberger(restricted_graph(graph), alphabet=n - 1)
    return [xi_full[img] for img in xi_restr]


def evacuation(t: Tableau) -> Tableau:
    """Tableau evacuation: complement entries, rotate 180, rectify.

    The cross-check of the graph-based involution on single-tableau
    crystals.
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


def schur_polynomial(lam, xs):
    """Schur polynomial via the bialternant determinant formula, exact:
    s_lam(x_1..x_n) = det(x_i^(lam_j + n - j)) / det(x_i^(n - j))."""
    n = len(xs)
    lam = tuple(lam) + (0,) * (n - len(lam))
    # on commuting entries the column determinant is the determinant
    num = [[QQi.of(xs[i]) ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    den = [[QQi.of(xs[i]) ** (n - 1 - j) for j in range(n)] for i in range(n)]
    return cdet(num) / cdet(den)


def character_eval(graph: CrystalGraph, elements, xs):
    """sum over the ids `elements` of prod x_i^(content_i), exact."""
    total = QQi(0)
    for b in elements:
        term = QQi(1)
        for i, c in enumerate(graph.wt[b].tolist()):
            term = term * QQi.of(xs[i]) ** c
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Alcoves


def weyl_identity(n) -> ExtAffineWeylElt:
    return ExtAffineWeylElt(tuple(range(1, n + 1)), (0,) * n)


def regular_sample(w: ExtAffineWeylElt, seed=0) -> AffinePoint:
    """A deterministic interior point of Q_w."""
    n = w.n
    weights = [m + 2 + (seed % 7) for m in range(n)]
    weights[seed % n] += 1
    total = sum(weights)
    gaps = [Fraction(wt, total) for wt in weights]
    coords = [Fraction(0)] * n
    for i in range(n - 1, 0, -1):
        coords[i - 1] = coords[i] + gaps[i - 1]
    return w.apply(AffinePoint(coords))


def subregular_sample(w: ExtAffineWeylElt, j) -> AffinePoint:
    """A deterministic rational point interior to wall j of Q_w, on no other wall.

    Gap recipe in the base alcove: gap j is zero, the others are distinct
    positive rationals summing to 1.
    """
    n = w.n
    if not (1 <= j <= n):
        raise AlcoveError(f"wall index {j} out of range")
    weights = [0 if (m + 1) == j else m + 2 for m in range(n)]
    total = sum(weights)
    gaps = [Fraction(wt, total) for wt in weights]
    coords = [Fraction(0)] * n
    for i in range(n - 1, 0, -1):
        coords[i - 1] = coords[i] + gaps[i - 1]
    return w.apply(AffinePoint(coords))


def wall_contains(h: Wall, x: AffinePoint) -> bool:
    return x.coords[h.i - 1] - x.coords[h.j - 1] == h.k


# ---------------------------------------------------------------------------
# Spectra: the dense routes


def standard_coordinates(mats, rep):
    """The mats as dense arrays in standard coordinates: T M T^{-1} with
    T = L^H for the Cholesky factor G = L L^H of the whole Gram matrix."""
    arrays = [mat_to_numpy(m) for m in mats]
    if rep.gram == Mat.identity(rep.dim):
        return arrays
    T = np.linalg.cholesky(mat_to_numpy(rep.gram)).conj().T
    Tinv = np.linalg.inv(T)
    return [T @ a @ Tinv for a in arrays]


def spectrum_report(spec) -> dict:
    """What a joint spectrum found: its size, block count and largest block,
    minimum separation, scale, tolerance and simplicity."""
    return {
        "dim": int(spec.dim),
        "members": int(spec.values.shape[0]),
        "blocks": len(spec.blocks),
        "largest_block": max(map(len, spec.blocks)),
        "min_separation": float(spec.min_separation),
        "scale": float(spec.scale),
        "tol": TOL,
        "simple": bool(spec.is_simple()),
    }


def eigenvector_matrix(spec) -> np.ndarray:
    """The dense matrix whose column l is eigenline l of the spectrum, built
    from the per-block vectors: block k's lines follow those of block k - 1."""
    P = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    line = 0
    for part, vecs in zip(spec.blocks, spec.vectors):
        P[np.ix_(part, range(line, line + len(part)))] = vecs
        line += len(part)
    return P


def reconstruction_residual(members, rep, spec) -> float:
    """max over members of |M - P diag P^H| / |M| in max-entry norm."""
    worst = 0.0
    P = eigenvector_matrix(spec)
    for mi, m_np in enumerate(standard_coordinates(members, rep)):
        rebuilt = P @ np.diag(spec.values[mi]) @ P.conj().T
        denom = max(np.max(np.abs(m_np)), 1.0)
        worst = max(worst, np.max(np.abs(m_np - rebuilt)) / denom)
    return worst


def dense_spectrum(members, rep):
    """(values, weights) by refinement on the whole space, from the standard
    basis, by the members and then by the torus Delta(E_aa), with weights
    rounded from the torus readout: the dense route that the block route
    replaced, as a cross-check of its lines.  The torus splits what the
    members leave together across weights, as a wall family's strings."""
    mats = standard_coordinates(members, rep)
    torus = standard_coordinates([rep.delta(a, a) for a in range(1, rep.n + 1)], rep)
    scale = max(np.max(np.abs(m)) for m in mats)
    parts = [
        p
        for m in mats
        for p in ((m + m.conj().T) / 2, (m - m.conj().T) / (2j))
        if np.max(np.abs(p)) > TOL
    ] + [(t + t.conj().T) / 2 for t in torus]
    vecs = _refine(np.eye(rep.dim, dtype=np.complex128), parts, 10 * TOL * max(scale, 1.0))

    def readout(ops):
        return np.array([np.einsum("ij,ij->j", vecs.conj(), m @ vecs) for m in ops])

    weights = np.rint(readout(torus).real).astype(int)
    return readout(mats), [tuple(w) for w in weights.T.tolist()]


# ---------------------------------------------------------------------------
# Walls: every wall from its own family


def all_walls_statistics(cfg) -> dict:
    """{j % n: Counter of (length, source weight)} over the walls j = 1..n,
    each read from the whole B(C) at `standard_torus(n, j)`; a wall whose
    strings are not clean raises `SpectraError`."""
    n = cfg.n
    stats = {}
    for j in range(1, n + 1):
        fam = bethe_family(standard_torus(n, j), cfg)
        strings = wall_strings(fam.gens, cfg.rep, wall_pair(n, j))
        if not strings.ok():
            raise SpectraError(f"wall {j}: {strings.diagnostics['failures']}")
        stats[j % n] = strings.statistics()
    return stats


# ---------------------------------------------------------------------------
# Scans: every order at the regular element


def all_orders_scan(n, factors, s_grid) -> dict:
    """The simplicity scan of B(C), every order, at `standard_torus(n)` over
    the scales of s_grid: rows of "s", "simple" and, where B(C) or the
    configuration was refused, "error", and the first simple s."""
    rows = []
    for s in s_grid:
        try:
            cfg = build_spectral_config(n, factors, s)
            spec = joint_diagonalize(bethe_family(standard_torus(n), cfg).gens, cfg.rep)
            rows.append({"s": str(s), "simple": bool(spec.is_simple())})
        except (SpectraError, RepError) as err:
            rows.append({"s": str(s), "simple": False, "error": str(err)})
    first = next((row["s"] for row in rows if row["simple"]), None)
    return {"rows": rows, "first_simple_s": first}


# ---------------------------------------------------------------------------
# The regular element: every order


def regular_all_orders(n, factors, s) -> dict:
    """`compare`'s "simple" and "weights_match" at scale s, from B(C), every
    order, built whole and diagonalized at `standard_torus(n)`: whether its
    spectrum is simple, and whether its lines' weights and the KR tensor
    crystal's weights agree as multisets of sl_n classes (each weight less
    its least entry)."""
    cfg = build_spectral_config(n, factors, s)
    spec = joint_diagonalize(bethe_family(standard_torus(n), cfg).gens, cfg.rep)

    def classes(weights):
        return Counter(tuple(x - min(w) for x in w) for w in weights)

    crystal = kr_tensor_crystal(n, factors)
    return {
        "simple": bool(spec.is_simple()),
        "weights_match": classes(spec.weights) == classes(crystal.wt.tolist()),
    }
