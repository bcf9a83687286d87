"""Evaluated Bethe generators and their finite-step degeneration to Gaudin
generators.

tau_a(u, C) is the trace over (C^n)^{tensor a} of A_a C_1..C_a T_1(u)..
T_a(u-a+1) with T evaluated on the tensor product of factors.  The production
path expands it over quantum minors weighted by products of C entries.  The
minors come from the Yangian coproduct: T(u) = T^(1)(u) ... T^(k)(u) slot by
slot, so each minor is a sum of Kronecker products of minors of the single
factors, which are column determinants at factor dimension (in closed form
for the defining rep C^n, and T(u) itself at order 1).  Every K in a
coproduct sum has the size of I, so the orders never mix: each order's
table is built on its own, when a family first asks for it, and tau_a reads
the order-a table only.  A factor's grid is (u - w) + E, so its minors at w
are those at any other point w0 shifted by w - w0: one table per distinct
factor rep and order, without its zero minors, serves every slot and every
configuration built on that rep.  `pipeline.kr_rep` builds each KR factor
rep once per process, so its tables live for the process.  The literal
trace (in two forms) and the full-dimension cdet table are the tests'
oracles (`tests/oracles.py`).

The walls of the base alcove are decided here: `wall_pair` gives the
ordered index pair of wall j, (j, j + 1) for j < n and (n, 1) for the affine
wall, and `standard_torus(n, j)` merges the entries of that pair.  The
affine Dynkin rotation P e_m = e_{m+1} maps wall j to wall j + 1, and
`rotate_weight` moves a weight by a power of it.

A Bethe family holds tau members and nothing else.  B(C) holds every
Laurent coefficient of each tau_a, so its exact pairwise check proves
[tau_a(u, C), tau_b(v, C)] = 0 identically; the family of some orders holds
those of the tau_a of those orders only, a subfamily of B(C).  Every member
keeps each weight space, so a line's weight, its h at a wall and its coset
chain are read from the weight block it lies in (`spectra`), not from torus
members.

The degeneration reads the same minor tables: the shift operator
eps^-1 (T(u/eps) S - C) has S^a coefficient det(C) tau_a(u/eps, C^-1) up to
sign and eps^-n, so B(C) itself is degenerated, at rescaled points.

Everything except the final spectra step is exact: torus elements are
unit-modulus Gaussian rationals from the Pythagorean parametrization, and
exp(-eps*chi) enters only through its exact rational Taylor truncation.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

from .gaudin import CommutingFamily, GaudinConfig, residue_members
from .glrep import build_tensor
from .scalars import (
    QQI_ONE,
    Mat,
    QQi,
    RatFun,
    column_minors,
    unit_circle_point,
)


class BetheError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Torus elements


class TorusElement:
    """A diagonal torus element with exact unit-modulus entries."""

    def __init__(self, entries, require_unit=True):
        self.entries = [QQi.of(c) for c in entries]
        if require_unit and any(c.abs2() != 1 for c in self.entries):
            raise BetheError("torus entries must have |c|^2 = 1 exactly")
        if any(not c for c in self.entries):
            raise BetheError("torus entries must be invertible")

    def __repr__(self):
        return f"TorusElement({', '.join(str(c) for c in self.entries)})"


def wall_pair(n, j):
    """The ordered index pair of wall j of the base alcove: (j, j + 1) for
    j < n, and (n, 1) for the affine wall j = n.  gl_1 has no walls."""
    if n < 2:
        raise BetheError(f"gl_{n} has no alcove walls")
    if not (1 <= j <= n):
        raise BetheError(f"wall index {j} out of range")
    return (j, j + 1) if j < n else (n, 1)


def rotate_weight(w, r):
    """The weight P^r w, entry m of w moved to m + r (indices mod n).

    P is the affine Dynkin rotation P e_m = e_{m+1}, e_{n+1} = e_1.  It maps
    wall j to wall j + 1: wall_pair(n, j) = P^(j-1) wall_pair(n, 1), the
    affine wall included.  Delta(P) B(C) Delta(P)^-1 = B(P C P^-1) member by
    member, and P C P^-1 is C with its entries rolled by one, so the lines of
    a wall family at C of weight w go to lines of weight P w at the next
    wall, with the same h: a wall-1 family carries the strings of every wall.
    """
    w = tuple(w)
    r %= len(w)
    return w[-r:] + w[:-r]


def standard_torus(n, wall=None) -> TorusElement:
    """Deterministic unit entries with decreasing angles in (0, pi/2).

    wall = None gives a regular element; at wall j the larger index of
    `wall_pair(n, j)` takes the entry of the smaller, so wall n sets entry n
    to entry 1 (the affine coincidence).  Merged entries are cyclically
    adjacent on the circle.
    """
    entries = [unit_circle_point(Fraction(n - m, n + 1)) for m in range(n)]
    if wall is not None:
        i, j = sorted(wall_pair(n, wall))
        entries[j - 1] = entries[i - 1]
    return TorusElement(entries)


# ---------------------------------------------------------------------------
# Evaluated T-matrices


def ev_t_grid(cfg: GaudinConfig, orders) -> dict:
    """{rep: grid} of the evaluated T-matrix, for the factor reps whose
    minors of some order in `orders` `_factor_minors` sweeps.

    ev T(u) = T^(1)(u) ... T^(k)(u) with T^(i)(u) = 1 + E^(i)/(u - w_i).
    A factor's order-1 table is its T(u), read off `rep.e`, and C^n's tables
    are written in closed form, so a sweep reads the grid of a factor rep
    that is not C^n and lacks the table of an order above 1 asked for, at
    the first slot that meets it; no other grid is built.
    """
    high = [a for a in orders if a > 1]
    grids = {}
    for (rep, _, _), w in zip(cfg.rep.factors, cfg.points):
        built = _FACTOR_MINORS.get(rep, {})
        if rep not in grids and any(a not in built for a in high) and not _is_defining(rep):
            grids[rep] = _factor_grid(rep, w)
    return grids


def _factor_grid(rep, w):
    """The n x n grid of the polynomial entries (u - w) delta_rc + E_rc of
    (u - w) T(u) on the factor `rep` at w, as pole-free RatFuns at the
    dimension of the factor alone."""
    n, ident = rep.n, Mat.identity(rep.dim)
    return [
        [
            RatFun([rep.e(r + 1, c + 1) - ident * w, ident] if r == c else [rep.e(r + 1, c + 1)])
            for c in range(n)
        ]
        for r in range(n)
    ]


# ---------------------------------------------------------------------------
# Quantum minors and tau functions


# config -> {a: {I: QM_I} over |I| = a}; an entry is dropped when its config is freed
_MINORS = weakref.WeakKeyDictionary()
# factor rep -> {a: (w0, its order-a minor table at w0)}; dropped when the rep is freed
_FACTOR_MINORS = weakref.WeakKeyDictionary()


def quantum_minors(cfg: GaudinConfig, a) -> dict:
    """{I: QM_I(u)} over the index subsets I with |I| = a, built on first use
    and kept per config.

    QM_I is the column determinant of T(u) restricted to the rows and columns
    in I, column m taken at u - m.  It does not depend on the torus element,
    so every family of one configuration shares the table of each order,
    and an order that no family asks for is never built: a family of tau_1
    reads the order-1 table alone.  It is built by the coproduct from the
    order-a minors QM_{I,J} of each factor (`_slot_minors`): one table per
    distinct factor rep and order, which each slot reaches by a shift.  A
    factor's order-1 table is its T(u), read off `rep.e`; the tables of C^n
    are written down in closed form, and every other one comes from one
    `column_minors` sweep per column set of size a at factor dimension.
    `_chain_minors` Kronecker-multiplies the slots' tables, skipping the
    zero minors.
    """
    return _minor_tables(cfg, (a,))[a]


def _minor_tables(cfg, orders) -> dict:
    """{a: table} of the config, with the `quantum_minors` table of every
    order in `orders` built: the missing orders share one `ev_t_grid`
    pass, so a family of several orders builds each factor grid once."""
    tables = _MINORS.setdefault(cfg, {})
    missing = [a for a in orders if a not in tables]
    if missing:
        grids = ev_t_grid(cfg, missing)
        for a in missing:
            slots = [
                _slot_minors(rep, grids.get(rep), w, a)
                for (rep, _, _), w in zip(cfg.rep.factors, cfg.points)
            ]
            tables[a] = _chain_minors(slots, cfg.n, a)
    return tables


def _slot_minors(rep, grid, w, a) -> dict:
    """The order-a minor table of the factor `rep` at the point w of its slot.

    A factor's grid is (u - w) + E, so QM_{I,J}(u; w) = QM_{I,J}(u - w; 0):
    the table depends on the rep and the point only through u - w.  It is
    built once per rep and order, at the point w0 of the first slot that
    asks for that order, and kept beside the rep for as long as the rep
    lives; every other slot, of this configuration or of another built on
    the same rep, shifts it by w - w0 at factor dimension.  So the first slot
    pays for one table and no shift: T(u) itself at order 1
    (`_order_one_minors`), `_defining_minors` for C^n, which `ev_t_grid`
    gives no grid, or the `_factor_minors` sweep of `grid`.
    """
    built = _FACTOR_MINORS.setdefault(rep, {})
    if a not in built:
        if a == 1:
            table = _order_one_minors(rep, w)
        elif grid is None:
            table = _defining_minors(rep, w, a)
        else:
            table = _factor_minors(grid, w, a)
        built[a] = (w, table)
    w0, table = built[a]
    if w == w0:
        return table
    return {key: qm.shift_arg(w - w0) for key, qm in table.items()}


def _is_defining(rep) -> bool:
    """Whether `rep` is C^n with E_ab the matrix unit e_ab, exactly."""
    n = rep.n
    return rep.dim == n and all(
        rep.e(a + 1, b + 1) == Mat.unit(n, n, a, b) for a in range(n) for b in range(n)
    )


def _order_one_minors(rep, w) -> dict:
    """The order-1 `_factor_minors` table of the factor `rep` at w: its
    T(u) itself, QM_{(i),(j)} = delta_ij + E_ij/(u - w), read off `rep.e`
    with no sweep, and with the zero entries left out."""
    n, ident = rep.n, Mat.identity(rep.dim)
    shift, pole = ident * w, {w: 1}
    table = {}
    for i in range(n):
        for j in range(n):
            e = rep.e(i + 1, j + 1)
            if i == j:
                table[(i,), (i,)] = RatFun([e - shift, ident], pole)
            elif e:
                table[(i,), (j,)] = RatFun([e], pole)
    return table


def _defining_minors(rep, w, a) -> dict:
    """The order-a `_factor_minors` table of the defining rep C^n at w, in
    closed form.

    On C^n the Lax matrix is 1 + P/(u - w), P the flip of the auxiliary and
    the quantum copy of C^n, and on the image of the antisymmetrizer the
    fused product collapses (Molev, Yangians and Classical Lie Algebras,
    ch. 1): A_a T_1(u) ... T_a(u - a + 1) = A_a (1 + (P_1 + ... + P_a)/(u - w)).
    So QM_{I,I} = 1 + (sum_{i in I} E_ii)/(u - w); QM_{I,J} = (-1)^(p + q)
    E_ij/(u - w) when I - {i} = J - {j}, with i at position p of I and j at
    position q of J; and QM_{I,J} = 0 when I and J differ in two or more
    places, so those are left out.  The `column_minors` sweep is its
    oracle.
    """
    n = rep.n
    ident = Mat.identity(n)
    shift = ident * w
    pole = {w: 1}
    table = {}
    for I in combinations(range(n), a):
        diag = sum((rep.e(i + 1, i + 1) for i in I[1:]), rep.e(I[0] + 1, I[0] + 1))
        table[I, I] = RatFun([diag - shift, ident], pole)
        for p, i in enumerate(I):
            rest = I[:p] + I[p + 1 :]
            for j in range(n):
                if j not in I:
                    J = tuple(sorted(rest + (j,)))
                    unit = rep.e(i + 1, j + 1)
                    num = unit if (p + J.index(j)) % 2 == 0 else -unit
                    table[I, J] = RatFun([num], pole)
    return table


def _factor_minors(grid, w, a) -> dict:
    """{(I, J): QM_{I,J}} over |I| = |J| = a of one factor T(u) = grid(u) / (u - w).

    One `column_minors` sweep per column set J of size a, on the pole-free
    polynomial entries of those columns with column m at u - m, gives the
    minors of every row set I.  Each quotient by prod_{m<a} (u - w - m) is
    cancelled here, once per rep and order, and nowhere else: the removable
    poles of the minors are born in it.  Zero minors are left out.
    """
    poles = {w + m: 1 for m in range(a)}
    table = {}
    for J in combinations(range(len(grid)), a):
        cols = [[row[c].shift_arg(m) for m, c in enumerate(J)] for row in grid]
        for I, det in column_minors(cols).items():
            if det.num:
                table[I, J] = RatFun(det.num, poles).cancel()
    return table


def _chain_minors(tables, n, a) -> dict:
    """{I: QM_I} over |I| = a of the product of the factors whose order-a
    minor tables are given.

    Entries of different slots commute, so the Yangian coproduct gives
    QM_{I,J}(T' T'') = sum over |K| = |I| of QM_{I,K}(T') (x) QM_{K,J}(T'')
    (Molev, Yangians and Classical Lie Algebras, ch. 1): the orders never
    mix.  The tables are folded in the order given, the last one for the
    diagonal I = J only; a table holds no zero minor, so the sum runs over
    the K where both factors are present.  A diagonal minor tends to the
    identity at infinity, so it is never zero.
    """
    block = list(combinations(range(n), a))
    acc = tables[0]
    for i, table in enumerate(tables[1:], start=2):
        pairs = [(I, I) for I in block] if i == len(tables) else [
            (I, J) for I in block for J in block
        ]
        folded = {}
        for I, J in pairs:
            total = RatFun.sum([
                acc[I, K].kron(table[K, J])
                for K in block
                if (I, K) in acc and (K, J) in table
            ])
            if total.num:
                folded[I, J] = total
        acc = folded
    return {I: acc[I, I] for I in block}


def tau_ratfun(a, C: TorusElement, cfg: GaudinConfig) -> RatFun:
    """tau_a(u, C) as one exact matrix-valued rational function of u.

    Quantum-minor expansion: the sum over a-subsets I of c_I QM_I(u), where
    c_I is the product of the entries of C over I; only the order-a table is
    read.
    """
    n = cfg.n
    if not (1 <= a <= n):
        raise BetheError(f"tau index a={a} out of range")
    minors = quantum_minors(cfg, a)
    terms = []
    for subset in combinations(range(n), a):
        c_i = QQI_ONE
        for i in subset:
            c_i = c_i * C.entries[i]
        terms.append(minors[subset] * c_i)
    return RatFun.sum(terms)


# ---------------------------------------------------------------------------
# Bethe families


class BetheFamily(CommutingFamily):
    """Every Laurent coefficient of the tau functions at C, exact and commuting."""

    error = BetheError
    convention = "tau_a(u, C) = tr A_a C_1..C_a T_1(u)..T_a(u-a+1), T(u) = 1 + E/(u - z)"
    # bound in this class's own namespace too, so that per-class method
    # patching (perfbench/tracer.py) times Bethe and Gaudin checks apart
    verify_commuting = CommutingFamily.verify_commuting

    def __init__(self, members, config, C):
        self.C = C
        super().__init__(members, config, "bethe")

    def normality_report(self):
        """Each member against its adjoint under the rep's invariant form, by
        the block certificate: the Gram matrix keeps each weight space, so an
        adjoint that moves a weight raises the family's error by tag."""
        adjoints = [self.config.rep.adjoint(g) for g in self.gens]
        m = len(self.gens)
        cert = self.weight_certificate(self.gens + adjoints, [(k, m + k) for k in range(m)])
        bad = [list(map(str, tag)) for tag, ok in zip(self.tags, cert.commute) if not ok]
        return {"passed": not bad, "failures": bad}


def tau_members(C: TorusElement, cfg: GaudinConfig, orders=None):
    """The whole partial-fraction expansion of tau_a(u, C), for the orders a
    of `orders` in that order, or a = 1..n when it is None.

    ("tau-res", a, p, l) is res_{u=p} (u - p)^l tau_a, the coefficient of
    1/(u - p)^(l+1), and ("tau-inf", a) the value at infinity.  The functions
    1 and 1/(u - p)^k are linearly independent, so a family holding every
    coefficient commutes exactly when [tau_a(u), tau_b(v)] = 0 identically.
    """
    orders = range(1, cfg.n + 1) if orders is None else orders
    _minor_tables(cfg, orders)
    members = []
    for a in orders:
        f = tau_ratfun(a, C, cfg)
        for p in sorted(f.poles, key=QQi.parts_text):
            for l in range(f.poles[p]):
                r = f.residue(p, l)
                if r:
                    members.append((("tau-res", a, str(p), l), r))
        inf = f.infinity_value()
        if inf:
            members.append((("tau-inf", a), inf))
    return members


def bethe_family(C: TorusElement, cfg: GaudinConfig, orders=None, lower=None) -> BetheFamily:
    """The tau members of `orders` at C (every order, B(C) itself, when it is
    None) as one verified commuting family.  With `lower`, a family at the
    same C and configuration, its members come first and are not rebuilt."""
    members = [] if lower is None else lower.members()
    return BetheFamily(members + tau_members(C, cfg, orders), cfg, C)


# ---------------------------------------------------------------------------
# Shift-operator residues and the degeneration to Gaudin


# degree of the exp(-eps chi) truncation in the shift operator
EXP_ORDER = 8


def exp_truncated(x):
    """Exact degree-`EXP_ORDER` Taylor truncation of exp(x)."""
    x = QQi.of(x)
    term = QQi(1)
    total = QQi(1)
    for j in range(1, EXP_ORDER + 1):
        term = term * x * QQi(Fraction(1, j))
        total = total + term
    return total


def exp_tail_bound(x_abs2: Fraction) -> Fraction:
    """Rational upper bound for |exp(x) - exp_truncated(x)| when |x|^2 <= x_abs2 < 1."""
    if x_abs2 >= 1:
        raise BetheError("tail bound assumes |x| < 1")
    # |x| <= s where s^2 = x_abs2; use |x|^{N+1}/(N+1)! * 1/(1-|x|)
    # with the crude rational bound |x| <= (1 + x_abs2)/2 >= sqrt
    s = (1 + x_abs2) / 2
    num = s ** (EXP_ORDER + 1)
    return num / (factorial(EXP_ORDER + 1) * (1 - s))


def shift_residue_generators(eps, cfg: GaudinConfig):
    """r_{k, z_i, l, eps}: grouped residues of the d-basis coefficients.

    The shift operator is the cdet of eps^-1 (T(u/eps) S - C), where
    S f(u) = f(u - eps) S, C = diag(exp_trunc(-eps chi_shift)) with
    chi_shift = cfg.chi, and T is the evaluation T-matrix with points
    w_i = z_i/eps + d_i + 1.  Its S^a coefficient is the quantum-minor
    expansion R_a(u) = (-1)^(n-a) eps^-n det(C) tau_a(u/eps, C^-1),
    read from the minor table of that rescaled configuration.  The shift
    expansion converts to the derivative basis via S^a = exp(-a eps d_u);
    the coefficient of d^k is b_k(u) = sum_a R_a(u) (-a eps)^k / k!, exact
    for each k.  R_0 is constant, so only a >= 1 has residues.  Residues are
    grouped around the points z_i and weighted by (u - z_i)^l; in v = u/eps,
    res_{u = eps p} (u - z)^l g = eps^(l+1) res_{v=p} (v - z/eps)^l g.
    """
    eps = QQi.of(eps)
    if not eps:
        raise BetheError("eps must be nonzero")
    n, rep, chi_shift = cfg.n, cfg.rep, cfg.chi
    centers = [z / eps for z in rep.points]
    shifts = [QQi.of(d) for d in rep.shifts]
    vcfg = GaudinConfig(
        build_tensor([(r, w + d + 1, d) for (r, _, d), w in zip(rep.factors, centers)]),
        chi_shift,
    )
    diag = [exp_truncated(-eps * x) for x in chi_shift]
    c_inv = TorusElement([x.inverse() for x in diag], require_unit=False)
    det = prod(diag, start=QQi(1))
    offsets = {QQi(j) for j in range(n + 2)}
    # weighted[a][i, l] = sum over the poles p of group i of
    # res_{v=p} (v - z_i/eps)^l tau_a(v, C^-1)
    weighted = {}
    _minor_tables(vcfg, range(1, n + 1))
    for a in range(1, n + 1):
        f = tau_ratfun(a, c_inv, vcfg)
        sums = weighted[a] = {}
        for p in f.poles:
            hit = next(
                (i for i, w in enumerate(centers) if p - w - shifts[i] in offsets), None
            )
            if hit is None:
                raise BetheError(f"pole {p} not matched to any center (collision?)")
            # (v - w)^l = sum_m C(l, m) (p - w)^(l-m) (v - p)^m
            delta = p - centers[hit]
            res = [f.residue(p, m) for m in range(n + 1)]
            for l in range(n + 1):
                total = sums.get((hit, l))
                for m in range(l + 1):
                    if res[m]:
                        term = res[m] * (QQi(comb(l, m)) * delta ** (l - m))
                        total = term if total is None else total + term
                if total is not None:
                    sums[hit, l] = total
    out = {}
    for k in range(n + 1):
        # R_a's factor (-1)^(n-a) eps^-n det(C), times (-a eps)^k / k!
        coeff = {
            a: QQi(Fraction((-1) ** (n - a) * (-a) ** k, factorial(k))) * det * eps ** (k - n)
            for a in weighted
        }
        for i in range(len(centers)):
            for l in range(k + 1):
                total = None
                for a, sums in weighted.items():
                    if (i, l) in sums:
                        term = sums[i, l] * (coeff[a] * eps ** (l + 1))
                        total = term if total is None else total + term
                if total is not None and total:
                    out[(k, i + 1, l)] = total
    return out


def degeneration_report(cfg, eps_list) -> dict:
    """Max-entry distance between shift-operator residues and Gaudin generators.

    chi_shift is cfg.chi.  The Gaudin side is cdet(L_z(u) - d_u + chi_shift),
    i.e. the config chi is -chi_shift under this package's sign convention.
    A key on one side only is compared against zero.
    """
    chi_shift = cfg.chi
    gcfg = GaudinConfig(cfg.rep, [-x for x in chi_shift])
    # ("res", k, i, l) -> (k, i, l), the keys of shift_residue_generators
    targets = {tag[1:]: r for tag, r in residue_members(gcfg)}
    zero = Mat.zeros(cfg.rep.dim)
    rows = []
    for eps in eps_list:
        shifted = shift_residue_generators(eps, cfg)
        dist = max(
            (
                (shifted.get(key, zero) - targets.get(key, zero)).max_abs()
                for key in targets.keys() | shifted.keys()
            ),
            default=0.0,
        )
        rows.append({"eps": str(QQi.of(eps)), "distance": dist})
    ratios = [
        rows[i + 1]["distance"] / rows[i]["distance"]
        for i in range(len(rows) - 1)
        if rows[i]["distance"]
    ]
    max_abs2 = Fraction(0)
    for e in eps_list:
        for v in chi_shift:
            val = (QQi.of(e) * v).abs2()
            if val > max_abs2:
                max_abs2 = val
    tail = exp_tail_bound(max_abs2) if max_abs2 < 1 else None
    return {
        "convention": "shift side tracks cdet(L(u) - d_u + chi_shift); "
        "gaudin config uses chi = -chi_shift",
        "rows": rows,
        "ratios": ratios,
        "exp_tail_bound": None if tail is None else float(tail),
    }
