"""Evaluated Bethe generators, the shift-operator column determinant, and
the finite-step degeneration to Gaudin generators.

tau_a(u, C) is the trace over (C^n)^{tensor a} of A_a C_1..C_a T_1(u)..
T_a(u-a+1) with T evaluated on the tensor product of factors.  The production
path expands it over quantum minors weighted by products of C entries; the
literal trace (two independent forms) is kept for cross-checks.

Everything except the final spectra step is exact: torus elements are
unit-modulus Gaussian rationals from the Pythagorean parametrization, and
exp(-eps*chi) enters only through its exact rational Taylor truncation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from .gaudin import CommutingFamily, GaudinConfig, center_members
from .scalars import Mat, QQi, RatFun, ShiftOpPoly, cdet, sgn, unit_circle_point


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

    @property
    def n(self):
        return len(self.entries)

    def is_regular(self):
        seen = set()
        for c in self.entries:
            key = (c.re, c.im)
            if key in seen:
                return False
            seen.add(key)
        return True

    def coincidence_classes(self):
        classes = {}
        for a, c in enumerate(self.entries, start=1):
            classes.setdefault((c.re, c.im), []).append(a)
        return list(classes.values())

    def coincident_pair(self):
        """The unique coincident pair, if the element is subregular."""
        pairs = [cl for cl in self.coincidence_classes() if len(cl) > 1]
        if len(pairs) != 1 or len(pairs[0]) != 2:
            return None
        return tuple(pairs[0])

    def normalized(self):
        """Same adjoint-torus class with first entry 1."""
        c0 = self.entries[0]
        return TorusElement([c / c0 for c in self.entries], require_unit=False)

    def scaled(self, a):
        return TorusElement([c * QQi.of(a) for c in self.entries], require_unit=False)

    def __repr__(self):
        return f"TorusElement({', '.join(str(c) for c in self.entries)})"


def standard_torus(n, wall=None) -> TorusElement:
    """Deterministic unit entries with decreasing angles in (0, pi/2).

    wall = j in 1..n-1 merges entries j and j+1; wall = n merges entry n
    with entry 1 (the affine coincidence); wall = None gives a regular
    element.  Merged entries are cyclically adjacent on the circle.
    """
    ts = [Fraction(n - m, n + 1) for m in range(n)]
    entries = [unit_circle_point(t) for t in ts]
    if wall is not None:
        if not (1 <= wall <= n):
            raise BetheError(f"wall index {wall} out of range")
        if wall < n:
            entries[wall] = entries[wall - 1]
        else:
            entries[n - 1] = entries[0]
    return TorusElement(entries)


# ---------------------------------------------------------------------------
# Antisymmetrizer and evaluated T-matrices


def antisymmetrizer(n, a) -> Mat:
    """A_a on (C^n)^{tensor a}, normalized idempotent, rank C(n,a)."""
    if not (1 <= a <= n):
        raise BetheError(f"antisymmetrizer needs 1 <= a <= n, got a={a}")
    dim = n**a
    m = Mat.zeros(dim)
    idx = list(product(range(n), repeat=a))
    pos = {t: i for i, t in enumerate(idx)}
    inv_fact = QQi(Fraction(1, factorial(a)))
    for sigma in permutations(range(a)):
        sign = sgn(sigma)
        for j in idx:
            i = tuple(j[sigma[m_]] for m_ in range(a))
            # sigma moves the vector in slot m to slot sigma(m):
            # (sigma v)_{sigma(m)} = v_m, so row index i has i_{sigma(m)} = j_m
            row = [0] * a
            for m_ in range(a):
                row[sigma[m_]] = j[m_]
            r = pos[tuple(row)]
            cval = m.rows[r][pos[j]]
            m.rows[r][pos[j]] = cval + (inv_fact if sign > 0 else -inv_fact)
    return m


def ev_t_grid(cfg: GaudinConfig, shift=0):
    """Entries of the evaluated T-matrix at argument u - shift.

    ev T(v) = prod_i (1 + E^{(i)}/(v - w_i)), an n x n grid of matrix-valued
    rational functions of u with v = u - shift.
    """
    n, rep = cfg.n, cfg.rep
    dim = rep.dim
    shift = QQi.of(shift)
    ident = Mat.identity(dim)
    grid = [
        [RatFun.const(ident if r == c else Mat.zeros(dim)) for c in range(n)]
        for r in range(n)
    ]
    for slot, w in enumerate(cfg.points):
        factor = [
            [
                (RatFun.const(ident) if r == c else RatFun.const(Mat.zeros(dim)))
                + RatFun.pole_term(rep.e_slot(slot, r + 1, c + 1), w + shift)
                for c in range(n)
            ]
            for r in range(n)
        ]
        grid = _grid_mul(grid, factor, n)
    return grid


def _grid_mul(A, B, n):
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


# ---------------------------------------------------------------------------
# tau functions


def tau_ratfun(a, C: TorusElement, cfg: GaudinConfig) -> RatFun:
    """tau_a(u, C) as one exact matrix-valued rational function of u.

    Quantum-minor expansion: sum over a-subsets I of prod_{i in I} c_i times
    the column-ordered minor with row permutation sign and arguments
    u, u-1, ..., u-a+1 down the columns.
    """
    n = cfg.n
    if not (1 <= a <= n):
        raise BetheError(f"tau index a={a} out of range")
    grids = [ev_t_grid(cfg, m) for m in range(a)]
    total = None
    for subset in combinations(range(n), a):
        c_i = QQi(1)
        for i in subset:
            c_i = c_i * C.entries[i]
        for sigma in permutations(range(a)):
            term = grids[0][subset[sigma[0]]][subset[0]]
            for m in range(1, a):
                term = term * grids[m][subset[sigma[m]]][subset[m]]
            term = term * (c_i if sgn(sigma) > 0 else -c_i)
            total = term if total is None else total + term
    return total


def tau_eval(a, C: TorusElement, cfg: GaudinConfig, u) -> Mat:
    """tau_a(u0, C) at an exact sample point."""
    return tau_ratfun(a, C, cfg).eval(QQi.of(u))


def tau_trace_direct(a, C: TorusElement, cfg: GaudinConfig, u) -> Mat:
    """Literal index-sum form of tr A_a C_1..C_a T_1(u)..T_a(u-a+1)."""
    n = cfg.n
    u = QQi.of(u)
    tvals = []
    for m in range(a):
        grid = ev_t_grid(cfg, m)
        tvals.append([[grid[r][c].eval(u) for c in range(n)] for r in range(n)])
    dim = cfg.rep.dim
    total = Mat.zeros(dim)
    inv_fact = QQi(Fraction(1, factorial(a)))
    for sigma in permutations(range(a)):
        inv = [0] * a
        for m, v in enumerate(sigma):
            inv[v] = m
        sign = QQi(sgn(sigma))
        for j in product(range(n), repeat=a):
            coeff = QQi(1)
            for jm in j:
                coeff = coeff * C.entries[jm]
            term = tvals[0][j[0]][j[inv[0]]]
            for m in range(1, a):
                term = term * tvals[m][j[m]][j[inv[m]]]
            total = total + term * (coeff * inv_fact * sign)
    return total


def tau_kron_direct(a, C: TorusElement, cfg: GaudinConfig, u) -> Mat:
    """Fully literal route: build A_a C_1..C_a T_1..T_a on (C^n)^a x V and trace."""
    n = cfg.n
    dim = cfg.rep.dim
    u = QQi.of(u)
    aux = n**a
    big = antisymmetrizer(n, a).kron(Mat.identity(dim))
    cmat = Mat([[QQi(0)] * n for _ in range(n)])
    for i in range(n):
        cmat.rows[i][i] = C.entries[i]
    for m in range(a):
        big = big * _embed_aux(cmat, n, a, m, dim, constant=True)
    for m in range(a):
        grid = ev_t_grid(cfg, m)
        tval = [[grid[r][c].eval(u) for c in range(n)] for r in range(n)]
        big = big * _embed_aux(tval, n, a, m, dim, constant=False)
    out = Mat.zeros(dim)
    for q in range(aux):
        block = [
            [big.rows[q * dim + r][q * dim + c] for c in range(dim)]
            for r in range(dim)
        ]
        out = out + Mat(block)
    return out


def _embed_aux(entry_grid, n, a, slot, dim, constant):
    """Aux-slot embedding of an n x n (scalar or Mat-valued) matrix."""
    rows = []
    idx = list(product(range(n), repeat=a))
    pos = {t: i for i, t in enumerate(idx)}
    big = Mat.zeros(n**a * dim)
    for j in idx:
        for r in range(n):
            i = list(j)
            i[slot] = r
            val = (
                entry_grid.rows[r][j[slot]]
                if constant
                else entry_grid[r][j[slot]]
            )
            if not val:
                continue
            rpos, cpos = pos[tuple(i)], pos[j]
            if constant:
                for d in range(dim):
                    big.rows[rpos * dim + d][cpos * dim + d] = val
            else:
                for dr in range(dim):
                    for dc in range(dim):
                        v = val.rows[dr][dc]
                        if v:
                            big.rows[rpos * dim + dr][cpos * dim + dc] = v
    return big


# ---------------------------------------------------------------------------
# Bethe families


class BetheFamily(CommutingFamily):
    """Residues and infinity values of the tau functions at C, exact and commuting."""

    error = BetheError
    # bound in this class's own namespace too, so that per-class method
    # patching (perfbench/tracer.py) times Bethe and Gaudin checks apart
    verify_commuting = CommutingFamily.verify_commuting

    def __init__(self, members, config, C, kind="bethe"):
        self.C = C
        super().__init__(members, config, kind)

    def normality_report(self):
        rep = self.config.rep
        bad = []
        for tag, g in self.members():
            adj = rep.adjoint(g)
            if g * adj != adj * g:
                bad.append(list(map(str, tag)))
        return {"passed": not bad, "failures": bad}


def bethe_family(C: TorusElement, cfg: GaudinConfig, taus=None) -> BetheFamily:
    """Members: every residue of tau_a plus its value at infinity, a = 1..n."""
    n = cfg.n
    members = []
    taus = taus if taus is not None else {
        a: tau_ratfun(a, C, cfg) for a in range(1, n + 1)
    }
    for a in range(1, n + 1):
        f = taus[a]
        for p in sorted(f.poles, key=lambda q: (str(q.re), str(q.im))):
            r = f.residue(p, 0)
            if r:
                members.append((("tau-res", a, str(p)), r))
        inf = f.infinity_value()
        if isinstance(inf, Mat) and inf:
            members.append((("tau-inf", a), inf))
    return BetheFamily(members, cfg, C)


def torus_center_members(C: TorusElement, cfg: GaudinConfig):
    """Delta of the center of z(C): one diagonal sum per coincidence class."""
    return center_members(cfg.rep, C.coincidence_classes())


def wall_bethe_family(C0: TorusElement, pair, cfg: GaudinConfig) -> BetheFamily:
    """tau-family at a wall torus element, extended by Delta(h_ij).

    `pair` is the ordered wall pair (i, j): h = E_ii - E_jj; for the affine
    wall of the base alcove this is (n, 1).
    """
    got = C0.coincident_pair()
    if got is None or set(got) != set(pair):
        raise BetheError(
            f"torus element coincidences {C0.coincidence_classes()} do not "
            f"match the wall pair {pair}"
        )
    i, j = pair
    h = cfg.rep.delta(i, i) - cfg.rep.delta(j, j)
    fam = bethe_family(C0, cfg)
    return fam.extended(
        torus_center_members(C0, cfg) + [(("h", i, j), h)], kind="bethe-wall"
    )


def bethe_commuting_certificate(
    C: TorusElement, cfg: GaudinConfig, margin=2, base=None
) -> dict:
    """Sampling certificate that [tau_a(u1), tau_b(u2)] vanishes identically.

    The commutator times the two denominators is polynomial of degree at most
    deg_a = a*k in u1 and b*k in u2; vanishing on a grid strictly larger than
    the degree bound in each variable certifies identical vanishing.
    """
    n, k = cfg.n, cfg.k
    taus = {a: tau_ratfun(a, C, cfg) for a in range(1, n + 1)}
    base = QQi.of(base) if base is not None else QQi(Fraction(4001, 7))
    witnesses = []
    grids = {}
    for a in range(1, n + 1):
        bound = a * k
        pts = []
        off = 0
        while len(pts) < bound + margin:
            u = base + QQi(off)
            off += 1
            try:
                pts.append((u, taus[a].eval(u)))
            except ZeroDivisionError:
                continue
        grids[a] = pts
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            for u1, m1 in grids[a]:
                for u2, m2 in grids[b]:
                    if m1.commutator(m2):
                        witnesses.append(
                            {"a": a, "b": b, "u1": str(u1), "u2": str(u2)}
                        )
    return {
        "grid_sizes": {a: len(grids[a]) for a in grids},
        "degree_bounds": {a: a * k for a in range(1, n + 1)},
        "margin": margin,
        "passed": not witnesses,
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# Shift-operator column determinant and the degeneration to Gaudin


def exp_truncated(x, order=8):
    """Exact degree-`order` Taylor truncation of exp(x)."""
    x = QQi.of(x)
    term = QQi(1)
    total = QQi(1)
    for j in range(1, order + 1):
        term = term * x * QQi(Fraction(1, j))
        total = total + term
    return total


def exp_tail_bound(x_abs2: Fraction, order=8) -> Fraction:
    """Rational upper bound for |exp(x) - truncation| when |x|^2 <= x_abs2 < 1."""
    if x_abs2 >= 1:
        raise BetheError("tail bound assumes |x| < 1")
    # |x| <= s where s^2 = x_abs2; use |x|^{N+1}/(N+1)! * 1/(1-|x|)
    # with the crude rational bound |x| <= (1 + x_abs2)/2 >= sqrt
    s = (1 + x_abs2) / 2
    num = s ** (order + 1)
    return num / (factorial(order + 1) * (1 - s))


def shift_operator_matrix(eps, c, cfg: GaudinConfig, exp_order=8):
    """Entries of eps^{-1}(S_eps(1 + eps L(u)) - exp_trunc(-eps chi)).

    chi is taken from cfg.  L here is the Lax matrix at the rescaled points
    z_i/c + eps*d_i, so the poles of the S-coefficient sit at
    z_i/c + eps(d_i + 1).
    """
    eps, c = QQi.of(eps), QQi.of(c)
    if not eps or not c:
        raise BetheError("eps and c must be nonzero")
    n, rep = cfg.n, cfg.rep
    dim = rep.dim
    ident = Mat.identity(dim)
    inv_eps = eps.inverse()
    centers = [z / c for z in cfg.points]
    entries = []
    for a in range(n):
        row = []
        for b in range(n):
            s1 = RatFun.const(ident * inv_eps) if a == b else RatFun.const(
                Mat.zeros(dim)
            )
            for slot, z in enumerate(cfg.points):
                pole = centers[slot] + eps * (QQi.of(rep.shifts[slot]) + 1)
                s1 = s1 + RatFun.pole_term(
                    rep.e_slot(slot, a + 1, b + 1), pole
                )
            if a == b:
                s0 = RatFun.const(
                    ident * (-inv_eps * exp_truncated(-eps * cfg.chi[a], exp_order))
                )
            else:
                s0 = RatFun.const(Mat.zeros(dim))
            row.append(ShiftOpPoly([s0, s1], eps))
        entries.append(row)
    return entries


def shift_residue_generators(eps, c, chi_shift, cfg: GaudinConfig, exp_order=8):
    """r_{k, z_i, l, eps}: grouped residues of the d-basis coefficients.

    The shift expansion sum_a R_a(u) S^a converts to the derivative basis via
    S^a = exp(-a eps d_u); the coefficient of d^k is
    b_k(u) = sum_a R_a(u) (-a eps)^k / k!, exact for each k.  Residues are
    grouped around the centers z_i/c and weighted by (u - z_i/c)^l.
    """
    eps, c = QQi.of(eps), QQi.of(c)
    cfg_signed = GaudinConfig(cfg.rep, chi_shift)
    op = cdet(shift_operator_matrix(eps, c, cfg_signed, exp_order))
    n = cfg.n
    centers = [z / c for z in cfg.points]
    out = {}
    for k in range(n + 1):
        bk = None
        fact = factorial(k)
        for a_pow, Ra in enumerate(op.coeffs):
            if Ra.is_zero():
                continue
            coeff = (QQi(-a_pow) * eps) ** k * QQi(Fraction(1, fact))
            term = Ra * coeff
            bk = term if bk is None else bk + term
        if bk is None or bk.is_zero():
            continue
        # group poles around the centers
        groups = {i: [] for i in range(len(centers))}
        for p in bk.poles:
            hit = None
            for i, z in enumerate(centers):
                delta = p - z
                # delta must be eps * (d_i + integer j), j = 0..n
                ratio = delta * eps.inverse()
                for j in range(n + 2):
                    if ratio == QQi.of(cfg.rep.shifts[i]) + QQi(j):
                        hit = i
                        break
                if hit is not None:
                    break
            if hit is None:
                raise BetheError(f"pole {p} not matched to any center (collision?)")
            groups[hit].append(p)
        for i, z in enumerate(centers):
            for l in range(k + 1):
                total = None
                weight = RatFun([-z, QQi(1)], {})
                for p in groups[i]:
                    f = bk
                    for _ in range(l):
                        f = f * weight
                    r = f.residue(p, 0)
                    total = r if total is None else total + r
                if total is not None and total:
                    out[(k, i + 1, l)] = total
    return out


def degeneration_report(cfg, chi_shift, eps_list, c=1, exp_order=8) -> dict:
    """Max-entry distance between shift-cdet residues and Gaudin generators.

    The Gaudin side is cdet(L_{z/c}(u) - d_u + chi_shift), i.e. the config
    chi is -chi_shift under this package's sign convention.
    """
    from .gaudin import gaudin_cdet, scaled_config

    c = QQi.of(c)
    base_cfg = GaudinConfig(cfg.rep, [-QQi.of(x) for x in chi_shift])
    gcfg = base_cfg if c == QQi(1) else scaled_config(base_cfg, QQi(1) / c)
    op = gaudin_cdet(gcfg)
    targets = {}
    for k in range(cfg.n + 1):
        bk = op.coeff(k)
        if bk.is_zero():
            continue
        for i, z in enumerate(gcfg.points, start=1):
            for l in range(k + 1):
                r = bk.residue(z, l)
                targets[(k, i, l)] = r
    rows = []
    for eps in eps_list:
        shifted = shift_residue_generators(eps, c, chi_shift, cfg, exp_order)
        dist = 0.0
        for key, target in targets.items():
            got = shifted.get(key)
            if got is None:
                got = Mat.zeros(cfg.rep.dim)
            diff = got - target
            dist = max(dist, diff.max_abs())
        for key, got in shifted.items():
            if key not in targets:
                dist = max(dist, got.max_abs())
        rows.append({"eps": str(QQi.of(eps)), "distance": dist})
    ratios = [
        rows[i + 1]["distance"] / rows[i]["distance"]
        for i in range(len(rows) - 1)
        if rows[i]["distance"]
    ]
    max_abs2 = Fraction(0)
    for e in eps_list:
        for v in chi_shift:
            val = (QQi.of(e) * QQi.of(v)).abs2()
            if val > max_abs2:
                max_abs2 = val
    tail = exp_tail_bound(max_abs2, exp_order) if max_abs2 < 1 else None
    return {
        "convention": "shift side tracks cdet(L(u) - d_u + chi_shift); "
        "gaudin config uses chi = -chi_shift",
        "rows": rows,
        "ratios": ratios,
        "exp_tail_bound": None if tail is None else float(tail),
    }
