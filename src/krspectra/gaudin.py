"""Inhomogeneous Gaudin generators on tensor products, exactly.

The master object is the column determinant of L(u) - d_u - chi over the
normal-ordered differential-operator algebra, where L(u) is the standard Lax
matrix sum_i E^{(i)}/(u - z_i).  Residues of its coefficients give the
commuting family; commutativity is verified, never assumed.

Sign convention: this module fixes cdet(L(u) - d_u - chi) as the generating
operator; reports name this convention where the sign matters.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from .glrep import TensorRep
from .scalars import DiffOpPoly, Mat, QQi, RatFun, cdet, sgn, span_rank


class GaudinError(ValueError):
    pass


class GaudinConfig:
    """n, a rational diagonal chi, distinct points z_i, and the tensor rep."""

    def __init__(self, rep: TensorRep, chi):
        self.rep = rep
        self.n = rep.n
        self.chi = [QQi.of(c) for c in chi]
        if len(self.chi) != self.n:
            raise GaudinError(f"chi must have {self.n} entries")
        self.points = list(rep.points)

    @property
    def k(self):
        return len(self.points)

    def chi_classes(self):
        """Indices of chi grouped by equal value (1-based)."""
        classes = {}
        for a, c in enumerate(self.chi, start=1):
            classes.setdefault((c.re, c.im), []).append(a)
        return list(classes.values())

    def coincident_pairs(self):
        return [tuple(cl) for cl in self.chi_classes() if len(cl) > 1]

    def is_subregular(self):
        pairs = [cl for cl in self.chi_classes() if len(cl) > 1]
        return len(pairs) == 1 and len(pairs[0]) == 2


class CommutingFamily:
    """Exact matrices with provenance tags, verified pairwise commuting.

    The Gaudin families are instances; the Bethe families subclass it.
    """

    error = GaudinError

    def __init__(self, members, config, kind):
        self.tags = [t for t, _ in members]
        self.gens = [g for _, g in members]
        self.config = config
        self.kind = kind
        bad = self.verify_commuting()
        if bad:
            raise self.error(f"commutativity failed for pair {bad}")

    def __len__(self):
        return len(self.gens)

    def verify_commuting(self):
        """The first pair (i < j, in member order) that fails to commute, or None."""
        for i in range(len(self.gens)):
            for j in range(i + 1, len(self.gens)):
                if self.gens[i].commutator(self.gens[j]):
                    return (self.tags[i], self.tags[j])
        return None

    def members(self):
        return list(zip(self.tags, self.gens))

    def extended(self, extra_members, kind=None):
        """The same kind of family with more members, verified afresh."""
        out = copy.copy(self)
        CommutingFamily.__init__(
            out, self.members() + list(extra_members), self.config, kind or self.kind
        )
        return out

    def max_pole_multiplicity(self):
        """Largest witnessed pole order: a nonzero order-l residue needs l+1."""
        return max((t[3] + 1 for t in self.tags if t[0] == "res"), default=0)

    def span_rank(self):
        """Rank of the linear span of the generators (no minimality claimed)."""
        return span_rank(self.gens)

    def report(self):
        return {
            "kind": self.kind,
            "convention": "cdet(L(u) - d_u - chi)",
            "generator_count": len(self.gens),
            "span_rank": self.span_rank(),
            "max_pole_multiplicity": self.max_pole_multiplicity(),
            "tags": [list(map(str, t)) for t in self.tags],
            "commutator_residual": "exact zero",
        }


def lax_matrix(cfg: GaudinConfig):
    """n x n grid of matrix-valued rational functions sum_i E_ab^(i)/(u-z_i)."""
    n, rep = cfg.n, cfg.rep
    out = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            f = RatFun([], {})
            for slot, z in enumerate(cfg.points):
                f = f + RatFun.pole_term(rep.e_slot(slot, a, b), z)
            row.append(f)
        out.append(row)
    return out


def gaudin_operator_matrix(cfg: GaudinConfig):
    """Entries of L(u) - d_u - chi as differential-operator polynomials."""
    n = cfg.n
    dim = cfg.rep.dim
    lax = lax_matrix(cfg)
    ident = Mat.identity(dim)
    entries = []
    for a in range(n):
        row = []
        for b in range(n):
            b0 = lax[a][b]
            if a == b:
                b0 = b0 + RatFun.const(ident * (-cfg.chi[a]))
                row.append(DiffOpPoly([b0, -RatFun.const(ident)]))
            else:
                row.append(DiffOpPoly([b0]))
        entries.append(row)
    return entries


def gaudin_cdet(cfg: GaudinConfig, cap=4) -> DiffOpPoly:
    """cdet(L(u) - d_u - chi), normal ordered; top coefficient is (-1)^n."""
    if cfg.n > cap:
        raise GaudinError(f"n={cfg.n} exceeds the configured cap {cap}")
    return cdet(gaudin_operator_matrix(cfg))


def residue_generators(cfg: GaudinConfig, op: DiffOpPoly | None = None) -> CommutingFamily:
    """All res_{u=z_i}(u-z_i)^l b_k(u), k = 0..n, l = 0..k, as exact matrices."""
    op = op if op is not None else gaudin_cdet(cfg)
    members = []
    for k in range(cfg.n + 1):
        bk = op.coeff(k)
        if bk.is_zero():
            continue
        for i, z in enumerate(cfg.points, start=1):
            for l in range(k + 1):
                r = bk.residue(z, l)
                if r:
                    members.append((("res", k, i, l), r))
    return CommutingFamily(members, cfg, "gaudin")


def invariance_check(fam: CommutingFamily) -> dict:
    """Every generator must commute with the centralizer of chi, diagonally."""
    cfg = fam.config
    rep = cfg.rep
    failures = []
    checked = []
    for cls in cfg.chi_classes():
        for a in cls:
            for b in cls:
                x = rep.delta(a, b)
                checked.append((a, b))
                for tag, g in fam.members():
                    if g.commutator(x):
                        failures.append({"generator": list(map(str, tag)), "x": (a, b)})
    return {
        "checked_centralizer_basis": checked,
        "failures": failures,
        "passed": not failures,
    }


def wall_family(cfg: GaudinConfig, pair=None) -> CommutingFamily:
    """The subregular family extended by the coroot Delta(h_ij) of the wall."""
    pairs = cfg.coincident_pairs()
    if pair is None:
        if not cfg.is_subregular():
            raise GaudinError(
                f"chi is not subregular (coincidence classes {cfg.chi_classes()})"
            )
        pair = pairs[0]
    else:
        pair = tuple(pair)
        if tuple(sorted(pair)) not in [tuple(sorted(p)) for p in pairs]:
            raise GaudinError(f"chi entries {pair} do not coincide")
    i, j = pair
    h = cfg.rep.delta(i, i) - cfg.rep.delta(j, j)
    base = residue_generators(cfg)
    return base.extended([(("h", i, j), h)], kind="gaudin-wall")


def torus_center_members(cfg: GaudinConfig):
    """Delta of the center of the centralizer of chi: one sum per chi class."""
    return center_members(cfg.rep, cfg.chi_classes())


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
# Manin property and the antisymmetrized-trace identity


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
                        mono = RatFun.monomial(ident, m)
                        a1 = entries[p][l].apply(entries[r][s].apply(mono))
                        a2 = entries[r][s].apply(entries[p][l].apply(mono))
                        b1 = entries[r][l].apply(entries[p][s].apply(mono))
                        b2 = entries[p][s].apply(entries[r][l].apply(mono))
                        if not ((a1 - a2) - (b1 - b2)).is_zero():
                            failures.append(("applied", p + 1, l + 1, r + 1, s + 1, m))
    return {"passed": not failures, "failures": failures}


def antisymmetrized_trace(entries):
    """tr A_n M_1 ... M_n computed literally from the tensor-slot expansion."""
    n = len(entries)
    total = None
    for sigma in permutations(range(n)):
        inv = [0] * n
        for m, v in enumerate(sigma):
            inv[v] = m
        sign = sgn(sigma)
        for j in product(range(n), repeat=n):
            prod = entries[j[0]][j[inv[0]]]
            for m in range(1, n):
                prod = prod * entries[j[m]][j[inv[m]]]
            if sign < 0:
                prod = -prod
            total = prod if total is None else total + prod
    return total * QQi(Fraction(1, factorial(n)))


def manin_cdet_trace_identity(cfg: GaudinConfig) -> bool:
    """tr A_n M_1...M_n = cdet M for M = L(u) - d_u - chi."""
    entries = gaudin_operator_matrix(cfg)
    lhs = antisymmetrized_trace(entries)
    rhs = cdet(entries)
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# Equivariance helpers


def shifted_config(cfg: GaudinConfig, c) -> GaudinConfig:
    """Same factors with all evaluation points shifted by c."""
    c = QQi.of(c)
    rep = TensorRep(
        [(r, z + c, d) for (r, z, d) in cfg.rep.factors]
    )
    return GaudinConfig(rep, cfg.chi)


def scaled_config(cfg: GaudinConfig, s, c=0) -> GaudinConfig:
    """Points sz + c with the same chi (pairs with chi -> s*chi on the other side)."""
    s, c = QQi.of(s), QQi.of(c)
    rep = TensorRep(
        [(r, s * z + c, d) for (r, z, d) in cfg.rep.factors]
    )
    return GaudinConfig(rep, cfg.chi)
