"""Inhomogeneous Gaudin generators on tensor products, exactly.

The master object is the column determinant of L(u) - d_u - chi over the
normal-ordered differential-operator algebra, where L(u) is the standard Lax
matrix sum_i E^{(i)}/(u - z_i).  Residues of its coefficients give the
commuting family; commutativity is verified, never assumed.

Sign convention: this module fixes cdet(L(u) - d_u - chi) as the generating
operator; reports name this convention where the sign matters.
"""

from __future__ import annotations

from .glrep import TensorRep
from .scalars import (
    BlockLeak,
    DiffOpPoly,
    Mat,
    QQi,
    RatFun,
    cdet,
    commutator_certificate,
    linear_combination,
    poly_from_roots,
    span_rank,
)


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
        return coincidence_classes(self.chi)


def coincidence_classes(values):
    """Indices (1-based) of exact scalars grouped by equal value."""
    classes = {}
    for a, c in enumerate(values, start=1):
        classes.setdefault(c, []).append(a)
    return list(classes.values())


def subregular_pair(classes):
    """The one coincident pair (i, j) if exactly two indices coincide, else None."""
    pairs = [tuple(cl) for cl in classes if len(cl) > 1]
    return pairs[0] if len(pairs) == 1 and len(pairs[0]) == 2 else None


class CommutingFamily:
    """Exact matrices with provenance tags, verified pairwise commuting.

    The Gaudin families are instances; the Bethe families subclass it.  Every
    member commutes with the torus (chi and C are diagonal), so it maps each
    weight space of `rep.weight_blocks` to itself.  A commutator of such
    matrices is zero exactly when each weight block's is, and
    `scalars.commutator_certificate` checks all pairs of one block size at
    once: numerators split into balanced limbs whose float64 products are
    integers of magnitude at most 2^53, so exact, and whose sums are carried
    in int64.  Its layout pass refuses a matrix that moves a weight, and the
    family raises its error naming that member's tag.  The report states the
    limb width, the limb count, the bound and the pairs checked.
    """

    error = GaudinError
    convention = "cdet(L(u) - d_u - chi)"

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

    def weight_certificate(self, mats, pairs):
        """`commutator_certificate` of `mats`, the members and then any adjoints,
        on the weight spaces; a matrix that moves a weight raises by tag."""
        rep = self.config.rep
        try:
            return commutator_certificate(mats, rep.weight_blocks, pairs)
        except BlockLeak as leak:
            adjoint, k = divmod(leak.matrix, len(self.gens))
            i, j = leak.entry
            what = "the adjoint of member" if adjoint else "member"
            raise self.error(
                f"{what} {self.tags[k]} moves a weight: its entry ({i}, {j}) maps weight "
                f"{rep.weight_basis[j]} to {rep.weight_basis[i]}"
            ) from leak

    def verify_commuting(self):
        """The first pair (i < j, in member order) that fails to commute, or None.

        Raises the family's error, by tag, for a member that moves a weight.
        """
        m = len(self.gens)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        cert = self.weight_certificate(self.gens, pairs)
        self.certificate = cert.report()
        k = cert.first_failure()
        return None if k is None else (self.tags[pairs[k][0]], self.tags[pairs[k][1]])

    def members(self):
        return list(zip(self.tags, self.gens))

    def max_pole_multiplicity(self):
        """Largest witnessed pole order: a nonzero order-l residue needs l+1.

        The order l is the last field of a "res" or "tau-res" tag.
        """
        return max((t[-1] + 1 for t in self.tags if t[0] in ("res", "tau-res")), default=0)

    def span_rank(self):
        """Rank of the linear span of the generators (no minimality claimed)."""
        return span_rank(self.gens)

    def report(self):
        return {
            "kind": self.kind,
            "convention": self.convention,
            "generator_count": len(self.gens),
            "span_rank": self.span_rank(),
            "max_pole_multiplicity": self.max_pole_multiplicity(),
            "tags": [list(map(str, t)) for t in self.tags],
            "commutator_residual": "exact zero",
            "commutator_certificate": self.certificate,
        }


def _pole_products(points):
    """(cols, full): the coefficients of P_i = prod_{j != i} (u - z_j), padded
    to the length of P, for each i, and of P = prod_j (u - z_j)."""
    cols = [
        poly_from_roots(points[:i] + points[i + 1 :]) + [QQi(0)] for i in range(len(points))
    ]
    return cols, poly_from_roots(points)


def _lax_entry(terms, shift, ident, products) -> RatFun:
    """sum_i m_i/(u - z_i) - shift, over the pairs (z_i, m_i) of `terms`, as one
    RatFun over prod_i (u - z_i); `products` is `_pole_products` of the z_i.

    Numerator coefficient k is sum_i c_k(P_i) m_i - shift c_k(P) I, with
    c_k the coefficient of u^k: one `linear_combination` per coefficient,
    with no lift.
    """
    cols, full = products
    num = []
    for k in range(len(full)):
        pairs = [(col[k], m) for col, (_, m) in zip(cols, terms)]
        if shift:
            pairs.append((-shift * full[k], ident))
        num.append(linear_combination(pairs, ident.nr, ident.nc))
    return RatFun(num, {z: 1 for z, _ in terms})


def lax_matrix(cfg: GaudinConfig):
    """n x n grid of matrix-valued rational functions sum_i E_ab^(i)/(u-z_i),
    minus chi_a, of the config's chi, on the diagonal.

    Entry (a, b) is one `_lax_entry` over the points whose slot has
    E_ab != 0, so a factor whose E_ab vanishes adds no pole; the pole
    products are formed once per set of points.
    """
    n, rep = cfg.n, cfg.rep
    ident = Mat.identity(rep.dim)
    products = {}
    out = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            terms = [
                (z, m)
                for slot, z in enumerate(cfg.points)
                if (m := rep.e_slot(slot, a, b))
            ]
            points = tuple(z for z, _ in terms)
            if points not in products:
                products[points] = _pole_products(list(points))
            shift = cfg.chi[a - 1] if a == b else 0
            row.append(_lax_entry(terms, shift, ident, products[points]))
        out.append(row)
    return out


def gaudin_operator_matrix(cfg: GaudinConfig):
    """Entries of L(u) - d_u - chi as differential-operator polynomials."""
    n = cfg.n
    lax = lax_matrix(cfg)
    minus_d = -RatFun.const(Mat.identity(cfg.rep.dim))
    return [
        [DiffOpPoly([lax[a][b], minus_d] if a == b else [lax[a][b]]) for b in range(n)]
        for a in range(n)
    ]


def gaudin_cdet(cfg: GaudinConfig) -> DiffOpPoly:
    """cdet(L(u) - d_u - chi), normal ordered; top coefficient is (-1)^n."""
    return cdet(gaudin_operator_matrix(cfg))


def residue_members(cfg: GaudinConfig):
    """All res_{u=z_i}(u-z_i)^l b_k(u), k = 0..n, l = 0..k, as exact matrices."""
    op = gaudin_cdet(cfg)
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
    return members


def residue_generators(cfg: GaudinConfig) -> CommutingFamily:
    """The residue members as one verified commuting family."""
    return CommutingFamily(residue_members(cfg), cfg, "gaudin")


def invariance_check(fam: CommutingFamily) -> dict:
    """Every generator must commute with the centralizer of chi, diagonally.

    The centralizer is spanned by the Delta(E_ab) with a and b in one chi
    class.  Every generator keeps each weight (the family checked that), and
    so does Delta(E_aa); Delta(E_ab) and Delta(E_ba), a != b, move a weight
    along e_a - e_b.  So `commutator_certificate` checks the generators
    against all Delta(E_aa) in one call on the weight spaces, and against
    the two x of each {a, b} in one call on the strings along e_a - e_b
    (`rep.coset_chains`), never on blocks larger than those strings.  The
    certificate refuses a Delta that leaves its blocks, and the check
    raises naming it.  Failures come x by x, generators in family order
    within each x.
    """
    cfg = fam.config
    rep = cfg.rep
    checked = [(a, b) for cls in cfg.chi_classes() for a in cls for b in cls]
    calls = {}
    for x, (a, b) in enumerate(checked):
        calls.setdefault((min(a, b), max(a, b)) if a != b else None, []).append(x)
    m = len(fam.gens)
    commute = [None] * len(checked)
    certificates = []
    for pair, xs in calls.items():
        if pair is None:
            blocks, kind = rep.weight_blocks, "weight spaces"
        else:
            blocks, kind = rep.coset_chains(*pair), "strings along e_%d - e_%d" % pair
        deltas = [rep.delta(*checked[x]) for x in xs]
        pairs = [(g, m + k) for k in range(len(xs)) for g in range(m)]
        try:
            cert = commutator_certificate(fam.gens + deltas, blocks, pairs)
        except BlockLeak as leak:
            # the generators keep the weight spaces, so the strings too
            raise GaudinError(
                f"Delta(E_ab), (a, b) = {checked[xs[leak.matrix - m]]}, leaves the {kind}: "
                f"entry {leak.entry}"
            ) from leak
        for k, x in enumerate(xs):
            commute[x] = cert.commute[k * m : (k + 1) * m]
        route = f"float64 limb products on {kind}, int64 carries"
        certificates.append({**cert.report(), "route": route})
    failures = [
        {"generator": list(map(str, tag)), "x": x}
        for x, row in zip(checked, commute)
        for tag, ok in zip(fam.tags, row)
        if not ok
    ]
    return {
        "checked_centralizer_basis": checked,
        "failures": failures,
        "passed": not failures,
        "certificates": certificates,
    }


def wall_family(cfg: GaudinConfig) -> CommutingFamily:
    """The subregular family extended by the coroot Delta(h_ij) of the wall."""
    classes = cfg.chi_classes()
    pair = subregular_pair(classes)
    if pair is None:
        raise GaudinError(f"chi is not subregular (coincidence classes {classes})")
    i, j = pair
    h = cfg.rep.delta(i, i) - cfg.rep.delta(j, j)
    return CommutingFamily(
        residue_members(cfg) + [(("h", i, j), h)], cfg, "gaudin-wall"
    )
