import random
from fractions import Fraction

import pytest

from krspectra.scalars import (
    DiffOpPoly,
    Mat,
    QQi,
    RatFun,
    ShiftOpPoly,
    cdet,
    determinant,
    mat_inverse,
    mat_rank,
    poly_divide_linear,
    poly_eval,
    poly_mul,
    poly_trim,
    span_rank,
    spans_equal,
    unit_circle_point,
)


def rational_points(seed, count, den=97):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < count:
        pts.add(Fraction(rng.randint(-300, 300), den))
    return sorted(pts)


class TestQQi:
    def test_field_axioms_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(50):
            a = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            b = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if a and b:
                assert (a / b) * (b / a) == QQi(1)
            assert a * b == b * a
            assert (a + b) - b == a

    def test_parse_round_trip(self):
        samples = ["3", "-1/2", "i", "-i", "2*i", "1+2*i", "1/2-3/4*i", "0", "-7/3+i"]
        for s in samples:
            v = QQi.parse(s)
            assert QQi.parse(str(v)) == v

    def test_unit_circle_points_are_unit(self):
        for t in [Fraction(1, 8), Fraction(1, 2), Fraction(9, 10)]:
            c = unit_circle_point(t)
            assert c.abs2() == 1

    def test_conjugate_and_abs2(self):
        z = QQi(Fraction(3, 5), Fraction(4, 5))
        assert z * z.conjugate() == QQi(z.abs2())
        assert z.abs2() == 1


class TestRatFunDerivative:
    def test_simple_pole_derivative(self):
        # d/du 1/(u-z) = -1/(u-z)^2
        z = QQi(Fraction(2, 3))
        f = RatFun.pole_term(QQi(1), z)
        df = f.derivative()
        expected = RatFun.pole_term(QQi(-1), z, 2)
        assert df == expected

    def test_constant_derivative(self):
        assert RatFun.const(QQi(5)).derivative().is_zero()

    def test_hand_oracle_value(self):
        # f = u/((u-1)(u-2)); quotient rule gives f'(u) = (2-u^2)/((u-1)^2(u-2)^2),
        # worked out by hand before the build; f'(0) = 2/4 = 1/2.
        f = RatFun([QQi(0), QQi(1)], {QQi(1): 1, QQi(2): 1})
        df = f.derivative()
        assert df.eval(QQi(0)) == QQi(Fraction(1, 2))
        expected = RatFun([QQi(2), QQi(0), QQi(-1)], {QQi(1): 2, QQi(2): 2})
        assert df == expected

    def test_finite_difference_oracle(self):
        # central differences at 10 random rational points: the error of
        # (f(x+h)-f(x-h))/2h halves at least ~4x when h quarters (O(h^2)).
        f = RatFun([QQi(0), QQi(1)], {QQi(1): 1, QQi(2): 1})
        df = f.derivative()
        for x in rational_points(3, 10):
            x = QQi(x)
            if x == QQi(1) or x == QQi(2):
                continue
            errs = []
            for h in [Fraction(1, 64), Fraction(1, 256)]:
                h = QQi(h)
                fd = (f.eval(x + h) - f.eval(x - h)) * (QQi(2) * h).inverse()
                errs.append((fd - df.eval(x)).abs2())
            assert errs[1] * 64 < errs[0] or errs[0] == 0


class TestResidue:
    def test_simple_pole(self):
        f = RatFun.pole_term(QQi(1), QQi(0))
        assert f.residue(QQi(0), 0) == QQi(1)

    def test_matrix_double_pole_identity_case(self):
        a = Mat.from_values([[1, 2], [3, 4]])
        f = RatFun([a], {QQi(1): 2})
        assert f.residue(QQi(1), 1) == a
        assert not f.residue(QQi(1), 0)

    def test_two_pole_residue(self):
        # res_{u=1} u/((u-1)(u-2)) = 1/(1-2) = -1
        f = RatFun([QQi(0), QQi(1)], {QQi(1): 1, QQi(2): 1})
        assert f.residue(QQi(1), 0) == QQi(-1)
        assert f.residue(QQi(2), 0) == QQi(2)
        assert f.residue(QQi(5), 0) == QQi(0)

    def test_residue_matches_series_expansion(self):
        # res_{u=p}(u-p)^l f equals the (u-p)^{-1} Laurent coefficient of
        # (u-p)^l f, checked here by an independent series expansion around p:
        # numerically expand g(t) = f(p+t) * t^m via exact evaluation at small t
        # is ill-posed, so instead divide out (u-p)^m and Taylor-expand the
        # remaining regular part with exact polynomial shifts.
        rng = random.Random(11)
        p = QQi(Fraction(1, 3))
        q = QQi(Fraction(-2, 5))
        num = [QQi(rng.randint(-5, 5)) for _ in range(4)]
        f = RatFun(num, {p: 3, q: 1})
        for l in range(4):
            got = f.residue(p, l)
            # independent route: multiply by (u-p)^l as a RatFun product, then
            # strip the pole at p one order at a time by residue-free division
            g = f
            for _ in range(l):
                g = g * RatFun([-p, QQi(1)], {})
            m = g.poles.get(p, 0)
            if m == 0:
                assert got == QQi(0)
                continue
            # Laurent coefficient via limit: multiply by (u-p)^m and take the
            # (m-1)-st derivative at p over (m-1)!  (classical formula)
            h = g
            for _ in range(m):
                h = h * RatFun([-p, QQi(1)], {})
            fact = 1
            for _ in range(m - 1):
                h = h.derivative()
            for j in range(1, m):
                fact *= j
            assert got == h.eval(p) * QQi(Fraction(1, fact))


class TestDiffOp:
    def test_leibniz(self):
        # d * (1/(u-z)) = (1/(u-z)) d - 1/(u-z)^2
        z = QQi(3)
        f = RatFun.pole_term(QQi(1), z)
        d = DiffOpPoly.d()
        prod = d * DiffOpPoly.from_ratfun(f)
        assert prod.coeff(1) == f
        assert prod.coeff(0) == RatFun.pole_term(QQi(-1), z, 2)

    def test_d_squared(self):
        d = DiffOpPoly.d()
        assert (d * d).coeff(2) == RatFun.const(QQi(1))
        assert (d * d).coeff(0).is_zero()

    def test_matrix_product_against_monomial_application(self):
        # (R d)(R' d) checked by applying both sides to u^m, m <= 6.
        r = Mat.from_values([[1, 2], [0, 1]])
        rp = Mat.from_values([[0, 1], [1, 1]])
        z = QQi(5)
        R = RatFun([r], {z: 1})
        Rp = RatFun([rp, rp], {z: 1})
        i2 = Mat.identity(2)
        a = DiffOpPoly([RatFun([], {}), R])
        b = DiffOpPoly([RatFun([], {}), Rp])
        ab = a * b
        for m in range(7):
            mono = RatFun.monomial(i2, m)
            via_product = ab.apply(mono)
            via_steps = a.apply(b.apply(mono))
            assert (via_product - via_steps).is_zero()

    def test_associativity_random_triples(self):
        rng = random.Random(5)
        z = QQi(Fraction(1, 2))

        def rand_op():
            coeffs = []
            for _ in range(rng.randint(1, 3)):
                num = [QQi(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                coeffs.append(RatFun(num, {z: rng.randint(0, 2)}))
            return DiffOpPoly(coeffs)

        for _ in range(10):
            a, b, c = rand_op(), rand_op(), rand_op()
            assert ((a * b) * c) == (a * (b * c))


class TestShiftOp:
    def test_shift_of_linear(self):
        # S * u = (u - eps) S
        eps = QQi(Fraction(1, 4))
        s = ShiftOpPoly([RatFun([], {}), RatFun.const(QQi(1))], eps)
        u = ShiftOpPoly([RatFun.monomial(QQi(1), 1)], eps)
        prod = s * u
        assert prod.coeff(1) == RatFun([-eps, QQi(1)], {})
        assert prod.coeff(0).is_zero()

    def test_shift_squared(self):
        eps = QQi(Fraction(1, 4))
        s = ShiftOpPoly([RatFun([], {}), RatFun.const(QQi(1))], eps)
        assert (s * s).coeff(2) == RatFun.const(QQi(1))

    def test_composition_matches_function_composition(self):
        eps = QQi(Fraction(1, 8))
        z = QQi(2)
        R = RatFun([QQi(1)], {z: 1})
        Rp = RatFun([QQi(0), QQi(1)], {z: 1})
        a = ShiftOpPoly([RatFun([], {}), R], eps)
        b = ShiftOpPoly([RatFun([], {}), Rp], eps)
        ab = a * b
        test_fun = RatFun([QQi(3), QQi(1)], {QQi(-1): 1})
        lhs = ab.apply(test_fun)
        rhs = a.apply(b.apply(test_fun))
        for u0 in [QQi(Fraction(1, 3)), QQi(7), QQi(0, 1)]:
            assert lhs.eval(u0) == rhs.eval(u0)

    def test_associativity(self):
        rng = random.Random(9)
        eps = QQi(Fraction(1, 8))
        z = QQi(1)

        def rand_op():
            coeffs = []
            for _ in range(rng.randint(1, 3)):
                num = [QQi(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
                coeffs.append(RatFun(num, {z: rng.randint(0, 1)}))
            return ShiftOpPoly(coeffs, eps)

        for _ in range(10):
            a, b, c = rand_op(), rand_op(), rand_op()
            assert ((a * b) * c) == (a * (b * c))


class TestCdetAndSpans:
    def test_cdet_scalar_matrix(self):
        m = [[RatFun.const(QQi(1)), RatFun.const(QQi(2))],
             [RatFun.const(QQi(3)), RatFun.const(QQi(4))]]
        assert cdet(m) == RatFun.const(QQi(-2))

    def test_span_rank(self):
        a = Mat.from_values([[1, 0], [0, 0]])
        b = Mat.from_values([[0, 1], [0, 0]])
        c = Mat.from_values([[1, 1], [0, 0]])
        assert span_rank([a, b, c]) == 2
        assert spans_equal([a, b], [c, a])
        assert not spans_equal([a], [b])


class TestElimination:
    # gauss_jordan backs rank, inverse and determinant; check all three on
    # seeded random matrices, every other one singular by construction
    # (its last row is a combination of the others)

    @staticmethod
    def random_matrix(rng, size, singular):
        def entry():
            return QQi(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            )

        rows = [[entry() for _ in range(size)] for _ in range(size)]
        if singular:
            last = [QQi(0)] * size
            for row in rows[:-1]:
                c = entry()
                last = [x + c * y for x, y in zip(last, row)]
            rows[-1] = last
        return Mat(rows)

    def test_inverse_rank_and_det_agree_with_leibniz(self):
        rng = random.Random(11)
        seen_singular = seen_regular = 0
        for size in range(1, 7):
            for trial in range(6):
                m = self.random_matrix(rng, size, singular=trial % 2 == 1)
                det = determinant(m)
                assert det == cdet(m.rows)
                full = mat_rank(m.rows) == size
                assert full == bool(det)
                if full:
                    seen_regular += 1
                    assert mat_inverse(m) * m == Mat.identity(size)
                    assert m * mat_inverse(m) == Mat.identity(size)
                else:
                    seen_singular += 1
                    with pytest.raises(ZeroDivisionError):
                        mat_inverse(m)
                if trial % 2:
                    assert not det
        assert seen_singular >= 18 and seen_regular >= 12

    def test_rank_of_rectangular_rows(self):
        a = [QQi(1), QQi(2), QQi(0, 1)]
        rows = [a, [QQi(2) * x for x in a], [QQi(0), QQi(0), QQi(1)]]
        assert mat_rank(rows) == 2
        assert mat_rank([[QQi(0)] * 3]) == 0
        assert mat_rank([]) == 0


class TestMat:
    def test_kron_and_trace(self):
        a = Mat.from_values([[1, 2], [3, 4]])
        b = Mat.identity(2)
        k = a.kron(b)
        assert k.nr == 4 and k.trace() == QQi(5) * QQi(2)

    def test_conj_transpose(self):
        z = QQi(0, 1)
        m = Mat([[z, QQi(1)], [QQi(0), z]])
        mh = m.conj_transpose()
        assert mh[0, 0] == -z and mh[1, 0] == QQi(1)


# ---------------------------------------------------------------------------
# The zero-aware kernel against an entrywise reference on (Fraction, Fraction)
# pairs, on sparse matrices like the package's own


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_neg(x):
    return (-x[0], -x[1])


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pairs_of(m):
    return [[(x.re, x.im) for x in row] for row in m.rows]


def pair_matmul(a, b):
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = (Fraction(0), Fraction(0))
            for k, x in enumerate(arow):
                acc = pair_add(acc, pair_mul(x, b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def sparse_entry(rng):
    """Zero about 70% of the time (as a fresh QQi, never a shared one), else
    purely real, purely imaginary or general."""
    r = rng.random()
    if r < 0.7:
        return QQi(Fraction(0, rng.randint(1, 5)))
    re = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    if r < 0.8:
        return QQi(re)
    if r < 0.9:
        return QQi(0, im)
    return QQi(re, im)


def sparse_matrix(rng, nr, nc):
    rows = []
    for _ in range(nr):
        if rng.random() < 0.2:
            rows.append([QQi(0) for _ in range(nc)])
        else:
            rows.append([sparse_entry(rng) for _ in range(nc)])
    return Mat(rows)


def assert_fresh(out, *operands):
    """The result is a new Mat with new rows of QQi entries."""
    assert isinstance(out, Mat)
    for m in operands:
        assert out is not m
        assert all(r is not s for r in out.rows for s in m.rows)
    assert all(isinstance(x, QQi) for row in out.rows for x in row)


class TestZeroAwareKernel:
    ZERO_FORMS = [0, Fraction(0), QQi(0), QQi(Fraction(0, 3), Fraction(0))]
    VALUES = [QQi(2, -3), QQi(Fraction(1, 2)), QQi(0, Fraction(-5, 7)), 3, Fraction(-2, 9)]

    def test_qqi_ops_with_a_zero_operand_match_the_full_formula(self):
        for z in self.ZERO_FORMS:
            for x in self.VALUES + self.ZERO_FORMS:
                if not isinstance(x, QQi) and not isinstance(z, QQi):
                    continue
                px = (Fraction(x), Fraction(0)) if not isinstance(x, QQi) else (x.re, x.im)
                pz = (Fraction(0), Fraction(0))
                for got, want in [
                    (x + z, pair_add(px, pz)),
                    (z + x, pair_add(pz, px)),
                    (x - z, pair_add(px, pair_neg(pz))),
                    (z - x, pair_add(pz, pair_neg(px))),
                    (x * z, pair_mul(px, pz)),
                    (z * x, pair_mul(pz, px)),
                ]:
                    assert isinstance(got, QQi), (x, z)
                    assert (got.re, got.im) == want, (x, z)
                if isinstance(x, QQi):
                    assert ((-x).re, (-x).im) == pair_neg(px)

    def test_zero_test_agrees_with_the_parts(self):
        rng = random.Random(5)
        for _ in range(200):
            x = sparse_entry(rng)
            assert bool(x) == (x.re != 0 or x.im != 0)

    def test_mat_ops_match_the_entrywise_reference(self):
        rng = random.Random(2024)
        for trial in range(60):
            n = 1 + trial % 8
            m = rng.randint(1, 8)
            a, b = sparse_matrix(rng, n, m), sparse_matrix(rng, n, m)
            c = sparse_matrix(rng, m, rng.randint(1, 8))
            sq = sparse_matrix(rng, n, n)
            pa, pb, pc, psq = pairs_of(a), pairs_of(b), pairs_of(c), pairs_of(sq)

            out = a + b
            assert_fresh(out, a, b)
            assert pairs_of(out) == [
                [pair_add(x, y) for x, y in zip(r, s)] for r, s in zip(pa, pb)
            ]
            out = a - b
            assert_fresh(out, a, b)
            assert pairs_of(out) == [
                [pair_add(x, pair_neg(y)) for x, y in zip(r, s)] for r, s in zip(pa, pb)
            ]
            out = -a
            assert_fresh(out, a)
            assert pairs_of(out) == [[pair_neg(x) for x in r] for r in pa]

            for scalar in [0, 2, Fraction(-3, 5), QQi(0), QQi(Fraction(1, 3)),
                           QQi(0, -2), sparse_entry(rng)]:
                ps = (Fraction(scalar), Fraction(0)) if not isinstance(scalar, QQi) \
                    else (scalar.re, scalar.im)
                want = [[pair_mul(x, ps) for x in r] for r in pa]
                for out in (a * scalar, scalar * a):
                    assert_fresh(out, a)
                    assert pairs_of(out) == want

            out = a * c
            assert_fresh(out, a, c)
            assert pairs_of(out) == pair_matmul(pa, pc)

            out = a.kron(sq)
            assert_fresh(out, a, sq)
            assert pairs_of(out) == [
                [pair_mul(x, y) for x in r for y in s] for r in pa for s in psq
            ]

            d = sparse_matrix(rng, n, n)
            pd = pairs_of(d)
            out = sq.commutator(d)
            assert_fresh(out, sq, d)
            ab, ba = pair_matmul(psq, pd), pair_matmul(pd, psq)
            assert pairs_of(out) == [
                [pair_add(x, pair_neg(y)) for x, y in zip(r, s)] for r, s in zip(ab, ba)
            ]


class TestMatNormalization:
    """RatFun cancels a pole of a Mat-valued numerator entry by entry; it must
    agree with evaluating the whole matrix polynomial at the pole."""

    P = QQi(Fraction(2, 3))
    OTHER = QQi(-1, 1)

    @staticmethod
    def whole_matrix(num, poles):
        num, poles = poly_trim(list(num)), dict(poles)
        for p in list(poles):
            while poles[p] > 0 and not poly_eval(num, p):
                num = poly_divide_linear(num, p)
                poles[p] -= 1
            if poles[p] == 0:
                del poles[p]
        return num, poles

    def check(self, num, poles):
        f = RatFun(num, poles)
        want_num, want_poles = self.whole_matrix(num, poles)
        assert f.poles == want_poles
        assert f.num == want_num
        return f

    @staticmethod
    def q_poly(rng):
        """A 3x3 quadratic with a dense leading coefficient."""
        return [sparse_matrix(rng, 3, 3) for _ in range(2)] + [
            Mat.from_values([[1 + i + j for j in range(3)] for i in range(3)])
        ]

    def times_u_minus_p(self, q):
        return poly_mul([-self.P, QQi(1)], q)

    def test_zero_first_entry_cancels(self):
        rng = random.Random(3)
        q = self.q_poly(rng)
        q = [Mat([[QQi(0)] + r[1:] if i == 0 else list(r) for i, r in enumerate(c.rows)])
             for c in q]
        f = self.check(self.times_u_minus_p(q), {self.P: 2, self.OTHER: 1})
        assert f.poles == {self.P: 1, self.OTHER: 1}
        assert f.num == q

    def test_value_only_in_the_first_row_keeps_the_pole(self):
        rng = random.Random(4)
        num = self.times_u_minus_p(self.q_poly(rng))
        bump = Mat.from_values([[1, 2, 3], [0, 0, 0], [0, 0, 0]])
        num[0] = num[0] + bump
        assert poly_eval(num, self.P) == bump
        f = self.check(num, {self.P: 1, self.OTHER: 2})
        assert f.poles == {self.P: 1, self.OTHER: 2}

    def test_single_nonzero_last_entry_keeps_the_pole(self):
        rng = random.Random(6)
        num = self.times_u_minus_p(self.q_poly(rng))
        num[0] = num[0] + Mat.unit(3, 3, 2, 2, QQi(0, Fraction(1, 5)))
        assert poly_eval(num, self.P) == Mat.unit(3, 3, 2, 2, QQi(0, Fraction(1, 5)))
        f = self.check(num, {self.P: 1})
        assert f.poles == {self.P: 1}
