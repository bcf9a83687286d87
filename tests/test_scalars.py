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
    poly_eval,
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
