import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import pytest

from krspectra.scalars import (
    EXACT_FLOAT_BITS,
    BlockLeak,
    Blocks,
    DiffOpPoly,
    Echelon,
    Mat,
    QQi,
    RatFun,
    block_views,
    cdet,
    column_minors,
    commutator_certificate,
    limb_embeddings,
    limb_plan,
    kron_identities,
    limb_products,
    linear_combination,
    mat_inverse,
    poly_eval,
    poly_mul,
    poly_shift,
    poly_trim,
    span_rank,
    taylor_coefficients,
    unit_circle_point,
)

from oracles import (
    apply,
    commutator,
    commutes,
    complex_rows,
    conjugate,
    echelon_row,
    leak,
    lift_derivative,
    mat_rank,
    mat_rows,
    monomial,
    pole_term,
    qqi_text,
    spans_equal,
    trace,
)


def m1(x):
    """x as a 1x1 Mat: the coefficient of a function with one entry."""
    return Mat([[x]])


def linear(p, k):
    """The coefficients of (u - p) times the k x k identity."""
    return [Mat.identity(k) * -p, Mat.identity(k)]


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
        assert z * conjugate(z) == QQi(z.abs2())
        assert z.abs2() == 1


    def test_arithmetic_results_match_coerced_values(self):
        rng = random.Random(13)
        values = [QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 3))) for _ in range(30)]
        for a in values:
            for b in values[:8]:
                for got in (a + b, a - b, a * b, -a, conjugate(a), a * 3,
                            a * Fraction(-2, 7)):
                    want = QQi(got.re, got.im)
                    assert got == want and hash(got) == hash(want)
                    assert str(got) == str(want)
                    assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
                    with pytest.raises(AttributeError):
                        got.re = Fraction(1)
        assert hash(QQi(1, 1) + QQi(0, -1)) == hash(QQi(1)) == hash(Fraction(1))
        assert QQi(2, "0").im is QQi(2).im


def random_qqi(rng, big=False):
    """A Gaussian rational with small or (big) 70-bit parts, either part
    possibly zero."""
    top = 2**70 if big else 9
    parts = [
        Fraction(rng.randint(-top, top), rng.randint(1, top)) if rng.random() < 0.8 else Fraction(0)
        for _ in range(2)
    ]
    return QQi(*parts)


class TestQQiStoredFormat:
    """QQi against a pair of Fractions (re, im), the representation it replaced."""

    OPERANDS = [0, 3, -2, Fraction(5, 6), Fraction(-7, 4)]

    def values(self):
        rng = random.Random(29)
        return [random_qqi(rng, big=k % 5 == 0) for k in range(40)] + [
            QQi(0), QQi(1), QQi(0, 1), QQi(Fraction(1, 2**61 - 1)), QQi(0, Fraction(-3, 2**61 - 1))
        ]

    def test_every_operator_matches_the_fraction_pair_oracle(self):
        values = self.values()
        for a in values:
            pa = (a.re, a.im)
            for b in values[:12] + self.OPERANDS:
                pb = (b.re, b.im) if isinstance(b, QQi) else (Fraction(b), Fraction(0))
                for got, want in [
                    (a + b, pair_add(pa, pb)),
                    (b + a, pair_add(pb, pa)),
                    (a - b, pair_add(pa, pair_neg(pb))),
                    (b - a, pair_add(pb, pair_neg(pa))),
                    (a * b, pair_mul(pa, pb)),
                    (b * a, pair_mul(pb, pa)),
                ]:
                    assert isinstance(got, QQi)
                    assert (got.re, got.im) == want, (a, b)
                    assert got == QQi(*want) and hash(got) == hash(QQi(*want))
                if any(pb):
                    n = pb[0] ** 2 + pb[1] ** 2
                    inv = (pb[0] / n, -pb[1] / n)
                    q = a / b
                    assert (q.re, q.im) == pair_mul(pa, inv)
                assert (a == b) == (pa == pb)
            assert ((-a).re, (-a).im) == pair_neg(pa)
            assert bool(a) == any(pa)
            assert a.abs2() == pa[0] ** 2 + pa[1] ** 2
            assert complex(a) == complex(float(pa[0]), float(pa[1]))
            if a:
                n = pa[0] ** 2 + pa[1] ** 2
                inv = a.inverse()
                assert (inv.re, inv.im) == (pa[0] / n, -pa[1] / n)
                want = (Fraction(1), Fraction(0))
                for k in range(4):
                    got = a**k
                    assert (got.re, got.im) == want
                    want = pair_mul(want, pa)
                assert a**-2 == inv * inv
            else:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()

    def test_hash_is_that_of_the_int_the_fraction_or_the_pair(self):
        for a in self.values():
            if a.im:
                assert hash(a) == hash((a.re, a.im))
            else:
                assert hash(a) == hash(a.re)
                if a.re.denominator == 1:
                    assert hash(a) == hash(int(a.re))
        for x in [0, 1, -1, 2, -2, 10**30, -(10**30), 2**61 - 1, 2**61, -(2**61) + 1]:
            assert hash(QQi(x)) == hash(x) == hash(Fraction(x))
            assert QQi(x) == x and QQi(x) == Fraction(x)
        # equal values made by different routes are equal keys of one dict
        keys = {QQi(Fraction(1, 3)): "a", QQi(0, 2): "b"}
        assert keys[QQi(1) - QQi(Fraction(2, 3))] == "a"
        assert keys[QQi(0, 1) * 2] == "b"
        assert keys[Fraction(1, 3)] == "a"

    def test_parts_are_fractions_and_text_round_trips(self):
        for a in self.values():
            assert isinstance(a.re, Fraction) and isinstance(a.im, Fraction)
            assert QQi.parse(str(a)) == a
            assert str(QQi(a.re, a.im)) == str(a)
        assert QQi(5).im is QQi(0, 0).re is QQi(Fraction(2, 3)).im

    def test_parts_text_is_the_text_of_the_parts(self, monkeypatch):
        rng = random.Random(31)
        # integer, non-integer, zero and negative parts, and parts whose
        # least denominator is not the shared one
        values = self.values() + [
            QQi(Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 6, 35])),
                Fraction(rng.randint(-40, 40), rng.choice([1, 2, 5, 7, 12])))
            for _ in range(200)
        ] + [QQi(-3), QQi(0, -4), QQi(Fraction(-1, 2), 5), QQi(Fraction(1, 6), Fraction(-1, 4))]
        want = [(str(a.re), str(a.im)) for a in values]

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert [a.parts_text() for a in values] == want

    def test_text_is_the_fraction_formula_and_parses_back(self, monkeypatch):
        rng = random.Random(37)
        # signs, zero parts, unit imaginary parts (alone and beside a real
        # part) and non-trivial, shared and unshared denominators
        parts = [0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(-12, 35)]
        values = self.values() + [QQi(a, b) for a in parts for b in parts] + [
            QQi(Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
                Fraction(rng.randint(-60, 60), rng.randint(1, 30)))
            for _ in range(300)
        ]
        want = [qqi_text(a) for a in values]
        assert {"i", "-i", "1/2+i", "-3/4-i", "-12/35*i"} <= set(want)
        for a, text in zip(values, want):
            assert QQi.parse(text) == a, text

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert [str(a) for a in values] == want

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        values = [v for v in self.values() if v][:20]

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        for a in values:
            for b in values[:6] + [0, 3, -2]:
                a + b, b + a, a - b, b - a, a * b, b * a, -a
            a.inverse(), a**3, a**-2, a / values[0]
        # not vacuous: reading a part as a Fraction is refused
        with pytest.raises(AssertionError, match="a Fraction was built"):
            values[0].re


class TestRatFunDerivative:
    def test_simple_pole_derivative(self):
        # d/du 1/(u-z) = -1/(u-z)^2
        z = QQi(Fraction(2, 3))
        f = pole_term(m1(1), z)
        df = f.derivative()
        expected = pole_term(m1(-1), z, 2)
        assert df == expected

    def test_constant_derivative(self):
        assert RatFun.const(m1(5)).derivative().is_zero()

    def test_hand_oracle_value(self):
        # f = u/((u-1)(u-2)); quotient rule gives f'(u) = (2-u^2)/((u-1)^2(u-2)^2),
        # worked out by hand before the build; f'(0) = 2/4 = 1/2.
        f = RatFun([m1(0), m1(1)], {QQi(1): 1, QQi(2): 1})
        df = f.derivative()
        assert df.eval(QQi(0)) == m1(Fraction(1, 2))
        expected = RatFun([m1(2), m1(0), m1(-1)], {QQi(1): 2, QQi(2): 2})
        assert df == expected

    def test_no_pole_of_the_derivative_cancels(self):
        # at a pole p of a cancelled f = N / prod (u - q)^m, N(p) != 0 and the
        # derivative's numerator takes the value -m N(p) prod_{q != p} (p - q)
        # there: cancelling the derivative changes nothing
        rng = random.Random(73)
        points = [QQi(Fraction(1, 3)), QQi(-2, 1), QQi(0, Fraction(-3, 5)), QQi(4)]
        for trial in range(24):
            poles = {p: rng.randint(1, 3) for p in rng.sample(points, 1 + trial % 3)}
            if trial % 2:
                num = [sparse_matrix(rng, 3, 3) for _ in range(trial % 5)] + [
                    Mat([[1 + i * j for j in range(3)] for i in range(3)])
                ]
            else:
                num = [m1(sparse_entry(rng)) for _ in range(trial % 5)] + [m1(rng.randint(1, 5))]
            # a factor (u - p) at a pole makes `cancel` remove one order
            p = next(iter(poles))
            num = poly_mul(linear(p, num[0].nr), num) if trial % 3 == 0 else num
            f = RatFun(num, poles)
            df = f.cancel().derivative()
            assert df == f.derivative()
            assert df.poles == {q: m + 1 for q, m in f.cancel().poles.items()}
            cancelled = df.cancel()
            assert cancelled.poles == df.poles and cancelled.num == df.num

    def test_closed_form_equals_the_lift_oracle(self):
        # random functions with 1-4 poles of orders up to 3, real and complex
        # poles, matrix and scalar numerators, a zero numerator and no pole
        rng = random.Random(2029)
        points = [QQi(Fraction(1, 3)), QQi(-2), QQi(0, Fraction(-3, 5)), QQi(4, 1),
                  QQi(Fraction(7, 2), Fraction(-1, 9))]
        for trial in range(60):
            poles = {p: rng.randint(1, 3) for p in rng.sample(points, 1 + trial % 4)}
            side = 1 + trial % 3
            num = [sparse_matrix(rng, side, side) for _ in range(rng.randint(1, 5))]
            for f in (RatFun(num, poles), RatFun(num, {})):
                want = lift_derivative(f)
                got = f.derivative()
                assert got == want
                assert got.poles == want.poles
                assert got.num == want.num
        zero = RatFun([Mat.zeros(2)], {QQi(1): 2})
        assert zero.derivative().is_zero() and lift_derivative(zero).is_zero()

    def test_finite_difference_oracle(self):
        # central differences at 10 random rational points: the error of
        # (f(x+h)-f(x-h))/2h halves at least ~4x when h quarters (O(h^2)).
        f = RatFun([m1(0), m1(1)], {QQi(1): 1, QQi(2): 1})
        df = f.derivative()
        for x in rational_points(3, 10):
            x = QQi(x)
            if x == QQi(1) or x == QQi(2):
                continue
            errs = []
            for h in [Fraction(1, 64), Fraction(1, 256)]:
                h = QQi(h)
                fd = (f.eval(x + h) - f.eval(x - h)) * (QQi(2) * h).inverse()
                errs.append((fd - df.eval(x))[0, 0].abs2())
            assert errs[1] * 64 < errs[0] or errs[0] == 0


class TestRatFunKron:
    A = RatFun(
        [Mat([[1, 2], [0, QQi(0, 1)]]), Mat([[0, 1], [3, 0]])],
        {QQi(1): 1, QQi(Fraction(1, 2), 1): 2},
    )
    B = RatFun(
        [Mat([[2, 0, 1]]), Mat([[1, -1, 0]])],
        {QQi(-3): 1},
    )

    @staticmethod
    def coefficientwise(f, g):
        """The product summed coefficient by coefficient, as the oracle."""
        poles = {p: f.poles.get(p, 0) + g.poles.get(p, 0) for p in set(f.poles) | set(g.poles)}
        a, b = f.num, g.num
        zero = Mat.zeros(a[0].nr * b[0].nr, a[0].nc * b[0].nc)
        num = [
            sum((a[i].kron(b[k - i]) for i in range(len(a)) if 0 <= k - i < len(b)), zero)
            for k in range(len(a) + len(b) - 1)
        ]
        return RatFun(num, poles)

    def test_evaluation_agrees_with_kron_of_the_values(self):
        for f, g in [(self.A, self.B), (self.B, self.A), (self.A, self.A)]:
            h, want = f.kron(g), self.coefficientwise(f, g)
            assert h.num == want.num and h.poles == want.poles
            for x in rational_points(11, 6):
                u = QQi(x, Fraction(1, 3))
                assert h.eval(u) == f.eval(u).kron(g.eval(u))

    def test_cancels_a_pole_where_the_other_numerator_vanishes(self):
        # the row numerator (u - 1) [1, -2] is zero at 1, a pole of A: the
        # product keeps it, and `cancel` removes it
        vanishing = RatFun([Mat([[-1, 2]]), Mat([[1, -2]])], {QQi(5): 1})
        for h in (self.A.kron(vanishing), vanishing.kron(self.A)):
            assert h.poles == {QQi(1): 1, QQi(Fraction(1, 2), 1): 2, QQi(5): 1}
            assert len(h.num) == 3
            c = h.cancel()
            assert c == h
            assert c.poles == {QQi(Fraction(1, 2), 1): 2, QQi(5): 1}
            assert len(c.num) == 2
        h = self.A.kron(vanishing)
        u = QQi(Fraction(7, 3))
        assert h.eval(u) == self.A.eval(u).kron(vanishing.eval(u))

    def test_shared_pole(self):
        # 1/(u - 2) (x) u/(u - 2) = u/(u - 2)^2
        f = RatFun([Mat([[1]])], {QQi(2): 1})
        g = RatFun([Mat.zeros(2), Mat.identity(2)], {QQi(2): 1})
        h = f.kron(g)
        assert h.poles == {QQi(2): 2}
        assert h.num == [Mat.zeros(2), Mat.identity(2)]

    def test_zero_factor(self):
        assert self.A.kron(RatFun([], {})).is_zero()
        assert RatFun([], {}).kron(self.B).is_zero()


class TestRatFunSum:
    def test_equals_the_pairwise_sum(self):
        terms = [
            RatFun([m1(1)], {QQi(1): 1}),
            RatFun([m1(-1), m1(1)], {QQi(1): 2, QQi(2): 1}),
            RatFun([m1(3)], {}),
            RatFun([], {}),
        ]
        want = terms[0] + terms[1] + terms[2]
        got = RatFun.sum(terms)
        assert got.num == want.num and got.poles == want.poles
        u = QQi(Fraction(5, 7))
        # the zero function evaluates to the scalar 0: it has no shape
        assert got.eval(u) == sum((t.eval(u) for t in terms[:3]), Mat.zeros(1))
        assert terms[3].eval(u) == QQi(0)

    def test_cancelling_terms_cancel(self):
        f = RatFun([m1(1)], {QQi(1): 1})
        # 1/(u - 1) - 1/(u - 1) = 0, and the zero function has no poles
        zero = RatFun.sum([f, RatFun([m1(-1)], {QQi(1): 1})])
        assert zero.is_zero() and zero.poles == {}
        # 1/(u - 1) + u/((u - 1)(u - 2)) = (2u - 2)/((u - 1)(u - 2)) = 2/(u - 2):
        # the sum keeps the common pole multiset, `cancel` removes (u - 1)
        h = RatFun.sum([f, RatFun([m1(0), m1(1)], {QQi(1): 1, QQi(2): 1})])
        assert h.num == [m1(-2), m1(2)] and h.poles == {QQi(1): 1, QQi(2): 1}
        c = h.cancel()
        assert c.num == [m1(2)] and c.poles == {QQi(2): 1} and c == h

    def test_empty_and_single(self):
        f = RatFun([m1(2)], {QQi(1): 1})
        assert RatFun.sum([]).is_zero()
        assert RatFun.sum([f, RatFun([], {})]) is f


class TestResidue:
    def test_simple_pole(self):
        f = pole_term(m1(1), QQi(0))
        assert f.residue(QQi(0), 0) == m1(1)

    def test_matrix_double_pole_identity_case(self):
        a = Mat([[1, 2], [3, 4]])
        f = RatFun([a], {QQi(1): 2})
        assert f.residue(QQi(1), 1) == a
        assert not f.residue(QQi(1), 0)

    def test_two_pole_residue(self):
        # res_{u=1} u/((u-1)(u-2)) = 1/(1-2) = -1
        f = RatFun([m1(0), m1(1)], {QQi(1): 1, QQi(2): 1})
        assert f.residue(QQi(1), 0) == m1(-1)
        assert f.residue(QQi(2), 0) == m1(2)
        assert f.residue(QQi(5), 0) == m1(0)

    def test_residue_matches_series_expansion(self):
        # res_{u=p}(u-p)^l f equals the (u-p)^{-1} Laurent coefficient of
        # (u-p)^l f, checked here by an independent series expansion around p:
        # numerically expand g(t) = f(p+t) * t^m via exact evaluation at small t
        # is ill-posed, so instead divide out (u-p)^m and Taylor-expand the
        # remaining regular part with exact polynomial shifts.
        rng = random.Random(11)
        p = QQi(Fraction(1, 3))
        q = QQi(Fraction(-2, 5))
        num = [m1(rng.randint(-5, 5)) for _ in range(4)]
        f = RatFun(num, {p: 3, q: 1})
        for l in range(4):
            got = f.residue(p, l)
            # independent route: multiply by (u-p)^l as a RatFun product, then
            # cancel the common factors to read the order of the pole at p
            g = f
            for _ in range(l):
                g = g * RatFun(linear(p, 1), {})
            g = g.cancel()
            m = g.poles.get(p, 0)
            if m == 0:
                assert got == m1(0)
                continue
            # Laurent coefficient via limit: multiply by (u-p)^m, cancel, and
            # take the (m-1)-st derivative at p over (m-1)!  (classical formula)
            h = g
            for _ in range(m):
                h = h * RatFun(linear(p, 1), {})
            h = h.cancel()
            assert p not in h.poles
            fact = 1
            for _ in range(m - 1):
                h = h.derivative()
            for j in range(1, m):
                fact *= j
            assert got == h.eval(p) * QQi(Fraction(1, fact))


    def test_every_order_equals_the_residue_of_a_fresh_copy(self):
        # the expansion kept on a function for its first residue at a pole
        # serves every later order, in any order of the calls
        rng = random.Random(31)
        points = [QQi(Fraction(1, 3)), QQi(-2), QQi(0, Fraction(-3, 5)), QQi(4, 1)]
        for trial in range(30):
            poles = {p: rng.randint(1, 4) for p in rng.sample(points, 1 + trial % 4)}
            side = 1 + trial % 2
            num = [sparse_matrix(rng, side, side) for _ in range(rng.randint(0, 5))]
            f = RatFun(num + [Mat.identity(side) * QQi(1, trial)], poles)
            calls = [(p, l) for p in points for l in range(6)]
            rng.shuffle(calls)
            for p, l in calls:
                got = f.residue(p, l)
                assert got == RatFun(f.num, f.poles).residue(p, l)
                assert (got.nr, got.nc) == (side, side)


def binomial_shift(a, delta):
    """Test oracle: the coefficients of p(t + delta) in t by expanding each
    c_k (t + delta)^k with binomial coefficients."""
    if not a:
        return []
    out = [a[0] * QQi(0)] * len(a)
    for k, c in enumerate(a):
        pw = QQi(1)
        for s in range(k, -1, -1):
            out[s] = out[s] + c * (QQi(comb(k, s)) * pw)
            pw = pw * delta
    return poly_trim(out)


class TestTaylorCoefficients:
    """Residues and shift_arg read Taylor coefficients in closed form; they
    must match the binomial expansion."""

    @staticmethod
    def random_poly(rng, deg, matrix):
        if matrix:
            return poly_trim([sparse_matrix(rng, 3, 3) for _ in range(deg)]
                             + [Mat.identity(3) * QQi(rng.randint(1, 5))])
        return [m1(sparse_entry(rng)) for _ in range(deg)] + [m1(QQi(rng.randint(1, 5), 1))]

    @pytest.mark.parametrize("matrix", [False, True])
    def test_leading_coefficients_of_the_binomial_shift(self, matrix):
        rng = random.Random(17 + matrix)
        for trial in range(25):
            a = self.random_poly(rng, trial % 6, matrix)
            p = sparse_entry(rng) if trial % 3 else QQi(0)
            shifted = binomial_shift(a, p)
            assert poly_shift(a, p) == shifted
            for count in range(len(a) + 2):
                got = taylor_coefficients(a, p, count)
                want = shifted[:count]
                assert len(got) == min(count, len(a))
                assert poly_trim(got) == poly_trim(want)

    def test_residue_of_a_simple_pole_is_the_value_of_the_rest(self):
        rng = random.Random(23)
        p, q = QQi(Fraction(1, 3)), QQi(-2, 1)
        for _ in range(10):
            num = self.random_poly(rng, 3, True)
            f = RatFun(num, {p: 1, q: 2})
            if p in f.poles:
                assert f.residue(p) == poly_eval(num, p) * ((p - q) ** -2)


class TestDiffOp:
    # d on functions with one entry
    D = DiffOpPoly([RatFun([], {}), RatFun.const(m1(1))])

    def test_leibniz(self):
        # d * (1/(u-z)) = (1/(u-z)) d - 1/(u-z)^2
        z = QQi(3)
        f = pole_term(m1(1), z)
        d = self.D
        prod = d * DiffOpPoly([f])
        assert prod.coeff(1) == f
        assert prod.coeff(0) == pole_term(m1(-1), z, 2)

    def test_d_squared(self):
        d = self.D
        assert (d * d).coeff(2) == RatFun.const(m1(1))
        assert (d * d).coeff(0).is_zero()

    def test_matrix_product_against_monomial_application(self):
        # (R d)(R' d) checked by applying both sides to u^m, m <= 6.
        r = Mat([[1, 2], [0, 1]])
        rp = Mat([[0, 1], [1, 1]])
        z = QQi(5)
        R = RatFun([r], {z: 1})
        Rp = RatFun([rp, rp], {z: 1})
        i2 = Mat.identity(2)
        a = DiffOpPoly([RatFun([], {}), R])
        b = DiffOpPoly([RatFun([], {}), Rp])
        ab = a * b
        for m in range(7):
            mono = monomial(i2, m)
            via_product = apply(ab, mono)
            via_steps = apply(a, apply(b, mono))
            assert (via_product - via_steps).is_zero()

    def test_products_with_first_order_left_factors_act_as_compositions(self):
        # a o (b o c) on u^m, m <= 5, for random first-order a, b and c of any order
        rng = random.Random(5)
        z = QQi(Fraction(1, 2))

        def rand_op(terms):
            coeffs = []
            for _ in range(terms):
                num = [m1(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                coeffs.append(RatFun(num, {z: rng.randint(0, 2)}))
            return DiffOpPoly(coeffs)

        for _ in range(10):
            a, b, c = rand_op(2), rand_op(rng.randint(1, 2)), rand_op(rng.randint(1, 4))
            abc = a * (b * c)
            for m in range(6):
                mono = monomial(m1(1), m)
                assert apply(abc, mono) == apply(a, apply(b, apply(c, mono)))

    def test_minus_d_left_factor_equals_the_added_route(self):
        # b0 - d, as in the diagonal of L(u) - d_u - chi: b1 = -I subtracts
        # its partner; the result equals b0 o c minus d o c (b1 = +I) and
        # acts as the composition
        rng = random.Random(11)
        z, w = QQi(Fraction(1, 2)), QQi(-1, 3)
        i2 = Mat.identity(2)

        def rand_fun():
            num = [Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
                   for _ in range(rng.randint(1, 3))]
            return RatFun(num, {z: rng.randint(0, 2), w: rng.randint(0, 1)})

        zero = RatFun([], {})
        d = DiffOpPoly([zero, RatFun.const(i2)])
        for _ in range(8):
            b0 = rand_fun() if rng.random() < 0.8 else zero
            c = DiffOpPoly([rand_fun() for _ in range(rng.randint(1, 3))])
            a = DiffOpPoly([b0, RatFun.const(-i2)])
            ac = a * c
            assert ac == DiffOpPoly([b0]) * c - d * c
            for m in range(4):
                mono = monomial(i2, m)
                assert apply(ac, mono) == apply(a, apply(c, mono))

    def test_order_two_left_factor_raises(self):
        d2 = DiffOpPoly([RatFun([], {}), RatFun([], {}), RatFun.const(m1(1))])
        with pytest.raises(ValueError, match="order 2"):
            d2 * self.D
        # a right factor of any order is fine
        assert (self.D * d2).coeff(3) == RatFun.const(m1(1))


class TestCdetAndSpans:
    def test_cdet_scalar_matrix(self):
        m = [[RatFun.const(m1(1)), RatFun.const(m1(2))],
             [RatFun.const(m1(3)), RatFun.const(m1(4))]]
        assert cdet(m) == RatFun.const(m1(-2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cdet_matches_the_leibniz_sum_on_noncommuting_entries(self, n):
        # the literal sum over permutations, products in column order
        from itertools import permutations

        from oracles import sgn

        rng = random.Random(n)
        entries = [
            [Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
             for _ in range(n)]
            for _ in range(n)
        ]
        want = Mat.zeros(2)
        for sigma in permutations(range(n)):
            prod = Mat.identity(2)
            for col in range(n):
                prod = prod * entries[sigma[col]][col]
            want = want + prod * sgn(sigma)
        assert cdet(entries) == want
        if n > 1:
            # the row order matters: a transposed grid gives another value
            assert cdet([list(col) for col in zip(*entries)]) != want
        # every m-row minor of an n x m grid of noncommuting RatFuns
        poles = [{}, {QQi(1): 1}, {QQi(Fraction(-1, 2)): 2}]
        grid = [
            [
                RatFun(
                    [Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
                     for _ in range(2)],
                    poles[(r + 2 * c) % 3],
                )
                for c in range(n)
            ]
            for r in range(n)
        ]
        for m in range(1, n + 1):
            got = column_minors([row[:m] for row in grid])
            assert sorted(got) == list(combinations(range(n), m))
            for rows, det in got.items():
                terms = []
                for sigma in permutations(range(m)):
                    prod = grid[rows[sigma[0]]][0]
                    for col in range(1, m):
                        prod = prod * grid[rows[sigma[col]]][col]
                    terms.append(prod if sgn(sigma) > 0 else -prod)
                assert det == RatFun.sum(terms)

    def test_span_rank(self):
        a = Mat([[1, 0], [0, 0]])
        b = Mat([[0, 1], [0, 0]])
        c = Mat([[1, 1], [0, 0]])
        assert span_rank([a, b, c]) == 2
        assert spans_equal([a, b], [c, a])
        assert not spans_equal([a], [b])


def leibniz(rows):
    """The determinant as the literal sum over permutations."""
    from itertools import permutations

    from oracles import sgn

    total = QQi(0)
    for sigma in permutations(range(len(rows))):
        term = QQi(sgn(sigma))
        for col, row in enumerate(sigma):
            term = term * rows[row][col]
        total = total + term
    return total


class TestElimination:
    # Echelon backs rank and inverse; check both, with the determinant, on
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
                det = cdet(mat_rows(m))
                assert det == leibniz(mat_rows(m))
                full = mat_rank(mat_rows(m)) == size
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

    @staticmethod
    def planted(rng, rank, extra, size):
        """`rank` independent sparse vectors over `size` keys and `extra`
        combinations of them, shuffled.

        Vector t is 1 at its own key t (no other key below `rank` is set) plus
        sparse Gaussian-rational entries at keys >= rank, and is then mixed
        with random multiples of the earlier ones: the mix is unitriangular,
        so the rank is `rank` by construction.  The last key is never set.
        """

        def value():
            return QQi(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            )

        def combine(vecs, coeffs):
            out = [QQi(0)] * size
            for c, v in zip(coeffs, vecs):
                out = [x + c * y for x, y in zip(out, v)]
            return out

        base = []
        for t in range(rank):
            vec = [QQi(0)] * size
            vec[t] = QQi(1)
            for k in rng.sample(range(rank, size - 1), 3):
                vec[k] = value()
            mix = [value() if rng.random() < 0.5 else QQi(0) for _ in base]
            base.append(combine(base + [vec], mix + [QQi(1)]))
        dependent = [
            combine(base, [value() if rng.random() < 0.4 else QQi(0) for _ in base])
            for _ in range(extra)
        ]
        vecs = base + dependent
        rng.shuffle(vecs)
        return vecs

    def test_planted_rank(self):
        rng = random.Random(5)
        for rank, extra in [(1, 0), (1, 3), (4, 4), (7, 5), (12, 9)]:
            side = 5
            vecs = self.planted(rng, rank, extra, side * side)
            assert mat_rank(vecs) == rank
            mats = [Mat([v[i * side : (i + 1) * side] for i in range(side)]) for v in vecs]
            assert span_rank(mats) == rank
            # a scalar multiple adds nothing; the unit at the unset key adds one
            assert span_rank(mats + [mats[0] * QQi(Fraction(3, 7), 2)]) == rank
            assert span_rank(mats + [Mat.unit(side, side, side - 1, side - 1)]) == rank + 1

    def test_span_rank_ignores_the_denominator(self):
        a = Mat([[Fraction(1, 3), 0], [0, QQi(0, Fraction(1, 5))]])
        assert span_rank([a, a * QQi(Fraction(7, 2), -1)]) == 1
        assert span_rank([a, Mat([[1, 0], [0, 0]])]) == 2
        assert span_rank([]) == 0
        assert span_rank([Mat.zeros(2)]) == 0

    def test_span_rank_builds_no_qqi_or_fraction(self, monkeypatch):
        # the rank path reads the stored numerators as they are: with every
        # way to build an exact scalar refused, it still finds the rank
        import krspectra.scalars as scalars

        side = 5
        vecs = self.planted(random.Random(7), 6, 4, side * side)
        mats = [Mat([v[i * side : (i + 1) * side] for i in range(side)]) for v in vecs]
        assert any(x for m in mats for row in m.nums for _, x in row.values())
        assert any(m.den > 1 for m in mats)

        def refuse(*args, **kwargs):
            raise AssertionError("span_rank built a QQi or a Fraction")

        for name in ("_qqi", "_entry", "Fraction"):
            monkeypatch.setattr(scalars, name, refuse)
        assert span_rank(mats) == 6

    def test_inverse_rejects_a_pivot_in_the_identity_half(self):
        # the second row reduces to zero in the M half, so its pivot is (1, j)
        for rows in ([[1, 2], [2, 4]], [[0, 0], [1, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
            m = Mat(rows)
            assert mat_rank(mat_rows(m)) < m.nr
            with pytest.raises(ZeroDivisionError):
                mat_inverse(m)


def numerators(vec):
    """(d, nums): a sparse vector of exact values as Gaussian-integer
    numerators {key: (re, im)} over one denominator d, the Echelon format."""
    vals = {k: QQi.of(v) for k, v in vec.items()}
    d = lcm(*(x.denominator for q in vals.values() for x in (q.re, q.im)))
    return d, {k: (int(q.re * d), int(q.im * d)) for k, q in vals.items()}


def oracle_rref(vectors, keys):
    """Oracle, not a production path: the reduced row echelon form of the
    matrix whose rows are `vectors` (dicts of exact values), by textbook dense
    Gauss-Jordan over QQi with columns in the order of `keys`.

    Returns {pivot key: {key: nonzero QQi}}, one entry per nonzero row.
    """
    m = [[QQi.of(v.get(k, 0)) for k in keys] for v in vectors]
    r = 0
    for col in range(len(keys)):
        found = next((i for i in range(r, len(m)) if m[i][col]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        inv = QQi(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[r])]
        r += 1
    return {
        keys[next(j for j, x in enumerate(row) if x)]: {keys[j]: x for j, x in enumerate(row) if x}
        for row in m[:r]
    }


def assert_rows_in_lowest_terms(ech):
    """Every stored row (D, nums) is in lowest terms, 1 at its pivot, has no
    key below its pivot, and is 0 at every other pivot."""
    for p, (d, nums) in ech.rows.items():
        assert d > 0 and nums[p] == (d, 0)
        assert gcd(d, *(x for v in nums.values() for x in v)) == 1
        assert min(nums) == p
        assert not any(q in nums for q in ech.rows if q != p)


class TestEchelon:
    @pytest.mark.parametrize("field", ["fraction", "qqi"])
    def test_coordinates_rebuild_the_vector(self, field):
        rng = random.Random(3)

        def value():
            x = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 5))
            return x if field == "fraction" else QQi(x, Fraction(rng.randint(-3, 3), 2))

        keys = [(a, b) for a in range(4) for b in "xyz"]
        ech = Echelon()
        inserted = []
        for _ in range(8):
            vec = {k: value() for k in rng.sample(keys, 4)}
            inserted.append(vec)
            ech.insert(numerators(vec)[1])
        for _ in range(10):
            target = {}
            for vec in inserted:
                c = value()
                for k, v in vec.items():
                    target[k] = target.get(k, 0) + c * v
            target = {k: v for k, v in target.items() if v}
            d, nums = numerators(target)
            coords = {
                p: QQi(Fraction(re, d), Fraction(im, d)) for p, (re, im) in ech.coordinates(nums).items()
            }
            rebuilt = {}
            for piv, c in coords.items():
                for k, v in echelon_row(ech, piv).items():
                    rebuilt[k] = rebuilt.get(k, 0) + c * v
            assert {k: v for k, v in rebuilt.items() if v} == target

    def test_rows_are_reduced_at_the_least_key(self):
        ech = Echelon()
        assert ech.insert({2: (2, 0), 5: (4, 0)}) == 2
        assert ech.insert({2: (1, 0), 5: (2, 0)}) is None
        assert ech.insert({}) is None
        assert ech.insert({5: (3, 0), 7: (1, 0)}) == 5
        assert {p: echelon_row(ech, p) for p in ech.rows} == {
            2: {2: 1, 7: Fraction(-2, 3)},
            5: {5: 1, 7: Fraction(1, 3)},
        }

    def test_a_vector_outside_the_span_raises(self):
        ech = Echelon()
        ech.insert({"a": (1, 0), "b": (0, 1)})
        ech.insert({"b": (2, 0), "c": (1, 0)})
        assert ech.coordinates({}) == {}
        with pytest.raises(ValueError):
            ech.coordinates({"c": (1, 0)})
        with pytest.raises(ValueError):
            ech.coordinates({"d": (1, 0)})

    @staticmethod
    def check_against_the_oracle(vectors, keys):
        """Insert `vectors` one by one and compare each step with the oracle
        RREF of the prefix: None exactly when the rank stays, otherwise the
        one new pivot, and the stored rows equal in value to the oracle's."""
        ech = Echelon()
        before = {}
        for t, vec in enumerate(vectors):
            piv = ech.insert(numerators(vec)[1])
            after = oracle_rref(vectors[: t + 1], keys)
            new = set(after) - set(before)
            assert piv == (new.pop() if new else None)
            assert {p: echelon_row(ech, p) for p in ech.rows} == after
            assert_rows_in_lowest_terms(ech)
            before = after
        return ech

    @staticmethod
    def sparse(rng, keys, size, value):
        return {k: value() for k in rng.sample(keys, size)}

    def test_matches_the_oracle_on_seeded_sparse_vectors(self):
        rng = random.Random(17)
        keys = list(range(14))

        def value():
            return QQi(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            ) or QQi(0, 1)

        for _ in range(6):
            vectors = []
            for _ in range(12):
                pick = rng.random()
                if pick < 0.1:
                    vectors.append({})
                elif pick < 0.35 and vectors:
                    # a combination of earlier vectors: dependent
                    mix = {}
                    for v in rng.sample(vectors, min(3, len(vectors))):
                        c = value()
                        for k, x in v.items():
                            mix[k] = mix.get(k, 0) + c * x
                    vectors.append({k: x for k, x in mix.items() if x})
                else:
                    vectors.append(self.sparse(rng, keys, rng.randint(1, 5), value))
            self.check_against_the_oracle(vectors, keys)

    def test_zero_and_empty_vectors_are_dependent(self):
        ech = Echelon()
        assert ech.insert({}) is None
        assert ech.reduce({}) == (1, {})
        assert ech.insert({3: (0, 2)}) == 3
        assert ech.insert({3: (5, 0)}) is None
        assert ech.insert({}) is None
        assert echelon_row(ech, 3) == {3: 1}

    def test_long_dependent_chain(self):
        # five independent vectors, then thirty more, each a combination of
        # the two before it: every one of the thirty is dependent, and their
        # coefficients compound
        rng = random.Random(23)
        keys = list(range(9))

        def value():
            return QQi(Fraction(rng.randint(1, 7), rng.randint(1, 6)), Fraction(rng.randint(-4, 4), 5))

        vectors = [self.sparse(rng, keys, 4, value) for _ in range(5)]
        for _ in range(30):
            a, b = value(), value()
            x, y = vectors[-2], vectors[-1]
            mix = {k: a * x.get(k, 0) + b * y.get(k, 0) for k in set(x) | set(y)}
            vectors.append({k: v for k, v in mix.items() if v})
        ech = self.check_against_the_oracle(vectors, keys)
        assert len(ech.rows) == 5

    def test_pairwise_coprime_denominators(self):
        # every entry has its own prime denominator, so a common denominator
        # of a vector is the product of its primes; the stored rows must still
        # be the oracle's, in lowest terms
        rng = random.Random(29)
        primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
        rng.shuffle(primes)
        it = iter(primes)
        keys = list(range(10))

        def value():
            q = next(it)
            return QQi(Fraction(rng.randint(1, 50), q), Fraction(rng.randint(-50, 50), q))

        vectors = [self.sparse(rng, keys, 6, value) for _ in range(7)]
        vectors.append({k: v * QQi(3, -2) for k, v in vectors[0].items()})
        ech = self.check_against_the_oracle(vectors, keys)
        assert len(ech.rows) == 7

    def test_reduce_gives_the_value_of_the_remainder(self):
        rng = random.Random(31)
        keys = list(range(8))

        def value():
            return QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-2, 2), 3))

        ech = Echelon()
        inserted = [self.sparse(rng, keys, 3, value) for _ in range(4)]
        for v in inserted:
            ech.insert(numerators(v)[1])
        vec = self.sparse(rng, keys, 5, value)
        d_in, nums = numerators(vec)
        d, rest = ech.reduce(nums)
        rest = {k: QQi(Fraction(re, d * d_in), Fraction(im, d * d_in)) for k, (re, im) in rest.items()}
        # rest is 0 at every pivot, and vec - rest lies in the span
        assert not set(rest) & set(ech.rows)
        diff = {k: vec.get(k, 0) - rest.get(k, 0) for k in set(vec) | set(rest)}
        assert not ech.reduce(numerators({k: v for k, v in diff.items() if v})[1])[1]


class TestMat:
    def test_kron_and_trace(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat.identity(2)
        k = a.kron(b)
        assert k.nr == 4 and trace(k) == QQi(5) * QQi(2)

    def test_unit_is_the_dense_matrix_with_one_entry(self):
        rng = random.Random(41)
        for value in [QQi(1), QQi(Fraction(-3, 4), 2), QQi(0), 5, Fraction(2, 9), "-1/2"]:
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            i, j = rng.randrange(nr), rng.randrange(nc)
            dense = [[QQi.of(value) if (r, c) == (i, j) else 0 for c in range(nc)] for r in range(nr)]
            got = Mat.unit(nr, nc, i, j, value)
            assert got == Mat(dense)
            assert_canonical(got)
        assert Mat.unit(2, 3, 1, 2) == Mat([[0, 0, 0], [0, 0, 1]])

    def test_kron_identities_is_the_kron_chain(self):
        rng = random.Random(43)
        for before, after in [(1, 1), (2, 1), (1, 3), (3, 2)]:
            for _ in range(4):
                m = sparse_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
                got = kron_identities(before, m, after)
                assert got == Mat.identity(before).kron(m).kron(Mat.identity(after))
                assert_canonical(got)

    def test_linear_combination_is_the_sum_of_scaled_matrices(self):
        rng = random.Random(47)
        for trial in range(30):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            terms = [(sparse_entry(rng) if k % 3 else rng.randint(-3, 3), sparse_matrix(rng, nr, nc))
                     for k in range(trial % 5)]
            want = Mat.zeros(nr, nc)
            for w, m in terms:
                want = want + m * w
            got = linear_combination(terms, nr, nc)
            assert got == want
            assert_canonical(got)
        # terms that cancel leave the canonical zero
        m = sparse_matrix(rng, 3, 3)
        assert linear_combination([(2, m), (QQi(-2), m)], 3, 3) == Mat.zeros(3)

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
    return [[(x.re, x.im) for x in row] for row in mat_rows(m)]


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


def assert_canonical(m):
    """The stored form: den is the lcm of the reduced entry denominators,
    and nums holds exactly the nonzero entries, in range."""
    rows = mat_rows(m)
    assert len(m.nums) == len(rows) == m.nr
    assert m.den == lcm(*(p.denominator for row in rows for x in row for p in (x.re, x.im)))
    for i, row in enumerate(m.nums):
        assert sorted(row) == [j for j, x in enumerate(rows[i]) if x]
        for j, (re, im) in row.items():
            assert QQi(Fraction(re, m.den), Fraction(im, m.den)) == rows[i][j] == m[i, j]


def assert_fresh(out, *operands):
    """The result is a new canonical Mat, none of its operands, whose entries
    read as QQi."""
    assert isinstance(out, Mat)
    assert all(out is not m for m in operands)
    assert all(isinstance(x, QQi) for row in mat_rows(out) for x in row)
    assert_canonical(out)


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
            out = commutator(sq, d)
            assert_fresh(out, sq, d)
            ab, ba = pair_matmul(psq, pd), pair_matmul(pd, psq)
            assert pairs_of(out) == [
                [pair_add(x, pair_neg(y)) for x, y in zip(r, s)] for r, s in zip(ab, ba)
            ]


class TestMatNormalization:
    """`RatFun.cancel` on a Mat-valued numerator must agree with evaluating
    the whole matrix polynomial at the pole and dividing entry by entry."""

    P = QQi(Fraction(2, 3))
    OTHER = QQi(-1, 1)

    @staticmethod
    def whole_matrix(num, poles):
        """The canonical form: while num(p) is the zero matrix and p is still
        a pole, divide every entry by (u - p) in QQi; drop order-zero poles."""
        num, poles = poly_trim(list(num)), dict(poles)
        for p in list(poles):
            while poles[p] > 0 and not poly_eval(num, p):
                table = [[qqi_divmod(e, p)[0] for e in row] for row in entry_polys(num)]
                num = poly_trim(from_entries(table, len(num) - 1))
                poles[p] -= 1
            if poles[p] == 0:
                del poles[p]
        return num, poles

    def check(self, num, poles):
        raw = RatFun(num, poles)
        assert raw.num == poly_trim(list(num)) and raw.poles == poles
        f = raw.cancel()
        want_num, want_poles = self.whole_matrix(num, poles)
        assert f.poles == want_poles
        assert f.num == want_num
        assert f == raw
        return f

    @staticmethod
    def q_poly(rng):
        """A 3x3 quadratic with a dense leading coefficient."""
        return [sparse_matrix(rng, 3, 3) for _ in range(2)] + [
            Mat([[1 + i + j for j in range(3)] for i in range(3)])
        ]

    def times_u_minus_p(self, q):
        return poly_mul(linear(self.P, 3), q)

    def test_zero_first_entry_cancels(self):
        rng = random.Random(3)
        q = self.q_poly(rng)
        q = [Mat([[QQi(0)] + r[1:] if i == 0 else list(r) for i, r in enumerate(mat_rows(c))])
             for c in q]
        f = self.check(self.times_u_minus_p(q), {self.P: 2, self.OTHER: 1})
        assert f.poles == {self.P: 1, self.OTHER: 1}
        assert f.num == q

    def test_value_only_in_the_first_row_keeps_the_pole(self):
        rng = random.Random(4)
        num = self.times_u_minus_p(self.q_poly(rng))
        bump = Mat([[1, 2, 3], [0, 0, 0], [0, 0, 0]])
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


class TestCancel:
    """A RatFun keeps the poles it is given.  `cancel` removes the common
    (u - p) factors, and no Laurent coefficient, value at infinity, zero test
    or equality may tell the two apart."""

    POINTS = [QQi(Fraction(2, 3)), QQi(-1, 1), QQi(0, Fraction(1, 2)), QQi(3), QQi(0)]

    def planted(self, rng, nr, nc):
        """(f, want_num, want_poles): f = q prod_p (u - p)^k_p / prod_p (u - p)^m_p
        with q(p) != 0 at every point, so its canonical form is known."""
        while True:
            q = mat_poly(rng, rng.randint(0, 3), nr, nc)
            if nr * nc > 1:
                # entry (0, 0) identically zero, beside the zero rows and
                # zero coefficients of `mat_poly`
                q = poly_trim([
                    Mat([[QQi(0) if (i, j) == (0, 0) else c[i, j] for j in range(nc)]
                         for i in range(nr)])
                    for c in q
                ])
            if q and all(poly_eval(q, p) for p in self.POINTS):
                break
        points = rng.sample(self.POINTS, rng.randint(1, 4))
        poles = {p: rng.randint(1, 3) for p in points[1:]}
        # the first point is a planted root with no pole; every other one is
        # a pole with a planted root of order 0 to its multiplicity + 1
        planted = {points[0]: rng.randint(1, 2)}
        planted.update((p, rng.randint(0, m + 1)) for p, m in poles.items())
        num, want_num = q, q
        for p, k in planted.items():
            for _ in range(k):
                num = times_u_minus(num, p)
            for _ in range(k - poles.get(p, 0)):
                want_num = times_u_minus(want_num, p)
        want_poles = {p: m - planted[p] for p, m in poles.items() if m > planted[p]}
        return RatFun(num, poles), want_num, want_poles

    @staticmethod
    def infinity_or_growth(f):
        try:
            return f.infinity_value()
        except ValueError:
            return "grows"

    @pytest.mark.parametrize("nr,nc", [(1, 1), (3, 2)])
    def test_cancel_keeps_every_laurent_coefficient(self, nr, nc):
        rng = random.Random(101 + nr)
        previous = None
        for _ in range(30):
            f, want_num, want_poles = self.planted(rng, nr, nc)
            c = f.cancel()
            assert c.num == want_num
            assert c.poles == want_poles and list(c.poles) == list(want_poles)
            for p, m in f.poles.items():
                for l in range(m):
                    assert f.residue(p, l) == c.residue(p, l), (p, l)
            assert self.infinity_or_growth(f) == self.infinity_or_growth(c)
            assert not f.is_zero() and not c.is_zero()
            assert f == c and c == f
            zero = f - c
            assert zero.is_zero() and zero.poles == {}
            if previous is not None:
                assert (f == previous) == (c == previous.cancel())
                assert not f == previous
            previous = f
            # cancelling twice changes nothing
            again = c.cancel()
            assert again.num == c.num and again.poles == c.poles

    def test_a_planted_point_that_is_no_root_stays_a_pole(self):
        rng = random.Random(7)
        for _ in range(20):
            f, _, want_poles = self.planted(rng, 2, 2)
            c = f.cancel()
            for p, m in f.poles.items():
                value = poly_eval(f.num, p)
                assert (p in c.poles and c.poles[p] == m) == bool(value)
            assert set(c.poles) <= set(f.poles)

    def test_zero_function(self):
        zero = RatFun([Mat.zeros(2), Mat.zeros(2)], {QQi(1): 2})
        assert zero.num == [] and zero.poles == {}
        c = zero.cancel()
        assert c.is_zero() and c.poles == {} and c == zero


# ---------------------------------------------------------------------------
# The integer kernel against explicit QQi sums


def qqi_matmul(a, b):
    """Test-only oracle: every entry an explicit sum of QQi products."""
    ra, rb = mat_rows(a), mat_rows(b)
    return [
        [sum((ra[i][k] * rb[k][j] for k in range(a.nc)), QQi(0))
         for j in range(b.nc)]
        for i in range(a.nr)
    ]


def large_denominator_matrix(rng, nr, nc):
    big = [10**30 + 57, 2**61 - 1, 3**40]
    return Mat([
        [QQi(Fraction(rng.randint(-10**20, 10**20), rng.choice(big)),
             Fraction(rng.randint(-9, 9), rng.choice(big)))
         if rng.random() < 0.5 else QQi(0) for _ in range(nc)]
        for _ in range(nr)
    ])


def imaginary_matrix(rng, nr, nc):
    return Mat([
        [QQi(0, Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(nc)]
        for _ in range(nr)
    ])


class TestIntegerKernel:
    def test_view_is_a_common_denominator_of_the_nonzero_entries(self):
        rng = random.Random(31)
        for trial in range(30):
            nr, nc = 1 + trial % 5, 1 + trial % 7
            qqi_rows = [[sparse_entry(rng) for _ in range(nc)] for _ in range(nr)]
            m = Mat(qqi_rows)
            assert m.den > 0 and len(m.nums) == m.nr
            assert mat_rows(m) == qqi_rows
            for i, row in enumerate(m.nums):
                assert sorted(row) == [j for j, x in enumerate(qqi_rows[i]) if x]
                for j, (re, im) in row.items():
                    assert QQi(Fraction(re, m.den), Fraction(im, m.den)) == qqi_rows[i][j]
            assert_canonical(m)

    @pytest.mark.parametrize(
        "shapes, build",
        [
            (((1, 1), (1, 1)), sparse_matrix),
            (((3, 5), (5, 2)), sparse_matrix),
            (((1, 4), (4, 1)), sparse_matrix),
            (((4, 3), (3, 4)), imaginary_matrix),
            (((3, 3), (3, 3)), large_denominator_matrix),
            (((2, 6), (6, 3)), large_denominator_matrix),
        ],
    )
    def test_products_match_explicit_qqi_sums(self, shapes, build):
        rng = random.Random(repr(shapes) + build.__name__)
        (n, m), (m2, k) = shapes
        for _ in range(10):
            a, b = build(rng, n, m), build(rng, m2, k)
            out = a * b
            assert_fresh(out, a, b)
            assert (out.nr, out.nc) == (n, k)
            assert mat_rows(out) == qqi_matmul(a, b)

    def test_zero_rows_and_zero_matrices(self):
        rng = random.Random(37)
        a = sparse_matrix(rng, 4, 4)
        a = Mat([list(r) if i % 2 else [QQi(0)] * 4 for i, r in enumerate(mat_rows(a))])
        b = sparse_matrix(rng, 4, 3)
        out = a * b
        assert mat_rows(out) == qqi_matmul(a, b)
        assert not any(mat_rows(out)[0]) and not any(mat_rows(out)[2])
        assert a * Mat.zeros(4, 2) == Mat.zeros(4, 2)
        assert Mat.zeros(3, 4) * b == Mat.zeros(3, 3)

    def test_real_products_have_zero_imaginary_parts(self):
        rng = random.Random(41)
        a = Mat([[QQi(x.re) for x in r] for r in mat_rows(sparse_matrix(rng, 5, 5))])
        out = a * a
        assert mat_rows(out) == qqi_matmul(a, a)
        assert all(x.im == 0 for r in mat_rows(out) for x in r)

    def test_commutes_agrees_with_the_commutator(self):
        rng = random.Random(43)
        for dim in range(1, 28):
            a = sparse_matrix(rng, dim, dim)
            diag = Mat([[sparse_entry(rng) if i == j else QQi(0) for j in range(dim)]
                        for i in range(dim)])
            poly = a * a + a * QQi(3, -1) + Mat.identity(dim)
            bump = poly + Mat.unit(dim, dim, rng.randrange(dim), rng.randrange(dim),
                                   QQi(Fraction(1, 7)))
            others = [sparse_matrix(rng, dim, dim), diag, poly, bump,
                      a * QQi(0, 2), Mat.zeros(dim)]
            for b in others:
                for x, y in ((a, b), (b, a)):
                    got = commutes(x, y)
                    assert got == (not commutator(x, y))
                    if dim <= 6:
                        assert got == (qqi_matmul(x, y) == qqi_matmul(y, x))
            assert commutes(a, poly) and commutes(a, Mat.identity(dim))

    def test_commutes_needs_one_square_size(self):
        with pytest.raises(ValueError):
            commutes(Mat.zeros(2, 3), Mat.zeros(3, 2))
        with pytest.raises(ValueError):
            commutes(Mat.zeros(2), Mat.zeros(3))


# ---------------------------------------------------------------------------
# The stored format: every operation against entrywise QQi arithmetic on the
# dense rows, and every result canonical


def dense_matrix(rng, nr, nc, real=False):
    def part():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    return Mat([[QQi(part(), 0 if real else part()) for _ in range(nc)] for _ in range(nr)])


def real_matrix(rng, nr, nc):
    return dense_matrix(rng, nr, nc, real=True)


def _primes(count):
    out = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


PRIMES = _primes(80)


def coprime_matrix(rng, nr, nc):
    """Every nonzero part has its own prime denominator, pairwise coprime."""
    dens = iter(rng.sample(PRIMES, 2 * nr * nc))
    return Mat([
        [QQi(Fraction(rng.randint(1, 9), next(dens)), Fraction(rng.choice([0, -1, 3]), next(dens)))
         for _ in range(nc)]
        for _ in range(nr)
    ])


STORED_BUILDERS = [
    sparse_matrix, dense_matrix, real_matrix, coprime_matrix,
    imaginary_matrix, large_denominator_matrix,
]


class TestStoredFormat:
    @pytest.mark.parametrize("build", STORED_BUILDERS, ids=lambda b: b.__name__)
    def test_every_operation_matches_qqi_arithmetic(self, build):
        rng = random.Random("stored/" + build.__name__)
        for trial in range(6):
            n, m = 1 + trial % 4, 1 + (trial * 3) % 5
            a, b = build(rng, n, m), build(rng, n, m)
            c, sq, sq2 = build(rng, m, 1 + trial % 3), build(rng, n, n), build(rng, n, n)
            ra, rb, rsq = mat_rows(a), mat_rows(b), mat_rows(sq)
            checks = [
                (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)]),
                (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)]),
                (-a, [[-x for x in r] for r in ra]),
                (a * c, qqi_matmul(a, c)),
                (a.kron(sq), [[x * y for x in r for y in s] for r in ra for s in rsq]),
                (a.transpose(), [list(col) for col in zip(*ra)]),
                (a.conj(), [[conjugate(x) for x in r] for r in ra]),
            ]
            for s in (3, Fraction(-5, 6), QQi(0, Fraction(2, 7)), QQi(Fraction(7, 10), -2)):
                checks.append((a * s, [[x * s for x in r] for r in ra]))
                checks.append((s * a, [[x * s for x in r] for r in ra]))
            for out, want in checks:
                assert_canonical(out)
                assert mat_rows(out) == want
            assert trace(sq) == sum((rsq[i][i] for i in range(n)), QQi(0))
            assert commutes(sq, sq2) == (qqi_matmul(sq, sq2) == qqi_matmul(sq2, sq))
            assert commutes(sq, sq * sq + sq * QQi(2, 1))

    @pytest.mark.parametrize("build", STORED_BUILDERS, ids=lambda b: b.__name__)
    def test_zero_results_are_canonical(self, build):
        rng = random.Random("zero/" + build.__name__)
        a, b, sq = build(rng, 3, 4), build(rng, 4, 2), build(rng, 3, 3)
        # left uses only columns 0 and 1, right has nonzero rows 2 and 3 only
        left = Mat([list(r[:2]) + [QQi(0)] * 2 for r in mat_rows(a)])
        right = Mat([[QQi(0)] * 2] * 2 + [list(r) for r in mat_rows(b)[2:]])
        for out in (a - a, a + (-a), a * 0, a * QQi(0), 0 * a, left * right,
                    a.kron(Mat.zeros(2)), Mat.zeros(3, 3) * a, commutator(sq, sq)):
            assert not out
            assert out.den == 1 and not any(out.nums)
            assert_canonical(out)
        assert a - a == Mat.zeros(3, 4) and hash(a - a) == hash(Mat.zeros(3, 4))

    def test_equal_values_have_equal_fields(self):
        rng = random.Random(59)
        for build in STORED_BUILDERS:
            a, b = build(rng, 3, 3), build(rng, 3, 3)
            for x, y in [((a + b) - b, a), (a * QQi(2, -1) * QQi(2, 1), a * 5),
                         (a.transpose().transpose(), a), (Mat(mat_rows(a)), a)]:
                assert (x.den, x.nums) == (y.den, y.nums)
                assert x == y and hash(x) == hash(y)

    def test_floats_are_bit_identical_to_the_qqi_route(self):
        import numpy as np

        from oracles import mat_to_numpy

        rng = random.Random(61)
        for build in STORED_BUILDERS:
            for _ in range(4):
                m = build(rng, 4, 5)
                rows = mat_rows(m)
                want = max((float(x.abs2()) for r in rows for x in r), default=0.0) ** 0.5
                assert m.max_abs() == want
                qqi_route = np.array([[complex(x) for x in r] for r in rows], dtype=np.complex128)
                assert mat_to_numpy(m).tobytes() == qqi_route.tobytes()
        assert Mat.zeros(2).max_abs() == 0.0


# ---------------------------------------------------------------------------
# Mat-valued polynomial kernels against entrywise QQi arithmetic


KERNEL_POINTS = [
    QQi(Fraction(2, 3), Fraction(-5, 7)),
    QQi(0, Fraction(1, 2)),
    QQi(Fraction(-3, 4)),
    QQi(1, 1),
    QQi(0),
    QQi(2),
]


def coprime_coefficients(rng, count, nr, nc):
    """Mats whose entries share one prime denominator per Mat, a different
    prime for each, so the coefficients' denominators are pairwise coprime."""
    return [
        Mat([
            [QQi(Fraction(rng.randint(-9, 9), d), Fraction(rng.choice([0, 0, 1, -4]), d))
             for _ in range(nc)]
            for _ in range(nr)
        ])
        for d in rng.sample(PRIMES[3:], count)
    ]


def mat_poly(rng, deg, nr, nc):
    """A trimmed Mat-valued polynomial with zero rows and zero coefficients
    (from `sparse_matrix`), or with pairwise coprime coefficient denominators."""
    if rng.random() < 0.3:
        coeffs = coprime_coefficients(rng, deg + 1, nr, nc)
    else:
        coeffs = [sparse_matrix(rng, nr, nc) if rng.random() < 0.8 else Mat.zeros(nr, nc)
                  for _ in range(deg + 1)]
    while not coeffs[-1]:
        coeffs[-1] = sparse_matrix(rng, nr, nc)
    return coeffs


def entry_polys(a):
    """The QQi coefficient list of each entry (i, j) of a Mat-valued polynomial."""
    rows = [mat_rows(c) for c in a]
    return [[[r[i][j] for r in rows] for j in range(a[0].nc)] for i in range(a[0].nr)]


def qqi_value(coeffs, p):
    acc = QQi(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def qqi_divmod(coeffs, p):
    """Synthetic division of one QQi coefficient list by (u - p)."""
    quot = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        quot[k] = carry
        carry = coeffs[k] + carry * p
    return quot, carry


def qqi_shift(coeffs, p):
    """The coefficients b_j = sum_k C(k, j) a_k p^(k - j) of a(t + p), untrimmed."""
    return [
        sum((coeffs[k] * QQi(comb(k, j)) * p ** (k - j) for k in range(j, len(coeffs))), QQi(0))
        for j in range(len(coeffs))
    ]


def from_entries(table, count):
    """Mats [M_0 .. M_{count-1}] with M_k[i][j] = table[i][j][k]."""
    return [Mat([[e[k] for e in row] for row in table]) for k in range(count)]


def times_u_minus(a, p):
    """The coefficients of (u - p) a(u), entry by entry in QQi."""
    table = [[[QQi(0) - p * e[0]] + [e[k - 1] - p * e[k] for k in range(1, len(e))] + [e[-1]]
              for e in row] for row in entry_polys(a)]
    return from_entries(table, len(a) + 1)


def assert_mat_list(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_canonical(g)
        assert g == w and mat_rows(g) == mat_rows(w)


class TestMatPolyKernels:
    """Evaluation, products, Taylor coefficients, shifts and `RatFun.cancel`
    of Mat-valued polynomials run on integer numerators; each must equal the
    QQi computation entry by entry."""

    def cases(self, seed, count=40):
        rng = random.Random(seed)
        for trial in range(count):
            nr, nc = 1 + trial % 4, 1 + (trial * 3) % 5
            yield rng, mat_poly(rng, trial % 5, nr, nc), KERNEL_POINTS[trial % len(KERNEL_POINTS)]

    def test_poly_eval(self):
        for _, a, p in self.cases("eval"):
            want = Mat([[qqi_value(e, p) for e in row] for row in entry_polys(a)])
            got = poly_eval(a, p)
            assert_canonical(got)
            assert got == want and mat_rows(got) == mat_rows(want)

    @staticmethod
    def qqi_poly_mul(a, b):
        ra, rb = [mat_rows(c) for c in a], [mat_rows(c) for c in b]
        return poly_trim([
            Mat([
                [sum((ra[i][r][m] * rb[k - i][m][c]
                      for i in range(len(a)) if 0 <= k - i < len(b)
                      for m in range(a[0].nc)), QQi(0))
                 for c in range(b[0].nc)]
                for r in range(a[0].nr)
            ])
            for k in range(len(a) + len(b) - 1)
        ])

    def test_a_constant_multiple_of_the_identity_scales_the_other_factor(self):
        rng = random.Random(53)
        other = [sparse_matrix(rng, 3, 3) for _ in range(3)] + [Mat.identity(3)]
        for c in [QQi(-1), QQi(1), QQi(Fraction(3, 2), -1), QQi(0, Fraction(1, 7))]:
            const = [Mat.identity(3) * c]
            want = [x * c for x in other]
            assert poly_mul(const, other) == want == poly_mul(other, const)
            # the general kernel agrees: a constant that is not c * identity
            bumped = [const[0] + Mat.unit(3, 3, 0, 1, QQi(0, 1))]
            assert poly_mul(bumped, other) == [
                bumped[0] * x for x in other
            ]

    def test_poly_mul(self):
        for rng, a, _ in self.cases("mul"):
            b = mat_poly(rng, rng.randint(0, 3), a[0].nc, rng.randint(1, 4))
            assert_mat_list(poly_mul(a, b), self.qqi_poly_mul(a, b))
            # (A + A u)(B - B u) = AB - AB u^2: the middle coefficient cancels
            a2, b2 = [a[-1], a[-1]], [b[-1], -b[-1]]
            assert_mat_list(poly_mul(a2, b2), self.qqi_poly_mul(a2, b2))

    def test_cancel_divides_by_u_minus_p(self):
        for _, a, p in self.cases("divmod"):
            # (u - p) a(u) / (u - p) cancels to a, with no pole left
            f = RatFun(times_u_minus(a, p), {p: 1}).cancel()
            assert_mat_list(f.num, a)
            assert f.poles == {}
            # a / (u - p) cancels exactly when a(p) = 0, to the QQi quotient
            table = [[qqi_divmod(e, p) for e in row] for row in entry_polys(a)]
            g = RatFun(a, {p: 1}).cancel()
            if poly_eval(a, p):
                assert g.poles == {p: 1}
                assert_mat_list(g.num, a)
            else:
                assert g.poles == {}
                quot = from_entries([[q for q, _ in row] for row in table], len(a) - 1)
                assert_mat_list(g.num, poly_trim(quot))

    def test_taylor_coefficients_and_poly_shift(self):
        for _, a, p in self.cases("taylor"):
            want = from_entries([[qqi_shift(e, p) for e in row] for row in entry_polys(a)], len(a))
            for count in range(len(a) + 2):
                assert_mat_list(taylor_coefficients(a, p, count), want[:count])
            assert_mat_list(poly_shift(a, p), poly_trim(want))

    def test_the_deciding_row_comes_last(self):
        rng = random.Random(79)
        for p in KERNEL_POINTS:
            # every entry of (u - p) q(u) is a nonzero polynomial that vanishes at p
            q = mat_poly(rng, 2, 4, 3)[:-1] + [
                Mat([[1 + i + 2 * j for j in range(3)] for i in range(4)])
            ]
            a = times_u_minus(q, p)
            assert not poly_eval(a, p)
            f = RatFun(a, {p: 1}).cancel()
            assert f.poles == {} and f.num == q
            bump = Mat.unit(4, 3, 3, rng.randrange(3), QQi(Fraction(1, 9), -1))
            b = [a[0] + bump] + a[1:]
            assert poly_eval(b, p) == bump
            g = RatFun(b, {p: 1}).cancel()
            assert g.poles == {p: 1} and g.num == b


# ---------------------------------------------------------------------------
# Weight blocks: the block views and the exact commutator certificate


def block_partition(rng, dim):
    """Blocks of sizes 1 to 4 over a shuffled range(dim)."""
    idx = list(range(dim))
    rng.shuffle(idx)
    parts, k = [], 0
    while k < dim:
        b = rng.randint(1, 4)
        parts.append(sorted(idx[k : k + b]))
        k += b
    return Blocks(parts, range(len(parts)))


def gaussian_block_matrix(rng, blocks, bits, density=0.7):
    """A Mat that maps each block to itself, with Gaussian-integer entries
    whose parts stay at least 8 below 2^bits."""
    dim = len(blocks.of)
    top = (1 << bits) - 8
    rows = [[0] * dim for _ in range(dim)]
    for part in blocks.parts:
        for i in part:
            for j in part:
                if rng.random() < density:
                    im = rng.randint(-top, top) if rng.random() < 0.5 else 0
                    rows[i][j] = QQi(rng.randint(-top, top), im)
    return Mat(rows)


def python_limbs(x, bits, count):
    """The balanced limbs of x in [-2^(bits-1), 2^(bits-1)), by Python ints."""
    half, out = 1 << (bits - 1), []
    for _ in range(count):
        r = (x + half) % (1 << bits) - half
        out.append(r)
        x = (x - r) >> bits
    assert x == 0
    return out


def numerator_block(m, part):
    """The stored numerators (re, im) of m on the rows and columns of `part`."""
    return [[m.nums[i].get(j, (0, 0)) for j in part] for i in part]


def limb_block(cells, p, bits, count):
    """Limb p of each numerator (re, im) of a block, by `python_limbs`."""
    return [
        [(python_limbs(re, bits, count)[p], python_limbs(im, bits, count)[p]) for re, im in row]
        for row in cells
    ]


def gaussian_matmul(a, b):
    """Product of square matrices of Gaussian integers (re, im), by Python ints."""
    n = len(a)
    return [
        [
            (
                sum(a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(n)),
                sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(n)),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


class TestBlockCertificate:
    def test_leak_names_the_first_entry_between_blocks(self):
        # the layout pass refuses a matrix at the entry the `leak` oracle names
        blocks = Blocks([[0, 2], [1]], ["a", "b"])
        keeps = Mat([[1, 0, 2], [0, 3, 0], [4, 0, 5]])
        assert leak(blocks, keeps) is None
        block_views([keeps], blocks)
        for m in (
            keeps + Mat.unit(3, 3, 2, 1),
            keeps + Mat.unit(3, 3, 2, 1) + Mat.unit(3, 3, 1, 0),
            keeps + Mat.unit(3, 3, 0, 1) + Mat.unit(3, 3, 1, 2),
        ):
            with pytest.raises(BlockLeak) as info:
                block_views([keeps, keeps, m], blocks)
            assert (info.value.matrix, info.value.entry) == (2, leak(blocks, m))
        assert leak(blocks, keeps + Mat.unit(3, 3, 2, 1)) == (2, 1)
        assert leak(blocks, keeps + Mat.unit(3, 3, 2, 1) + Mat.unit(3, 3, 1, 0)) == (1, 0)

    def test_the_first_witness_agrees_with_the_oracle_on_random_leaks(self):
        rng = random.Random(61)
        refused = 0
        for _ in range(30):
            blocks = block_partition(rng, rng.randint(2, 9))
            dim = len(blocks.of)
            mats = [gaussian_block_matrix(rng, blocks, 20) for _ in range(3)]
            t = rng.randrange(3)
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(dim), rng.randrange(dim)
                if blocks.of[i] != blocks.of[j]:
                    mats[t] = mats[t] + Mat.unit(dim, dim, i, j, QQi(1, -2))
            want = leak(blocks, mats[t])
            if want is None:
                assert block_views(mats, blocks).keys() == blocks.groups.keys()
                continue
            for call in (
                lambda: block_views(mats, blocks),
                lambda: commutator_certificate(mats, blocks, [(0, 1), (1, 2)]),
            ):
                with pytest.raises(BlockLeak) as info:
                    call()
                assert (info.value.matrix, info.value.entry) == (t, want)
            refused += 1
        assert refused >= 15

    def test_a_leaking_matrix_is_refused_not_certified(self):
        # A maps block [1, 2] into block [0]: AB != BA, though on the blocks
        # alone both would read as commuting
        blocks = Blocks([[0], [1, 2]], ["x", "y"])
        a, b = Mat.unit(3, 3, 0, 1), Mat.unit(3, 3, 1, 1)
        assert not commutes(a, b)
        with pytest.raises(BlockLeak) as info:
            commutator_certificate([a, b], blocks, [(0, 1)])
        assert (info.value.matrix, info.value.entry) == (0, (0, 1))
        with pytest.raises(BlockLeak) as info:
            block_views([a], blocks)
        assert (info.value.matrix, info.value.entry) == (0, (0, 1))
        # a leak from a row of the 2x2 block, in the second matrix
        c = Mat.unit(3, 3, 1, 2) + Mat.unit(3, 3, 2, 0, QQi(0, 1))
        for call in (
            lambda: commutator_certificate([b, c], blocks, [(0, 1)]),
            lambda: block_views([b, c], blocks),
        ):
            with pytest.raises(BlockLeak) as info:
                call()
            assert (info.value.matrix, info.value.entry) == (1, (2, 0))
            assert isinstance(info.value, ValueError)

    def test_block_views_are_the_complex_rows_of_each_block(self):
        import numpy as np

        rng = random.Random(67)
        for _ in range(6):
            blocks = block_partition(rng, rng.randint(2, 9))
            mats = [
                gaussian_block_matrix(rng, blocks, 70) * QQi(Fraction(1, 3), Fraction(2, 7))
                for _ in range(3)
            ]
            views = block_views(mats, blocks)
            assert sorted(views) == sorted(blocks.groups)
            for b, arr in views.items():
                for g, k in enumerate(blocks.groups[b]):
                    part = blocks.parts[k]
                    for t, m in enumerate(mats):
                        dense = np.array(complex_rows(m), dtype=np.complex128)
                        assert arr[g, t].tobytes() == dense[np.ix_(part, part)].tobytes()

    def test_verdicts_equal_mat_commutes_up_to_120_bits(self):
        rng = random.Random(71)
        seen = set()
        for trial in range(20):
            blocks = block_partition(rng, rng.randint(3, 12))
            dim = len(blocks.of)
            bits = (3, 30, 60, 90, 120)[trial % 5]
            mats = [gaussian_block_matrix(rng, blocks, bits) for _ in range(3)]
            # commuting partners that keep the numerators below 2^bits
            mats += [mats[0] + Mat.identity(dim) * 7, mats[1] * QQi(0, 1), Mat.identity(dim)]
            pairs = list(combinations(range(len(mats)), 2))
            cert = commutator_certificate(mats, blocks, pairs)
            want = [commutes(mats[i], mats[j]) for i, j in pairs]
            assert cert.commute == want, trial
            assert cert.bound <= 1 << EXACT_FLOAT_BITS
            seen.update(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("bits", [20, 64, 120])
    def test_limb_pair_products_equal_python_int_products(self, bits):
        import numpy as np

        rng = random.Random(73 + bits)
        blocks = Blocks([[0, 2, 3], [1], [4, 5]], range(3))
        mats = [gaussian_block_matrix(rng, blocks, bits, density=1.0) for _ in range(3)]
        (L, nl, bound), layouts = limb_embeddings(mats, blocks)
        assert nl * L >= bits + 2 and bound <= 1 << EXACT_FLOAT_BITS
        assert sorted(layouts) == [2, 3]
        left, right = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 0])
        for b, (emb, col) in layouts.items():
            got = limb_products(emb, col, left, right)
            for g, k in enumerate(blocks.groups[b]):
                part = blocks.parts[k]
                for pair, (s, t) in enumerate(zip(left, right)):
                    a, c = numerator_block(mats[s], part), numerator_block(mats[t], part)
                    whole = [[(0, 0)] * b for _ in range(b)]
                    for p in range(nl):
                        for q in range(nl):
                            prod = gaussian_matmul(limb_block(a, p, L, nl), limb_block(c, q, L, nl))
                            block = got[g, pair, p, :, q, :].tolist()
                            assert block[:b] == [[re for re, _ in row] for row in prod]
                            assert block[b:] == [[im for _, im in row] for row in prod]
                            shift = 1 << ((p + q) * L)
                            whole = [
                                [(x + re * shift, y + im * shift) for (x, y), (re, im) in zip(w, r)]
                                for w, r in zip(whole, prod)
                            ]
                    # the limb products recombine to the numerator product
                    assert whole == gaussian_matmul(a, c)

    def test_a_pair_past_one_limb_gets_the_exact_verdict(self):
        import numpy as np

        # diag(a1, a2) against the swap: the commutator is (a1 - a2) times
        # [[0, 1], [-1, 0]], and float64 cannot tell a1 = 2^60 + 1 from 2^60
        big = 1 << 60
        blocks = Blocks([[0, 1]], [(1, 1)])
        near = Mat([[big + 1, 0], [0, big]])
        swap = Mat([[0, 1], [1, 0]])
        circulant = Mat([[big, big + 1], [big + 1, big]])
        floats = [np.array(complex_rows(m)) for m in (near, swap)]
        assert not (floats[0] @ floats[1] - floats[1] @ floats[0]).any()
        # one limb would need products of 2 * 62 bits
        L, nl, bound = limb_plan(big.bit_length(), 2)
        assert nl > 1 and bound <= 1 << EXACT_FLOAT_BITS
        mats = [near, swap, circulant]
        pairs = [(0, 1), (1, 2), (0, 2)]
        cert = commutator_certificate(mats, blocks, pairs)
        assert (cert.limb_bits, cert.limbs) == (L, nl)
        assert cert.commute == [commutes(mats[i], mats[j]) for i, j in pairs] == [False, True, False]

    @pytest.mark.parametrize("low", [False, True])
    @pytest.mark.parametrize("power", [10, 40])
    def test_the_carries_catch_a_commutator_at_either_end(self, power, low):
        # [diag(p + 1, p), E_12] = E_12 has only a lowest limb, and
        # [diag(p, 0), p E_12] = p^2 E_12 vanishes in every limb sum but the
        # carry out of the top one
        p = 1 << power
        blocks = Blocks([[0, 1]], [(1, 1)])
        if low:
            pair = [Mat([[p + 1, 0], [0, p]]), Mat([[0, 1], [0, 0]])]
        else:
            pair = [Mat([[p, 0], [0, 0]]), Mat([[0, p], [0, 0]])]
        cert = commutator_certificate(pair, blocks, [(0, 1)])
        assert not commutes(pair[0], pair[1])
        assert cert.commute == [False]
        if not low:
            # p^2 is a multiple of the weight of the top limb sum
            assert 2 * power >= (2 * cert.limbs - 1) * cert.limb_bits

    def test_one_perturbed_in_block_entry_breaks_its_pairs(self):
        rng = random.Random(79)
        blocks = Blocks([[0, 3], [1], [2, 4, 5]], range(3))
        a = gaussian_block_matrix(rng, blocks, 90, density=1.0)
        family = [a, a * QQi(0, 1), a + Mat.identity(6) * 7]
        pairs = list(combinations(range(3), 2))
        assert commutator_certificate(family, blocks, pairs).commute == [True] * 3
        family[1] = family[1] + Mat.unit(6, 6, 2, 5, QQi(1))
        cert = commutator_certificate(family, blocks, pairs)
        assert cert.commute == [commutes(family[i], family[j]) for i, j in pairs]
        assert cert.commute == [False, True, False]
        assert cert.first_failure() == 0

    def test_report_states_the_limb_plan(self):
        blocks = Blocks([[0, 1]], [(1, 1)])
        m = Mat([[1, 2], [3, 4]])
        report = commutator_certificate([m, m], blocks, [(0, 1)]).report()
        assert report["pairs"] == 1
        assert report["limbs"] == 1 and report["limb_bits"] >= 2
        assert report["bound_bits"] <= report["exact_below_bits"] == EXACT_FLOAT_BITS
