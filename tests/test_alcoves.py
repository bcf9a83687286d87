import math
import random
from fractions import Fraction

import pytest

from krspectra.alcoves import (
    AffinePoint,
    AlcoveError,
    ExtAffineWeylElt,
    Wall,
    classify,
    in_alcove,
    walls_of,
)

from oracles import regular_sample, subregular_sample, wall_contains, weyl_identity


def random_point(rng, n, den=101):
    return AffinePoint([Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(n)])


def fold(x):
    """Oracle: fold a regular point into the base alcove by reflections.

    Each step applies a simple reflection where a_i < a_(i+1), or else the
    affine reflection in a_1 - a_n = 1; the steps grow with |x|.
    """
    n = x.n
    cur = x
    w = weyl_identity(n)  # cur = w x
    while True:
        a = cur.coords
        sigma, m = list(range(1, n + 1)), [0] * n
        i = next((i for i in range(n - 1) if a[i] < a[i + 1]), None)
        if i is not None:
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        elif a[0] - a[n - 1] > 1:
            sigma[0], sigma[n - 1] = sigma[n - 1], sigma[0]
            m[0], m[n - 1] = -1, 1
        else:
            return w.inverse()
        s = ExtAffineWeylElt(tuple(sigma), tuple(m))
        cur = s.apply(cur)
        w = s.compose(w)


class TestClassify:
    def test_base_alcove_identity(self):
        x = AffinePoint([Fraction(1, 2), Fraction(1, 5), 0])
        w = classify(x)
        assert w == weyl_identity(3)

    def test_single_swap(self):
        x = AffinePoint([Fraction(1, 5), Fraction(1, 2), 0])
        w = classify(x)
        assert w.sigma == (2, 1, 3)
        assert w.m == (0, 0, 0)

    def test_translated_point_membership(self):
        x = AffinePoint([Fraction(3, 2), Fraction(1, 5), 0])
        w = classify(x)
        assert in_alcove(w, x)
        # the alcove is open: a point on one of its walls is not in it
        identity = ExtAffineWeylElt((1, 2, 3), (0, 0, 0))
        assert in_alcove(identity, AffinePoint([Fraction(1, 2), Fraction(1, 5), 0]))
        assert not in_alcove(identity, AffinePoint([Fraction(1, 2), Fraction(1, 2), 0]))

    def test_wall_point_returns_walls(self):
        x = AffinePoint([Fraction(1, 2), Fraction(1, 2), 0])
        walls = classify(x)
        assert walls == [Wall(1, 2, 0)]

    def test_agrees_with_membership_on_random_points(self):
        rng = random.Random(2024)
        for n in (3, 4):
            checked = 0
            while checked < 250:
                x = random_point(rng, n)
                if not x.is_regular():
                    continue
                w = classify(x)
                assert w.is_affine_weyl()
                assert in_alcove(w, x)
                checked += 1

    def test_matches_the_folding_oracle(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(1000):
            x = random_point(rng, rng.randint(2, 5))
            if x.is_regular():
                assert classify(x) == fold(x)
                checked += 1
        assert checked > 600

    @pytest.mark.parametrize(
        "coords",
        [
            [0, Fraction(400001, 2)],
            [10**12 + Fraction(1, 3), -(10**12) + Fraction(2, 7), Fraction(5, 11)],
            [Fraction(3 * 10**12 + 1, 7), 10**12 - Fraction(1, 5), 0, -(10**12) + Fraction(1, 9)],
        ],
        ids=["400001/2", "1e12-n3", "1e12-n4"],
    )
    def test_large_points_match_the_oracle_after_a_translation(self, coords):
        # x = y + t with y near the base alcove and t a coroot translation,
        # so the alcove of x is t times the folded alcove of y
        x = AffinePoint(coords)
        n = x.n
        t = [math.floor(c) for c in x.coords]
        t[-1] -= sum(t) % n
        shift = ExtAffineWeylElt(tuple(range(1, n + 1)), t)
        assert shift.is_affine_weyl()
        y = shift.inverse().apply(x)
        assert max(abs(c) for c in y.coords) < n
        w = classify(x)
        assert w == shift.compose(fold(y))
        assert w.is_affine_weyl() and in_alcove(w, x)

    def test_equivariance(self):
        rng = random.Random(7)
        n = 3
        g = ExtAffineWeylElt((2, 3, 1), (1, 0, 0))
        for _ in range(50):
            x = random_point(rng, n)
            if not x.is_regular() or not g.apply(x).is_regular():
                continue
            wx = classify(x)
            wgx = classify(g.apply(x))
            # the alcove of g.x is g * (alcove of x), as alcoves (membership),
            # though the group element may differ by an alcove stabilizer
            assert in_alcove(g.compose(wx), g.apply(x))
            assert in_alcove(wgx, g.apply(x))


class TestWalls:
    def test_base_walls_n3(self):
        assert walls_of(weyl_identity(3)) == [Wall(1, 2, 0), Wall(2, 3, 0), Wall(3, 1, -1)]

    def test_pure_translation_shifts_levels(self):
        n = 3
        t = ExtAffineWeylElt((1, 2, 3), (1, 1, 0))
        walls = walls_of(t)
        assert walls[0] == Wall(1, 2, 0)
        assert walls[1] == Wall(2, 3, 1)
        assert walls[2] == Wall(3, 1, -2)

    def test_action_compatibility(self):
        w = ExtAffineWeylElt((3, 1, 2), (0, 1, 0))
        lhs = walls_of(w)
        rhs = [w.apply_wall(h) for h in walls_of(weyl_identity(3))]
        assert lhs == rhs

    def test_walls_pairwise_distinct_with_real_faces(self):
        for w in [
            weyl_identity(4),
            ExtAffineWeylElt((2, 1, 4, 3), (1, 0, 0, 0)),
        ]:
            walls = walls_of(w)
            assert len({h.key() for h in walls}) == len(walls)
            for j in range(1, w.n + 1):
                p = subregular_sample(w, j)
                assert wall_contains(walls[j - 1], p)


class TestGroup:
    def test_group_law_against_action(self):
        rng = random.Random(5)
        n = 4
        for _ in range(20):
            sig1 = tuple(rng.sample(range(1, n + 1), n))
            sig2 = tuple(rng.sample(range(1, n + 1), n))
            m1 = tuple(rng.randint(-2, 2) for _ in range(n))
            m2 = tuple(rng.randint(-2, 2) for _ in range(n))
            w1 = ExtAffineWeylElt(sig1, m1)
            w2 = ExtAffineWeylElt(sig2, m2)
            x = random_point(rng, n)
            lhs = w1.compose(w2).apply(x)
            rhs = w1.apply(w2.apply(x))
            assert lhs == rhs

    def test_inverse(self):
        w = ExtAffineWeylElt((2, 3, 1), (1, -1, 0))
        x = AffinePoint([Fraction(1, 3), Fraction(1, 7), 0])
        assert w.inverse().apply(w.apply(x)) == x


class TestSubregular:
    def test_finite_wall_sample(self):
        w = weyl_identity(3)
        p = subregular_sample(w, 1)
        assert p.coords[0] == p.coords[1]
        assert classify(p) == [Wall(1, 2, 0)]

    def test_affine_wall_sample(self):
        w = weyl_identity(3)
        p = subregular_sample(w, 3)
        assert p.coords[0] - p.coords[2] == 1
        assert classify(p) == [Wall(1, 3, 1)]

    def test_exactly_one_wall_for_all_j(self):
        for n in (2, 3, 4):
            w = weyl_identity(n)
            for j in range(1, n + 1):
                p = subregular_sample(w, j)
                assert len(classify(p)) == 1

    def test_regular_sample_is_regular(self):
        for n in (2, 3, 4):
            w = weyl_identity(n)
            p = regular_sample(w)
            assert p.is_regular()
            assert in_alcove(w, p)

    def test_bad_index(self):
        with pytest.raises(AlcoveError):
            subregular_sample(weyl_identity(3), 5)
