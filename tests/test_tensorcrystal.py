from collections import Counter
from fractions import Fraction

import pytest

from krspectra.promotion import build_kr
from krspectra.tableaux import (
    CrystalError,
    Tableau,
    build_crystal,
    canonical_weight,
    decompose_normal,
)
from krspectra.tensorcrystal import (
    TensorElement,
    string_statistics,
    tensor,
    tensor_many,
    weight_multiset,
)


def tab(rows, n):
    return Tableau(rows, n)


class TestRule:
    def test_singleton_component_n2(self):
        b = build_crystal(2, (1,))
        prod = tensor(b, b)
        one, two = tab([[1]], 2), tab([[2]], 2)
        el = TensorElement((two, one))
        assert prod.e(1, el) is None
        assert prod.f(1, el) is None

    def test_f_acts_right_on_hw(self):
        b = build_crystal(2, (1,))
        prod = tensor(b, b)
        one, two = tab([[1]], 2), tab([[2]], 2)
        assert prod.f(1, TensorElement((one, one))) == TensorElement((one, two))

    def test_size_multiplies(self):
        b1 = build_crystal(3, (1,))
        b2 = build_crystal(3, (1, 1))
        assert len(tensor(b1, b2)) == len(b1) * len(b2)

    def test_rank_mismatch(self):
        with pytest.raises(CrystalError):
            tensor(build_crystal(2, (1,)), build_crystal(3, (1,)))

    def test_components_3_1(self):
        b = build_crystal(2, (1,))
        prod = tensor(b, b)
        sizes = sorted(c["size"] for c in decompose_normal(prod))
        assert sizes == [1, 3]


class TestTensorMany:
    def test_three_spins_components(self):
        b = build_crystal(2, (1,))
        prod = tensor_many([b, b, b])
        assert len(prod) == 8
        sizes = sorted(c["size"] for c in decompose_normal(prod))
        assert sizes == [2, 2, 4]

    def test_single_factor_identity(self):
        b = build_crystal(3, (2, 1))
        assert tensor_many([b]) is b

    def test_character_convolution(self):
        # weight multiset of the product equals the convolution of factors'
        b1 = build_crystal(3, (1,))
        b2 = build_crystal(3, (1, 1))
        prod = tensor(b1, b2)
        conv = Counter()
        for x in b1.elements:
            for y in b2.elements:
                conv[
                    tuple(a + b for a, b in zip(b1.wt[x], b2.wt[y]))
                ] += 1
        got = Counter(prod.wt[el] for el in prod.elements)
        assert got == conv


class TestAffineTensor:
    def test_kr_tensor_is_affine_and_consistent(self):
        k1 = build_kr(2, 1, 1)
        prod = tensor(k1, k1)
        assert prod.check_invariants() is None

    def test_affine_strings_n2(self):
        # worked out by hand from the product rule: e_[0] strings on B x B are
        # {1x1 -> 2x1 -> 2x2} and the singleton {1x2}
        k1 = build_kr(2, 1, 1)
        prod = tensor(k1, k1)
        one, two = tab([[1]], 2), tab([[2]], 2)
        assert prod.e(0, TensorElement((one, one))) == TensorElement((two, one))
        assert prod.e(0, TensorElement((two, one))) == TensorElement((two, two))
        assert prod.e(0, TensorElement((two, two))) is None
        assert prod.e(0, TensorElement((one, two))) is None

    def test_string_statistics_j0_j1(self):
        k1 = build_kr(2, 1, 1)
        prod = tensor(k1, k1)
        s0 = string_statistics(prod, 0)
        s1 = string_statistics(prod, 1)
        assert s0 == Counter({(3, (0, 2)): 1, (1, (0, 0)): 1})
        assert s1 == Counter({(3, (2, 0)): 1, (1, (0, 0)): 1})

    def test_wedge_string_j0(self):
        k1 = build_kr(2, 1, 1)
        assert string_statistics(k1, 0) == Counter({(2, (0, 1)): 1})
        assert string_statistics(k1, 1) == Counter({(2, (1, 0)): 1})


class TestStatisticsProperties:
    @pytest.mark.parametrize(
        "n,factors",
        [
            (2, [(1, 1), (1, 1)]),
            (2, [(1, 1), (1, 1), (1, 1)]),
            (3, [(1, 1), (1, 2)]),
            (3, [(2, 1), (1, 1)]),
            (3, [(1, 1), (2, 1), (1, 2)]),
        ],
    )
    def test_statistics_ignore_factor_order(self, n, factors):
        # compare_pipeline builds the given factor order only
        from itertools import permutations

        seen = []
        for order in sorted(set(permutations(factors))):
            prod = tensor_many([build_kr(n, l, r) for (l, r) in order])
            seen.append([string_statistics(prod, j) for j in range(n)])
        assert all(stats == seen[0] for stats in seen)

    def test_reassociation_invariance(self):
        b = build_kr(2, 1, 1)
        s = build_kr(2, 2, 1)
        left = tensor(tensor(b, s), b)
        right = tensor(b, tensor(s, b))
        for j in range(2):
            assert string_statistics(left, j) == string_statistics(right, j)

    def test_promotion_equivariance_2w2(self):
        # j=0 statistics match j=2 statistics with weights rotated by tau^2
        kr = build_kr(4, 2, 2)
        s0 = string_statistics(kr, 0)
        s2 = string_statistics(kr, 2)

        def rot2(stats):
            out = Counter()
            for (ln, w), c in stats.items():
                rw = tuple(w[(i - 2) % 4] for i in range(4))
                out[(ln, canonical_weight(rw))] += c
            return out

        assert s0 == rot2(s2)

    def test_classical_decomposition_pieri(self):
        # B_{w1} (x) B_{w2} in sl3 splits as B_{(2,1)} + B_{(1,1,1)}
        b1 = build_crystal(3, (1,))
        b2 = build_crystal(3, (1, 1))
        comps = decompose_normal(tensor(b1, b2))
        lams = sorted(tuple(c["lambda"]) for c in comps)
        assert lams == [(1, 1, 1), (2, 1, 0)]

    def test_pieri_against_ssyt_pair_oracle(self):
        # independent oracle: count SSYT pairs by highest-weight content;
        # B_{w_a} (x) B_{w_b} splits with lambda = (2^c, 1^{a+b-2c})
        for n, a, b in [(3, 1, 1), (4, 1, 2), (4, 2, 2)]:
            ba = build_crystal(n, (1,) * a)
            bb = build_crystal(n, (1,) * b)
            comps = decompose_normal(tensor(ba, bb))
            lams = sorted(tuple(x for x in c["lambda"] if x) for c in comps)
            expected = sorted(
                tuple([2] * c + [1] * (a + b - 2 * c))
                for c in range(max(0, a + b - n), min(a, b) + 1)
            )
            assert lams == expected

    def test_weight_multiset(self):
        k1 = build_kr(2, 1, 1)
        prod = tensor(k1, k1)
        assert weight_multiset(prod) == Counter(
            {(2, 0): 1, (0, 2): 1, (0, 0): 2}
        )
