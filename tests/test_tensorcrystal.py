import random
from collections import Counter
from itertools import permutations

import pytest

from krspectra.export import crystal_to_dot, crystal_to_json
from krspectra.promotion import build_kr, view
from krspectra.tableaux import (
    CrystalError,
    CrystalGraph,
    Tableau,
    build_crystal,
    canonical_weight,
    decompose_normal,
)
from krspectra.tensorcrystal import (
    string_statistics,
    tensor,
    tensor_many,
    weight_multiset,
)

from oracles import graph_e, graph_f
from test_promotion import axiom_oracle, first_edge, some_view_fails


def tab(rows, n):
    return Tableau(rows, n)


# Reference: the pair rule on labels, as the product was computed before
# crystals moved to integer ids.  A labelled crystal is (e, f, wt, elements)
# with e[i] and f[i] dicts keyed by labels and wt a dict of content vectors.


def labelled(crys):
    """A CrystalGraph as label-keyed dicts."""
    lab = crys.labels

    def maps(rows):
        return {
            i: {lab[b]: lab[t] for b, t in enumerate(row) if t >= 0}
            for i, row in zip(crys.indices, rows.tolist())
        }

    wt = dict(zip(lab, map(tuple, crys.wt.tolist())))
    return maps(crys.E), maps(crys.F), wt, list(lab)


def unlabelled(n, labelled_crystal, indices):
    """The CrystalGraph of a labelled crystal, ids in element order."""
    e, f, wt, elements = labelled_crystal
    ids = {x: k for k, x in enumerate(elements)}

    def rows(maps):
        return [[ids[maps[i][x]] if x in maps[i] else -1 for x in elements] for i in indices]

    return CrystalGraph(n, elements, rows(e), rows(f), [wt[x] for x in elements], indices)


def label_strings(e, f, elements):
    """{b: (eps, phi)}, walking each string down from its top."""
    out = {}
    for top in elements:
        if top in e:
            continue
        chain = [top]
        while chain[-1] in f:
            chain.append(f[chain[-1]])
        for k, b in enumerate(chain):
            out[b] = (k, len(chain) - 1 - k)
    return out


def reference_tensor(left, right, indices, swapped=False):
    """The labelled product of two labelled crystals, elements (left, right).

    `swapped` exchanges the strict and the weak inequality of the rule."""
    (el, fl, wl, xs), (er, fr, wr, ys) = left, right
    elements = [(x, y) for x in xs for y in ys]
    e_maps = {i: {} for i in indices}
    f_maps = {i: {} for i in indices}
    for i in indices:
        sl = label_strings(el[i], fl[i], xs)
        sr = label_strings(er[i], fr[i], ys)
        for x, y in elements:
            eps, phi = sl[x][0], sr[y][1]
            e_left, f_left = (eps >= phi, eps > phi) if swapped else (eps > phi, eps >= phi)
            if e_left:
                if x in el[i]:
                    e_maps[i][(x, y)] = (el[i][x], y)
            elif y in er[i]:
                e_maps[i][(x, y)] = (x, er[i][y])
            if f_left:
                if x in fl[i]:
                    f_maps[i][(x, y)] = (fl[i][x], y)
            elif y in fr[i]:
                f_maps[i][(x, y)] = (x, fr[i][y])
    wt = {(x, y): tuple(a + b for a, b in zip(wl[x], wr[y])) for x, y in elements}
    return e_maps, f_maps, wt, elements


class TestLabelRuleOracle:
    @pytest.mark.parametrize(
        "n,factors",
        [(3, order) for order in permutations([(1, 1), (2, 1), (1, 2)])]
        # the last product has 10 * 4 * 10 * 4 = 1,600 elements
        + [(2, [(1, 1)] * 3), (4, [(2, 1), (1, 1), (2, 1), (1, 1)])],
    )
    def test_ids_match_the_label_rule_edge_by_edge(self, n, factors):
        krs = [build_kr(n, l, r) for (l, r) in factors]
        prod = tensor_many(krs)
        ref = labelled(krs[0])
        for k in krs[1:]:
            ref = reference_tensor(ref, labelled(k), list(range(n)))
        e, f, wt, elements = ref
        assert prod.indices == tuple(range(n))
        assert prod.labels == elements
        got_e, got_f, got_wt, _ = labelled(prod)
        for i in prod.indices:
            assert got_e[i] == e[i], i
            assert got_f[i] == f[i], i
        assert got_wt == wt

    def test_a_rule_with_swapped_inequalities_fails(self):
        # n=3 three-factor product whose last step takes the strict and the
        # weak inequality the wrong way round
        n, indices = 3, [0, 1, 2]
        krs = [build_kr(n, l, r) for (l, r) in [(1, 1), (2, 1), (1, 2)]]
        pair = reference_tensor(labelled(krs[0]), labelled(krs[1]), indices)
        right = unlabelled(n, reference_tensor(pair, labelled(krs[2]), indices), indices)
        wrong = unlabelled(
            n, reference_tensor(pair, labelled(krs[2]), indices, swapped=True), indices
        )
        assert right.check_axioms() is None
        assert wrong.check_axioms() is not None or any(
            string_statistics(wrong, j) != string_statistics(right, j) for j in indices
        )


class TestRule:
    def test_singleton_component_n2(self):
        b = build_crystal(2, (1,))
        prod = tensor(b, b)
        one, two = tab([[1]], 2), tab([[2]], 2)
        el = prod.id((two, one))
        assert graph_e(prod, 1, el) is None
        assert graph_f(prod, 1, el) is None

    def test_f_acts_right_on_hw(self):
        b = build_crystal(2, (1,))
        prod = tensor(b, b)
        one, two = tab([[1]], 2), tab([[2]], 2)
        assert graph_f(prod, 1, prod.id((one, one))) == prod.id((one, two))

    def test_size_multiplies(self):
        b1 = build_crystal(3, (1,))
        b2 = build_crystal(3, (1, 1))
        assert len(tensor(b1, b2)) == len(b1) * len(b2)

    def test_rank_mismatch(self):
        with pytest.raises(CrystalError):
            tensor(build_crystal(2, (1,)), build_crystal(3, (1,)))

    def test_index_mismatch(self):
        # an affine and a classical factor over the same n do not multiply
        with pytest.raises(CrystalError):
            tensor(build_kr(2, 1, 1), build_crystal(2, (1,)))

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
        got = Counter(tuple(prod.wt[el]) for el in prod.elements)
        assert got == conv


class TestAffineTensor:
    def test_kr_tensor_is_affine_and_consistent(self):
        k1 = build_kr(2, 1, 1)
        prod = tensor(k1, k1)
        assert prod.indices == (0, 1)
        assert prod.check_axioms() is None

    def test_every_view_of_a_product_passes(self):
        prod = tensor_many([build_kr(3, 1, 1), build_kr(3, 2, 1), build_kr(3, 1, 2)])
        assert prod.check_axioms() is None
        for j in range(3):
            assert view(prod, j).check_axioms() is None, j

    def test_product_corruptions_flagged_by_one_pass_and_by_views(self):
        # n=3 three-factor product: drop an edge, retarget one, bump a weight
        prod = tensor_many([build_kr(3, 1, 1), build_kr(3, 2, 1), build_kr(3, 1, 2)])
        for j in range(3):
            b, eb = first_edge(prod, j)
            other = next(c for c in prod.elements if c not in (b, eb))
            r = prod.row(j)
            edits = [
                lambda E, F, wt: E.__setitem__((r, b), -1),
                lambda E, F, wt: E.__setitem__((r, b), other),
                lambda E, F, wt: wt.__setitem__((eb, 0), wt[eb, 0] + 1),
            ]
            for edit in edits:
                E, F, wt = prod.E.copy(), prod.F.copy(), prod.wt.copy()
                edit(E, F, wt)
                bad = CrystalGraph(3, prod.labels, E, F, wt, indices=prod.indices)
                assert bad.check_axioms() is not None
                assert bad.check_axioms() == axiom_oracle(bad)
                assert some_view_fails(bad)

    def test_seeded_single_entry_corruptions_give_the_oracle_witness(self):
        # one entry of E, F or wt of a product changed: to -1, to another id,
        # or a weight coordinate moved by one
        prod = tensor_many([build_kr(3, 1, 1), build_kr(3, 2, 1), build_kr(3, 1, 2)])
        size = len(prod)
        flagged = 0
        for seed in range(300):
            rng = random.Random(seed)
            E, F, wt = prod.E.copy(), prod.F.copy(), prod.wt.copy()
            target = rng.choice([E, F, wt])
            if target is wt:
                wt[rng.randrange(size), rng.randrange(3)] += rng.choice([-1, 1])
            else:
                target[rng.randrange(3), rng.randrange(size)] = rng.randrange(-1, size)
            bad = CrystalGraph(3, prod.labels, E, F, wt, indices=prod.indices)
            witness = bad.check_axioms()
            assert witness == axiom_oracle(bad), seed
            flagged += witness is not None
        assert flagged > 200

    def test_tensor_checks_its_axioms(self):
        # a factor with one wrong weight gives a product edge of wrong weight
        k1 = build_kr(3, 1, 1)
        _, eb = first_edge(k1, 0)
        wt = k1.wt.copy()
        wt[eb, 0] += 1
        bad = CrystalGraph(3, k1.labels, k1.E, k1.F, wt, indices=k1.indices)
        with pytest.raises(CrystalError):
            tensor(bad, k1)

    def test_affine_strings_n2(self):
        # worked out by hand from the product rule: e_[0] strings on B x B are
        # {1x1 -> 2x1 -> 2x2} and the singleton {1x2}
        k1 = build_kr(2, 1, 1)
        prod = tensor(k1, k1)
        one, two = tab([[1]], 2), tab([[2]], 2)
        e0 = {x: graph_e(prod, 0, prod.id(x)) for x in prod.labels}
        assert e0[(one, one)] == prod.id((two, one))
        assert e0[(two, one)] == prod.id((two, two))
        assert e0[(two, two)] is None
        assert e0[(one, two)] is None

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
                out[(ln, tuple(canonical_weight(rw).tolist()))] += c
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


class TestWideWeights:
    def test_statistics_and_weights_at_n64(self):
        # 64 weight coordinates: rows too wide for one int64 key per row
        crys = build_kr(64, 1, 1)

        def weight(b):
            return tuple(canonical_weight(crys.wt[b]).tolist())

        # the 1-strings of the defining crystal have one or two elements
        tops = [b for b in crys.elements if graph_e(crys, 1, b) is None]
        got = Counter((1 + (graph_f(crys, 1, b) is not None), weight(b)) for b in tops)
        assert string_statistics(crys, 1) == got
        assert weight_multiset(crys) == Counter(weight(b) for b in crys.elements)
        assert len(weight_multiset(crys)) == 64


class TestPairLabels:
    """A product's labels are indexed, not stored: they equal the nested list
    of pairs in every way the package reads them."""

    def factors(self):
        return [build_kr(3, 1, 1), build_kr(3, 2, 1), build_kr(3, 1, 2)]

    def test_equals_the_nested_list_of_pairs(self):
        krs = self.factors()
        prod = tensor_many(krs)
        pairs = [((a, b), c) for a in krs[0].labels for b in krs[1].labels for c in krs[2].labels]
        assert len(prod.labels) == len(pairs) == 3 * 3 * 6
        assert prod.labels == pairs and pairs == prod.labels
        assert list(prod.labels) == pairs
        assert prod.labels != pairs[:-1] and prod.labels != pairs[::-1]
        for k in [0, 1, 5, len(pairs) - 1, -1, -7, -len(pairs)]:
            assert prod.labels[k] == pairs[k], k
        for bad in [len(pairs), -len(pairs) - 1]:
            with pytest.raises(IndexError):
                prod.labels[bad]
        for part in [slice(2, 9), slice(None, None, -5), slice(-4, None), slice(7, 3)]:
            assert prod.labels[part] == tuple(pairs[part]), part
        assert all(prod.id(el) == k for k, el in enumerate(pairs))
        assert pairs[13] in prod.labels and prod.labels.index(pairs[13]) == 13

    def test_read_only(self):
        prod = tensor(*self.factors()[:2])
        with pytest.raises(TypeError):
            prod.labels[0] = prod.labels[1]
        with pytest.raises(TypeError):
            hash(prod.labels)

    def test_dot_and_json_match_a_graph_on_the_list(self):
        prod = tensor_many(self.factors())
        listed = CrystalGraph(prod.n, list(prod.labels), prod.E, prod.F, prod.wt, prod.indices)
        assert type(listed.labels) is tuple
        assert crystal_to_dot(prod) == crystal_to_dot(listed)
        assert crystal_to_json(prod) == crystal_to_json(listed)


class TestExport:
    def test_three_factor_labels_and_affine_flag(self):
        k1 = build_kr(2, 1, 1)
        prod = tensor_many([k1, k1, k1])
        one, two = tab([[1]], 2), tab([[2]], 2)
        el = ((one, two), one)
        assert prod.labels[prod.id(el)] == el
        doc = crystal_to_json(prod)
        assert doc["affine"] is True
        labels = [e["label"] for e in doc["elements"]]
        assert "1 (x) 2 (x) 1" in labels and len(labels) == 8
        assert '[label="1 (x) 2 (x) 1"]' in crystal_to_dot(prod)
        assert {e["op"] for e in doc["edges"]} == {0, 1}

    def test_classical_graph_is_not_affine(self):
        doc = crystal_to_json(build_crystal(3, (2, 1)))
        assert doc["affine"] is False
        assert {e["op"] for e in doc["edges"]} == {1, 2}
