import pytest

from krspectra.promotion import (
    AffineCrystal,
    build_kr,
    is_rectangle,
    phi_operator,
    promote,
    promotion_order,
    restricted_graph,
    schutzenberger,
    verify_uniqueness,
)
from krspectra.tableaux import (
    CrystalError,
    Tableau,
    build_crystal,
    canonical_weight,
    decompose_normal,
    e_op,
    f_op,
)


def tab(rows, n=4):
    return Tableau(rows, n)


# The full reference promotion table on the 2x2 rectangle at n=4, frozen
# independently of the implementation: four 4-cycles and two 2-cycles.
PR_ORBITS_2W2_N4 = [
    [[[1, 1], [2, 2]], [[2, 2], [3, 3]], [[3, 3], [4, 4]], [[1, 1], [4, 4]]],
    [[[1, 1], [2, 3]], [[2, 2], [3, 4]], [[1, 3], [3, 4]], [[1, 2], [4, 4]]],
    [[[1, 1], [2, 4]], [[1, 2], [2, 3]], [[2, 3], [3, 4]], [[1, 3], [4, 4]]],
    [[[1, 1], [3, 4]], [[1, 2], [2, 4]], [[1, 2], [3, 3]], [[2, 3], [4, 4]]],
    [[[1, 1], [3, 3]], [[2, 2], [4, 4]]],
    [[[1, 2], [3, 4]], [[1, 3], [2, 4]]],
]


def frozen_pr_map():
    out = {}
    for orbit in PR_ORBITS_2W2_N4:
        for k, rows in enumerate(orbit):
            nxt = orbit[(k + 1) % len(orbit)]
            out[tab(rows)] = tab(nxt)
    return out


class TestPromote:
    def test_every_reference_arrow(self):
        table = frozen_pr_map()
        assert len(table) == 20
        for t, expected in table.items():
            assert promote(t) == expected

    def test_spec_examples(self):
        assert promote(tab([[1, 1], [2, 2]])) == tab([[2, 2], [3, 3]])
        assert promote(tab([[1, 1], [2, 3]])) == tab([[2, 2], [3, 4]])
        assert promote(tab([[1, 2], [3, 4]])) == tab([[1, 3], [2, 4]])

    def test_pr4_is_identity(self):
        table = frozen_pr_map()
        for t in table:
            cur = t
            for _ in range(4):
                cur = promote(cur)
            assert cur == t


class TestPromotionOrder:
    def test_2w2_n4(self):
        assert promotion_order(4, (2, 2)) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fundamental_orders(self, n):
        for r in range(1, n + 1):
            assert promotion_order(n, (1,) * r) == n or (
                len(build_crystal(n, (1,) * r)) == 1
            )

    def test_non_rectangular(self):
        assert promotion_order(3, (2, 1)) != 3


class TestSchutzenberger:
    def test_w1_n2_swap(self):
        g = build_crystal(2, (1,))
        xi = schutzenberger(g)
        one, two = tab([[1]], 2), tab([[2]], 2)
        assert xi[one] == two and xi[two] == one

    def test_involution_on_2w2(self):
        g = build_crystal(4, (2, 2))
        xi = schutzenberger(g)
        for b in g.elements:
            assert xi[xi[b]] == b

    def test_maps_highest_to_lowest(self):
        for (n, lam) in [(3, (2, 1)), (4, (2, 2))]:
            g = build_crystal(n, lam)
            for comp in decompose_normal(g):
                assert comp["normal"]
                src = comp["sources"][0]
                xi = schutzenberger(g)
                snk = xi[src]
                assert all(g.f(i, snk) is None for i in g.indices)

    def test_rejects_non_normal(self):
        # a 2-cycle of raising operators has no source at all
        from krspectra.tableaux import CrystalGraph

        a, b = "a", "b"
        broken = CrystalGraph(
            3,
            [a, b],
            {1: {a: b}, 2: {b: a}},
            {1: {b: a}, 2: {a: b}},
            {a: (1, 0, 0), b: (0, 1, 0)},
        )
        with pytest.raises(CrystalError):
            schutzenberger(broken)


class TestEvacuation:
    def test_matches_graph_involution_on_rectangles(self):
        from krspectra.promotion import evacuation

        for (n, lam) in [(2, (1,)), (4, (2, 2)), (3, (2, 2)), (5, (1, 1, 1))]:
            g = build_crystal(n, lam)
            xi = schutzenberger(g)
            for b in g.elements:
                assert evacuation(b) == xi[b], (n, lam, b)

    def test_matches_graph_involution_on_skew_rectification(self):
        from krspectra.promotion import evacuation

        for (n, lam) in [(3, (2, 1)), (4, (3, 1)), (4, (2, 2, 1))]:
            g = build_crystal(n, lam)
            xi = schutzenberger(g)
            for b in g.elements:
                assert evacuation(b) == xi[b], (n, lam, b)

    def test_involutive(self):
        from krspectra.promotion import evacuation

        g = build_crystal(3, (2, 1))
        for b in g.elements:
            assert evacuation(evacuation(b)) == b


class TestPhi:
    def test_phi_equals_promotion_on_2w2(self):
        g = build_crystal(4, (2, 2))
        phi = phi_operator(g)
        for b in g.elements:
            assert phi[b] == promote(b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi_equals_promotion_on_wedges(self, n):
        for r in range(1, n):
            g = build_crystal(n, (1,) * r)
            phi = phi_operator(g)
            for b in g.elements:
                assert phi[b] == promote(b)

    def test_phi_intertwines_on_non_rectangle(self):
        # on B_(2,1), n=3 the composition still satisfies phi e_1 = e_2 phi
        g = build_crystal(3, (2, 1))
        phi = phi_operator(g)
        for b in g.elements:
            e1 = g.e(1, b)
            if e1 is not None:
                assert phi[e1] == g.e(2, phi[b])


class TestBuildKR:
    def test_e0_on_wedge_n2(self):
        kr = build_kr(2, 1, 1)
        one, two = tab([[1]], 2), tab([[2]], 2)
        assert kr.e(0, one) == two
        assert kr.f(0, two) == one

    def test_e0_via_frozen_orbits(self):
        # e_[0] = pr^{-1} o e_1 o pr computed through the frozen table only
        kr = build_kr(4, 2, 2)
        table = frozen_pr_map()
        inv = {v: k for k, v in table.items()}
        for t in table:
            image = e_op(1, table[t])
            expected = inv[image] if image is not None else None
            assert kr.e(0, t) == expected

    def test_views_are_normal_for_2w2(self):
        kr = build_kr(4, 2, 2)
        comps = decompose_normal(kr.view(1))
        assert all(c["normal"] for c in comps)

    def test_invariants_verified_on_construction(self):
        for (n, l, r) in [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 1, 2), (4, 2, 2)]:
            kr = build_kr(n, l, r)
            assert kr.check_invariants() is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_check_invariants_rejects_corruptions(self, n):
        kr = build_kr(n, 2, 1)

        def corrupted(edit):
            e_maps = {j: dict(m) for j, m in kr.e_maps.items()}
            f_maps = {j: dict(m) for j, m in kr.f_maps.items()}
            wt = dict(kr.wt)
            edit(e_maps, f_maps, wt)
            with pytest.raises(CrystalError):
                AffineCrystal(n, kr.elements, e_maps, f_maps, wt)
            return AffineCrystal(n, kr.elements, e_maps, f_maps, wt, check=False)

        def drop_e0(e_maps, f_maps, wt):
            del e_maps[0][next(iter(e_maps[0]))]

        assert corrupted(drop_e0).check_invariants() is not None
        for j in range(n):
            b, eb = next(iter(kr.e_maps[j].items()))
            other = next(c for c in kr.elements if c not in (b, eb))

            def retarget(e_maps, f_maps, wt):
                e_maps[j][b] = other

            def bump(e_maps, f_maps, wt):
                w = list(wt[eb])
                w[j] += 1
                wt[eb] = tuple(w)

            assert corrupted(retarget).check_invariants() is not None
            assert corrupted(bump).check_invariants() is not None

    def test_pr_intertwining(self):
        # pr e_i = e_{i+1} pr for i = 1..n-2
        n = 4
        g = build_crystal(n, (2, 2))
        for b in g.elements:
            for i in range(1, n - 1):
                ei = g.e(i, b)
                lhs = promote(ei) if ei is not None else None
                rhs = g.e(i + 1, promote(b))
                assert lhs == rhs

    def test_wt_of_promotion_rotates(self):
        g = build_crystal(4, (2, 2))
        for b in g.elements:
            w = g.wt[b]
            pw = promote(b).content()
            assert pw == tuple(w[(i - 1) % 4] for i in range(4))


class TestVerifyUniqueness:
    def test_4_2_2_passes(self):
        rep = verify_uniqueness(4, (2, 2))
        assert rep["passed"] and rep["extendable"]

    def test_3_1_1_passes(self):
        rep = verify_uniqueness(3, (1,))
        assert rep["passed"]

    def test_non_rectangular_reported(self):
        rep = verify_uniqueness(3, (2, 1))
        assert not rep["extendable"]
        assert rep["passed"]
        assert rep["promotion_order"] != 3

    def test_is_rectangle(self):
        assert is_rectangle((2, 2))
        assert not is_rectangle((2, 1))
