from operator import sub

import numpy as np
import pytest

import krspectra.promotion as promotion
from krspectra.promotion import (
    affine_extension,
    build_kr,
    cycles,
    is_rectangle,
    promote,
    promotion_map,
    promotion_order,
    verify_uniqueness,
    view,
)
from krspectra.tableaux import (
    CrystalError,
    CrystalGraph,
    Tableau,
    build_crystal,
    coroot_vector,
    decompose_normal,
)

from oracles import content, e_op, evacuation, graph_e, graph_f, phi_operator, schutzenberger


def tab(rows, n=4):
    return Tableau(rows, n)


# the KR crystals B_{l w_r} of the uniqueness grid (acceptance criterion 2)
GRID = [
    (n, l, r) for n in range(2, 6) for l in range(1, 4) for r in range(1, n + 1)
]


def order_of(n, lam):
    """The promotion order of B_lam, from its one promotion map."""
    return promotion_order(cycles(promotion_map(build_crystal(n, lam))))


def certificate(n, lam):
    """verify_uniqueness on B_lam, its promotion map and, for a rectangle, its
    affine extension."""
    graph = build_crystal(n, lam)
    pr = promotion_map(graph)
    kr = affine_extension(graph, pr) if is_rectangle(lam) else None
    return verify_uniqueness(graph, pr, kr)


def first_edge(crys, j):
    """The e_[j] edge (b, e_[j] b) of the smallest id b that has one."""
    return next((b, eb) for b, eb in enumerate(crys.E[crys.row(j)].tolist()) if eb >= 0)


def axiom_oracle(crys):
    """The per-edge loop that `check_axioms` replaced: the first witness
    (kind, i, id), index by index, f-pairing of every id before the
    e-pairing and weight of every id."""
    wt = crys.wt.tolist()
    for r, i in enumerate(crys.indices):
        fmap, emap = crys.F[r].tolist(), crys.E[r].tolist()
        alpha = list(coroot_vector(crys.n, i))
        for b, fb in enumerate(fmap):
            if fb >= 0 and emap[fb] != b:
                return ("pairing", i, b)
        for b, eb in enumerate(emap):
            if eb < 0:
                continue
            if fmap[eb] != b:
                return ("pairing", i, b)
            if list(map(sub, wt[eb], wt[b])) != alpha:
                return ("weight", i, b)
    return None


def some_view_fails(crys):
    """The verdict of the rotated classical views, one check per view."""
    return any(view(crys, j).check_axioms() is not None for j in range(crys.n))


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
        assert order_of(4, (2, 2)) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fundamental_orders(self, n):
        for r in range(1, n + 1):
            assert order_of(n, (1,) * r) == n or (
                len(build_crystal(n, (1,) * r)) == 1
            )

    def test_non_rectangular(self):
        assert order_of(3, (2, 1)) != 3


class TestSchutzenberger:
    def test_w1_n2_swap(self):
        g = build_crystal(2, (1,))
        xi = schutzenberger(g)
        one, two = g.id(tab([[1]], 2)), g.id(tab([[2]], 2))
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
                assert all(graph_f(g, i, snk) is None for i in g.indices)

    def test_rejects_non_normal(self):
        # a 2-cycle of raising operators has no source at all
        from krspectra.tableaux import CrystalGraph

        a, b = 0, 1
        broken = CrystalGraph(
            3,
            ["a", "b"],
            [[b, -1], [-1, a]],
            [[-1, a], [b, -1]],
            [(1, 0, 0), (0, 1, 0)],
        )
        with pytest.raises(CrystalError):
            schutzenberger(broken)


class TestEvacuation:
    def test_matches_graph_involution_on_rectangles(self):
        for (n, lam) in [(2, (1,)), (4, (2, 2)), (3, (2, 2)), (5, (1, 1, 1))]:
            g = build_crystal(n, lam)
            xi = schutzenberger(g)
            for b in g.elements:
                assert evacuation(g.labels[b]) == g.labels[xi[b]], (n, lam, b)

    def test_matches_graph_involution_on_skew_rectification(self):
        for (n, lam) in [(3, (2, 1)), (4, (3, 1)), (4, (2, 2, 1))]:
            g = build_crystal(n, lam)
            xi = schutzenberger(g)
            for b in g.elements:
                assert evacuation(g.labels[b]) == g.labels[xi[b]], (n, lam, b)

    def test_involutive(self):
        g = build_crystal(3, (2, 1))
        for b in g.labels:
            assert evacuation(evacuation(b)) == b


class TestPhi:
    def test_phi_equals_promotion_on_2w2(self):
        g = build_crystal(4, (2, 2))
        phi = phi_operator(g)
        for b in g.elements:
            assert g.labels[phi[b]] == promote(g.labels[b])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi_equals_promotion_on_wedges(self, n):
        for r in range(1, n):
            g = build_crystal(n, (1,) * r)
            phi = phi_operator(g)
            for b in g.elements:
                assert g.labels[phi[b]] == promote(g.labels[b])

    def test_phi_intertwines_on_non_rectangle(self):
        # on B_(2,1), n=3 the composition still satisfies phi e_1 = e_2 phi
        g = build_crystal(3, (2, 1))
        phi = phi_operator(g)
        for b in g.elements:
            e1 = graph_e(g, 1, b)
            if e1 is not None:
                assert phi[e1] == graph_e(g, 2, phi[b])


class TestBuildKR:
    def test_e0_on_wedge_n2(self):
        kr = build_kr(2, 1, 1)
        one, two = kr.id(tab([[1]], 2)), kr.id(tab([[2]], 2))
        assert graph_e(kr, 0, one) == two
        assert graph_f(kr, 0, two) == one

    def test_e0_via_frozen_orbits(self):
        # e_[0] = pr^{-1} o e_1 o pr computed through the frozen table only
        kr = build_kr(4, 2, 2)
        table = frozen_pr_map()
        inv = {v: k for k, v in table.items()}
        for t in table:
            image = e_op(1, table[t])
            expected = kr.id(inv[image]) if image is not None else None
            assert graph_e(kr, 0, kr.id(t)) == expected

    def test_views_are_normal_for_2w2(self):
        kr = build_kr(4, 2, 2)
        comps = decompose_normal(view(kr, 1))
        assert all(c["normal"] for c in comps)

    def test_view0_is_the_classical_crystal_on_the_grid(self):
        # so verify_uniqueness reports view0_isomorphic as the literal True
        for (n, l, r) in GRID:
            graph = build_crystal(n, (l,) * r)
            v0 = view(affine_extension(graph, promotion_map(graph)), 0)
            assert v0.indices == graph.indices
            assert np.array_equal(v0.E, graph.E) and np.array_equal(v0.F, graph.F)
            assert np.array_equal(v0.wt, graph.wt), (n, l, r)

    def test_invariants_verified_on_construction(self):
        for (n, l, r) in [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 1, 2), (4, 2, 2)]:
            kr = build_kr(n, l, r)
            assert kr.indices == tuple(range(n))
            assert kr.check_axioms() is None

    def test_build_kr_checks_its_axioms(self, monkeypatch):
        # with promotion replaced by the identity, e_[0] is a copy of e_1
        # and every e_[0] edge has the wrong weight
        monkeypatch.setattr(promotion, "promote", lambda t: t)
        with pytest.raises(CrystalError):
            build_kr(3, 1, 1)

    def test_promotion_map_must_be_a_bijection(self, monkeypatch):
        graph = build_crystal(3, (1,))
        first = graph.labels[0]
        monkeypatch.setattr(promotion, "promote", lambda t: first)
        with pytest.raises(CrystalError):
            promotion_map(graph)

    def test_one_pass_agrees_with_the_views_on_the_grid(self):
        for (n, l, r) in GRID:
            kr = build_kr(n, l, r)
            assert kr.check_axioms() is None, (n, l, r)
            assert not some_view_fails(kr), (n, l, r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_check_invariants_rejects_corruptions(self, n):
        kr = build_kr(n, 2, 1)

        def corrupted(edit):
            E, F, wt = kr.E.copy(), kr.F.copy(), kr.wt.copy()
            edit(E, F, wt)
            crys = CrystalGraph(n, kr.labels, E, F, wt, indices=kr.indices)
            # the one pass flags a crystal iff some rotated view does
            assert (crys.check_axioms() is not None) == some_view_fails(crys)
            assert crys.check_axioms() == axiom_oracle(crys)
            return crys

        def drop_e0(E, F, wt):
            E[kr.row(0), first_edge(kr, 0)[0]] = -1

        assert corrupted(drop_e0).check_axioms() is not None
        for j in range(n):
            b, eb = first_edge(kr, j)
            other = next(c for c in kr.elements if c not in (b, eb))

            def retarget(E, F, wt):
                E[kr.row(j), b] = other

            def bump(E, F, wt):
                wt[eb, j] += 1

            assert corrupted(retarget).check_axioms() is not None
            assert corrupted(bump).check_axioms() is not None
            # a retargeted e_j breaks index j alone
            crys = corrupted(retarget)
            for i in kr.indices:
                witness = crys.check_axioms(indices=[i])
                assert witness == (crys.check_axioms() if i == j else None), (i, j)

    def test_cached_crystal_is_shared_and_read_only(self):
        kr = build_kr(3, 2, 1)
        assert build_kr(3, 2, 1) is kr
        assert build_kr(3, 1, 2) is not kr
        for a in (kr.E, kr.F, kr.wt):
            with pytest.raises(ValueError):
                a[0, 0] = 0
        with pytest.raises(TypeError):
            kr.labels[0] = kr.labels[1]
        with pytest.raises(AttributeError):
            kr.labels.append(kr.labels[0])
        assert type(kr.labels) is tuple and type(kr.indices) is tuple

    def test_pr_intertwining(self):
        # pr e_i = e_{i+1} pr for i = 1..n-2
        n = 4
        g = build_crystal(n, (2, 2))
        for b in g.elements:
            for i in range(1, n - 1):
                ei = graph_e(g, i, b)
                lhs = g.id(promote(g.labels[ei])) if ei is not None else None
                rhs = graph_e(g, i + 1, g.id(promote(g.labels[b])))
                assert lhs == rhs

    def test_wt_of_promotion_rotates(self):
        g = build_crystal(4, (2, 2))
        for b in g.elements:
            w = g.wt[b]
            pw = content(promote(g.labels[b]))
            assert pw == tuple(w[(i - 1) % 4] for i in range(4))


def axiom_cases():
    """Crystals for the weight axiom: KR crystals, a classical crystal, a
    product, a two-element n = 1 crystal (alpha_0 = 0) and an empty one."""
    from krspectra.tensorcrystal import tensor

    yield from (build_kr(n, l, r) for n, l, r in [(1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 1, 2), (5, 2, 2)])
    yield build_crystal(4, (2, 1))
    yield tensor(build_kr(3, 1, 1), build_kr(3, 1, 2))
    yield CrystalGraph(1, ("a", "b"), [[-1, 0]], [[1, -1]], [[0], [0]], indices=[0])
    yield CrystalGraph(3, [], np.empty((2, 0)), np.empty((2, 0)), np.empty((0, 3)))


def only_index(crys, i):
    """The crystal with the operators of index i alone."""
    r = crys.row(i)
    return CrystalGraph(crys.n, crys.labels, crys.E[[r]], crys.F[[r]], crys.wt, indices=[i])


class TestWeightAxiomByColumns:
    """check_axioms runs the weight axiom one coordinate at a time; the
    per-edge loop `axiom_oracle` gives the same first witness."""

    @pytest.mark.parametrize("case", range(7))
    def test_seeded_corruptions_give_the_oracles_witness(self, case):
        rng = np.random.default_rng(case)
        witnesses = set()
        for crys in axiom_cases():
            assert crys.check_axioms() is None is axiom_oracle(crys)
            k, size = crys.E.shape
            if not (k and size):
                continue
            for _ in range(12):
                E, F, wt = crys.E.copy(), crys.F.copy(), crys.wt.copy()
                where = (rng.integers(k), rng.integers(size))
                what = rng.integers(3)
                if what == 0:
                    E[where] = rng.integers(-1, size)
                elif what == 1:
                    F[where] = rng.integers(-1, size)
                else:
                    wt[where[1], rng.integers(crys.n)] += rng.choice([-1, 1])
                bad = CrystalGraph(crys.n, crys.labels, E, F, wt, indices=crys.indices)
                witness = bad.check_axioms()
                assert witness == axiom_oracle(bad), (crys.n, len(crys), what)
                witnesses.add(witness and witness[0])
        assert "weight" in witnesses

    def test_affine_index_0_alone(self):
        for n, l, r in [(1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2)]:
            kr = build_kr(n, l, r)
            wt = kr.wt.copy()
            # the target of the first e_[0] edge; n = 1 has no edge at all
            wt[first_edge(kr, 0)[1] if n > 1 else 0, 0] += 1
            bad = CrystalGraph(n, kr.labels, kr.E, kr.F, wt, indices=kr.indices)
            witness = bad.check_axioms(indices=[0])
            assert witness == axiom_oracle(only_index(bad, 0)), (n, l, r)
            assert (witness is None) == (n == 1), (n, l, r)

    def test_n1_and_the_empty_crystal(self):
        *_, one, empty = axiom_cases()
        assert one.check_axioms() is None and empty.check_axioms() is None
        assert empty.check_axioms(indices=[1]) is None
        wt = one.wt.copy()
        wt[1, 0] = 1
        bad = CrystalGraph(1, one.labels, one.E, one.F, wt, indices=[0])
        assert bad.check_axioms() == ("weight", 0, 1) == axiom_oracle(bad)
        assert CrystalGraph(1, ("a",), [], [], [[0]]).check_axioms() is None


class TestVerifyUniqueness:
    def test_4_2_2_passes(self):
        rep = certificate(4, (2, 2))
        assert rep["passed"] and rep["extendable"]

    def test_3_1_1_passes(self):
        rep = certificate(3, (1,))
        assert rep["passed"]

    def test_non_rectangular_reported(self):
        rep = certificate(3, (2, 1))
        assert not rep["extendable"]
        assert rep["passed"]
        assert rep["promotion_order"] != 3

    def test_is_rectangle(self):
        assert is_rectangle((2, 2))
        assert not is_rectangle((2, 1))
