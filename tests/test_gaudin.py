import re
from fractions import Fraction
from itertools import permutations

import pytest

from krspectra.gaudin import (
    CommutingFamily,
    GaudinConfig,
    GaudinError,
    gaudin_cdet,
    gaudin_operator_matrix,
    invariance_check,
    lax_matrix,
    residue_generators,
    residue_members,
    wall_family,
)
from krspectra.glrep import build_defining, build_irrep, build_tensor
from krspectra.scalars import Mat, QQi, RatFun

from oracles import (
    apply,
    center_members,
    commutator,
    commutes,
    lax_oracle,
    leak,
    manin_cdet_trace_identity,
    manin_relations_check,
    monomial,
    pole_term,
    scaled_config,
    sgn,
    spans_equal,
)


def kron_pair(n):
    """Independent Kronecker-product embeddings for a two-factor C^n tensor."""
    ident = Mat.identity(n)

    def A(a, b):
        return Mat.unit(n, n, a - 1, b - 1).kron(ident)

    def B(a, b):
        return ident.kron(Mat.unit(n, n, a - 1, b - 1))

    return A, B


def c2_pair_config(chi=(Fraction(1, 3), Fraction(-1, 5)), z=(0, 1)):
    c2 = build_defining(2)
    rep = build_tensor([(c2, QQi(z[0]), QQi(0)), (c2, QQi(z[1]), QQi(0))])
    return GaudinConfig(rep, chi)


class TestLax:
    def test_entry_formula_single_factor(self):
        c2 = build_defining(2)
        rep = build_tensor([(c2, QQi(5), QQi(0))])
        cfg = GaudinConfig(rep, (0, 0))
        lax = lax_matrix(cfg)
        e11 = rep.e_slot(0, 1, 1)
        assert lax[0][0] == pole_term(e11, QQi(5))

    def test_residue_is_slot_generator(self):
        cfg = c2_pair_config(chi=(0, 0))
        lax = lax_matrix(cfg)
        for a in range(2):
            for b in range(2):
                assert lax[a][b].residue(QQi(0), 0) == cfg.rep.e_slot(0, a + 1, b + 1)

    def test_far_field_first_order(self):
        # u*L(u) -> sum_i E^{(i)} as u -> infinity
        cfg = c2_pair_config(chi=(0, 0))
        lax = lax_matrix(cfg)
        for a in range(2):
            for b in range(2):
                f = lax[a][b] * monomial(Mat.identity(cfg.rep.dim), 1)
                assert f.infinity_value() == cfg.rep.delta(a + 1, b + 1)


    def test_closed_form_equals_the_sum_of_pole_terms(self):
        # the wedge ^3 C^3 is one-dimensional, and its E_ab vanish for a != b,
        # so the off-diagonal entries have no pole at its point
        c3, top = build_defining(3), build_irrep(3, 1, 3)
        sym = build_irrep(3, 2, 1)
        chi = (Fraction(1, 3), 0, Fraction(-2, 7))
        for factors in (
            [(c3, QQi(0), QQi(0)), (top, QQi(Fraction(1, 2)), QQi(0))],
            [(top, QQi(-1), QQi(0)), (c3, QQi(0, 2), QQi(0)), (sym, QQi(3), QQi(0))],
            [(top, QQi(2), QQi(0))],
        ):
            cfg = GaudinConfig(build_tensor(factors), chi)
            # the Lax matrix of a zero-chi config is the bare sum of pole terms
            zero = GaudinConfig(cfg.rep, (0, 0, 0))
            for config, shift in ((zero, None), (cfg, cfg.chi)):
                got, want = lax_matrix(config), lax_oracle(config, shift)
                for a in range(3):
                    for b in range(3):
                        assert got[a][b] == want[a][b], (a, b)
                        assert got[a][b].poles == want[a][b].poles, (a, b)
            assert [e.coeff(0) for e in gaudin_operator_matrix(cfg)[1]] == lax_oracle(cfg, chi)[1]


class TestCdet:
    def test_n1_coefficients(self):
        c1 = build_defining(1)
        rep = build_tensor([(c1, QQi(0), QQi(0))])
        cfg = GaudinConfig(rep, (Fraction(1, 7),))
        op = gaudin_cdet(cfg)
        ident = Mat.identity(1)
        assert op.coeff(1) == RatFun.const(-ident)
        expected = pole_term(ident, QQi(0)) + RatFun.const(
            ident * QQi(Fraction(-1, 7))
        )
        assert op.coeff(0) == expected

    def test_n2_top_coefficient_is_identity(self):
        cfg = c2_pair_config()
        op = gaudin_cdet(cfg)
        assert op.coeff(2) == RatFun.const(Mat.identity(4))

    def test_n5_one_point_matches_the_applied_leibniz_sum(self):
        # the literal sum over the 120 permutations, each product applied
        # to u^m right to left, against the normal-ordered cdet
        n = 5
        rep = build_tensor([(build_defining(n), QQi(Fraction(1, 2)), QQi(0))])
        cfg = GaudinConfig(rep, (Fraction(1, 3), 0, Fraction(-1, 5), 2, Fraction(1, 7)))
        op = gaudin_cdet(cfg)
        entries = gaudin_operator_matrix(cfg)
        ident = Mat.identity(n)
        for m in range(n + 1):
            mono = monomial(ident, m)
            want = []
            for sigma in permutations(range(n)):
                f = mono
                for col in reversed(range(n)):
                    f = apply(entries[sigma[col]][col], f)
                want.append(f if sgn(sigma) > 0 else -f)
            assert apply(op, mono) == RatFun.sum(want)


class TestQuadraticHamiltonianOracle:
    """The independent hand expansion of the four cdet terms, frozen.

    For n=2, k=2 on C^2 x C^2 with points z1, z2:
      res_{u=z1} b_0 =
        [A11 B22 + A22 B11 - A21 B12 - A12 B21]/(z1-z2) - chi2 A11 - chi1 A22
    (A = slot-1 embedding, B = slot-2).  Equivalently it differs from the
    twisted quadratic Hamiltonian Omega/(z1-z2) + chi2 A11 + chi1 A22 by sign
    and the central (tr E)^(1)(tr E)^(2)/(z1-z2).
    """

    def expected_r0(self, chi, z12):
        A, B = kron_pair(2)
        inv = QQi(z12).inverse()
        main = (
            A(1, 1) * B(2, 2)
            + A(2, 2) * B(1, 1)
            - A(2, 1) * B(1, 2)
            - A(1, 2) * B(2, 1)
        ) * inv
        return main - A(1, 1) * QQi(chi[1]) - A(2, 2) * QQi(chi[0])

    def test_residue_matches_hand_formula(self):
        chi = (Fraction(1, 3), Fraction(-1, 5))
        cfg = c2_pair_config(chi=chi)
        op = gaudin_cdet(cfg)
        b0 = op.coeff(0)
        assert b0.residue(QQi(0), 0) == self.expected_r0(chi, Fraction(-1))

    def test_relation_to_twisted_hamiltonian(self):
        chi = (Fraction(1, 3), Fraction(-1, 5))
        cfg = c2_pair_config(chi=chi)
        r0 = gaudin_cdet(cfg).coeff(0).residue(QQi(0), 0)
        A, B = kron_pair(2)
        inv = QQi(-1).inverse()
        omega = sum(
            (A(a, b) * B(b, a) for a in (1, 2) for b in (1, 2)),
            Mat.zeros(4),
        )
        h_twisted = omega * inv + A(1, 1) * QQi(chi[1]) + A(2, 2) * QQi(chi[0])
        central = (A(1, 1) + A(2, 2)) * (B(1, 1) + B(2, 2)) * inv
        assert r0 == -h_twisted + central


class TestResidueGenerators:
    def test_singleton_family(self):
        c1 = build_defining(1)
        rep = build_tensor([(c1, QQi(0), QQi(0))])
        fam = residue_generators(GaudinConfig(rep, (Fraction(1, 2),)))
        assert len(fam) >= 1
        assert fam.verify_commuting() is None

    def test_n2_k2_all_pairs_commute(self):
        fam = residue_generators(c2_pair_config())
        assert fam.verify_commuting() is None
        assert len(fam) >= 4

    def test_negative_control(self):
        cfg = c2_pair_config()
        fam = residue_generators(cfg)
        bad = cfg.rep.e_slot(0, 1, 2)
        broken = [g + bad for g in fam.gens[:1]] + fam.gens[1:]
        assert any(
            commutator(broken[0], g) for g in broken[1:]
        )

    def test_constructor_rejects_noncommuting(self):
        cfg = c2_pair_config()
        bad = cfg.rep.e_slot(0, 1, 2)
        good = cfg.rep.e_slot(0, 2, 1)
        with pytest.raises(GaudinError):
            CommutingFamily([(("x",), bad), (("y",), good)], cfg, "broken")


    def test_first_failing_pair_is_reported_when_it_is_the_last_pair(self):
        cfg = c2_pair_config()
        ident = Mat.identity(cfg.rep.dim)
        # E_12 x E_21 and E_21 x E_12 keep every weight, and do not commute
        x = cfg.rep.e_slot(0, 1, 2) * cfg.rep.e_slot(1, 2, 1) * QQi(0, Fraction(1, 10**20 + 39))
        y = cfg.rep.e_slot(0, 2, 1) * cfg.rep.e_slot(1, 1, 2)
        members = [(("id",), ident), (("s",), ident * QQi(2, 1)),
                   (("t",), ident * QQi(Fraction(-5, 7))), (("x",), x), (("y",), y)]
        with pytest.raises(GaudinError, match=re.escape("(('x',), ('y',))")):
            CommutingFamily(members, cfg, "broken")

    @pytest.mark.parametrize("member", [0, 1, 2])
    def test_one_perturbed_entry_is_refused(self, member):
        # the perfbench `gaudin-perturbed` control: one exact extra entry
        cfg = c2_pair_config(chi=(Fraction(1, 3), Fraction(-1, 4)))
        members = residue_generators(cfg).members()
        tag, g = members[member]
        i, j = member % 4, (member + 1) % 4
        members[member] = (tag, g + Mat.unit(g.nr, g.nc, i, j, QQi(Fraction(1, 7))))
        with pytest.raises(GaudinError):
            CommutingFamily(members, cfg, "gaudin-perturbed")


    def test_a_member_that_moves_a_weight_is_refused_by_tag(self):
        # basis vectors 0 and 1 of C^2 x C^2 carry the weights (2, 0) and (1, 1)
        cfg = c2_pair_config()
        members = residue_generators(cfg).members()
        tag, g = members[1]
        members[1] = (tag, g + Mat.unit(g.nr, g.nc, 0, 1, QQi(Fraction(1, 7))))
        with pytest.raises(GaudinError, match=re.escape(f"member {tag} moves a weight")):
            CommutingFamily(members, cfg, "gaudin-moved")

    def test_report_states_the_certificate(self):
        cfg = c2_pair_config()
        fam = residue_generators(cfg)
        m = len(fam)
        cert = fam.report()["commutator_certificate"]
        assert cert["pairs"] == m * (m - 1) // 2
        assert cert["limbs"] >= 1 and cert["limb_bits"] >= 2
        assert cert["bound_bits"] <= cert["exact_below_bits"] == 53


class TestInvariance:
    def test_regular_chi_commutes_with_torus(self):
        fam = residue_generators(c2_pair_config())
        rep = invariance_check(fam)
        assert rep["passed"]

    def test_subregular_sl2_invariance(self):
        cfg = c2_pair_config(chi=(Fraction(1, 3), Fraction(1, 3)))
        fam = residue_generators(cfg)
        rep = invariance_check(fam)
        # chi1 = chi2: the full gl_2 centralizer, including Delta(E_12)
        assert rep["passed"]
        assert (1, 2) in rep["checked_centralizer_basis"]

    def test_zero_chi_full_invariance(self):
        cfg = c2_pair_config(chi=(0, 0))
        fam = residue_generators(cfg)
        assert invariance_check(fam)["passed"]

    def test_generators_of_a_regular_chi_fail_a_subregular_centralizer(self):
        # the residue generators of chi = (1/3, -1/4, 1/5) on n=3 (1,1)(1,1),
        # checked against the centralizer of chi = (1/3, 1/3, 1/5): Delta(E_12)
        # and Delta(E_21) join the check, and the certificate must refuse them
        # exactly where the literal commutator does
        c3 = build_defining(3)
        rep = build_tensor([(c3, QQi(0), QQi(0)), (c3, QQi(1), QQi(0))])
        regular = GaudinConfig(rep, (Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)))
        sub = GaudinConfig(rep, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 5)))
        fam = CommutingFamily(residue_members(regular), sub, "gaudin")
        inv = invariance_check(fam)
        assert inv["checked_centralizer_basis"] == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
        want = [
            {"generator": list(map(str, tag)), "x": x}
            for x in inv["checked_centralizer_basis"]
            for tag, g in zip(fam.tags, fam.gens)
            if not commutes(g, rep.delta(*x))
        ]
        assert not inv["passed"] and len(inv["failures"]) == 8
        assert inv["failures"] == want
        assert {f["x"] for f in want} == {(1, 2), (2, 1)}
        # the Delta(E_aa) are checked on the weight spaces, Delta(E_12) and
        # Delta(E_21) on the strings along e_1 - e_2
        certs = inv["certificates"]
        assert [c["route"] for c in certs] == [
            "float64 limb products on weight spaces, int64 carries",
            "float64 limb products on strings along e_1 - e_2, int64 carries",
        ]
        assert [c["pairs"] for c in certs] == [len(fam) * 3, len(fam) * 2]
        assert all(c["bound_bits"] <= c["exact_below_bits"] == 53 for c in certs)
        # the family's own chi passes
        assert invariance_check(residue_generators(regular))["passed"]


    def test_strings_are_unions_of_weight_spaces_smaller_than_the_class(self):
        # chi = 0 puts 1, 2, 3 in one class, whose sum is the same on every
        # weight of C^3 x C^3; the strings along e_1 - e_2 are keyed by
        # (w_1 + w_2, w_3) and hold 4, 4 and 1 basis vectors
        c3 = build_defining(3)
        rep = build_tensor([(c3, QQi(0), QQi(0)), (c3, QQi(1), QQi(0))])
        blocks = rep.coset_chains(1, 2)
        assert sorted(map(len, blocks.parts)) == [1, 4, 4]
        for part in rep.weight_blocks.parts:
            assert len({blocks.of[i] for i in part}) == 1
        for a, b in [(1, 2), (2, 1), (1, 1), (3, 3)]:
            assert leak(blocks, rep.delta(a, b)) is None
        assert leak(blocks, rep.delta(1, 3)) is not None
        fam = residue_generators(GaudinConfig(rep, (0, 0, 0)))
        inv = invariance_check(fam)
        assert inv["passed"] and len(inv["checked_centralizer_basis"]) == 9
        assert [c["route"].split(" on ")[1] for c in inv["certificates"]] == [
            "weight spaces, int64 carries",
            "strings along e_1 - e_2, int64 carries",
            "strings along e_1 - e_3, int64 carries",
            "strings along e_2 - e_3, int64 carries",
        ]

    def test_a_delta_that_leaves_its_blocks_is_refused(self, monkeypatch):
        # basis vectors 0 and 2 of C^3 x C^3 carry the weights (2, 0, 0) and
        # (1, 0, 1), on different strings along e_1 - e_2; a Delta(E_12) or
        # Delta(E_21) with an entry between them would be read wrongly by
        # the certificate, so the check raises before it runs
        c3 = build_defining(3)
        rep = build_tensor([(c3, QQi(0), QQi(0)), (c3, QQi(1), QQi(0))])
        chi = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 5))
        fam = residue_generators(GaudinConfig(rep, chi))
        delta = rep.delta

        def broken(a, b):
            d = delta(a, b)
            return d + Mat.unit(rep.dim, rep.dim, 0, 2, QQi(1)) if a != b else d

        monkeypatch.setattr(rep, "delta", broken)
        want = "(1, 2), leaves the strings along e_1 - e_2: entry (0, 2)"
        with pytest.raises(GaudinError, match=re.escape(want)):
            invariance_check(fam)

    def test_a_diagonal_delta_that_moves_a_weight_is_refused(self, monkeypatch):
        # basis vectors 0 and 1 of C^2 x C^2 carry the weights (2, 0) and (1, 1)
        cfg = c2_pair_config()
        fam = residue_generators(cfg)
        rep = cfg.rep
        delta = rep.delta
        monkeypatch.setattr(rep, "delta", lambda a, b: delta(a, b) + Mat.unit(4, 4, 0, 1, QQi(1)))
        with pytest.raises(GaudinError, match="leaves the weight spaces: entry \\(0, 1\\)"):
            invariance_check(fam)


class TestWallFamily:
    def test_homogeneous_gaudin_plus_h(self):
        cfg = c2_pair_config(chi=(0, 0))
        fam = wall_family(cfg)
        assert ("h", 1, 2) in fam.tags
        assert fam.verify_commuting() is None

    def test_h_commutes_at_subregular(self):
        cfg = c2_pair_config(chi=(Fraction(2, 7), Fraction(2, 7)))
        fam = wall_family(cfg)
        assert fam.verify_commuting() is None

    def test_rejects_regular_chi(self):
        with pytest.raises(GaudinError):
            wall_family(c2_pair_config())

    def test_rejects_a_triple_coincidence(self):
        c3 = build_defining(3)
        rep = build_tensor([(c3, QQi(0), QQi(0)), (c3, QQi(1), QQi(0))])
        with pytest.raises(GaudinError):
            wall_family(GaudinConfig(rep, (Fraction(1, 2),) * 3))

    def test_torus_center_members_commute(self):
        cfg = c2_pair_config(chi=(Fraction(2, 7), Fraction(2, 7)))
        fam = wall_family(cfg)
        fam2 = CommutingFamily(
            fam.members() + center_members(cfg.rep, cfg.chi_classes()), cfg, "gaudin-wall"
        )
        assert fam2.verify_commuting() is None


class TestManin:
    def test_relations_n2(self):
        c2 = build_defining(2)
        rep = build_tensor([(c2, QQi(0), QQi(0))])
        cfg = GaudinConfig(rep, (Fraction(1, 3), Fraction(-1, 2)))
        assert manin_relations_check(cfg)["passed"]

    def test_trace_identity_n2(self):
        cfg = c2_pair_config()
        assert manin_cdet_trace_identity(cfg)

    def test_trace_identity_n3(self):
        c3 = build_defining(3)
        rep = build_tensor([(c3, QQi(0), QQi(0))])
        cfg = GaudinConfig(rep, (Fraction(1, 2), Fraction(1, 5), Fraction(-1, 3)))
        assert manin_cdet_trace_identity(cfg)


class TestEquivariance:
    def test_translation_invariance_of_generators(self):
        cfg = c2_pair_config()
        fam = residue_generators(cfg)
        # every point translated by 3/2, by hand
        fam_shifted = residue_generators(c2_pair_config(z=(Fraction(3, 2), Fraction(5, 2))))
        assert fam.tags == fam_shifted.tags
        for g, h in zip(fam.gens, fam_shifted.gens):
            assert g == h

    def test_scaling_span_identity(self):
        # A_{s chi}(z) = A_chi(s z + c): compare spans with identity adjoined
        s, c = Fraction(3), Fraction(1, 2)
        chi = (Fraction(1, 3), Fraction(-1, 5))
        cfg1 = c2_pair_config(chi=tuple(s * x for x in chi))
        fam1 = residue_generators(cfg1)
        # the points s z, translated by c by hand
        scaled = scaled_config(c2_pair_config(chi=chi), s)
        cfg2 = GaudinConfig(build_tensor([(r, z + c, d) for r, z, d in scaled.rep.factors]), chi)
        fam2 = residue_generators(cfg2)
        ident = Mat.identity(4)
        assert spans_equal(fam1.gens + [ident], fam2.gens + [ident])
