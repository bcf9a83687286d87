from fractions import Fraction

import pytest

from krspectra.bethe import (
    BetheError,
    BetheFamily,
    TorusElement,
    antisymmetrizer,
    bethe_commuting_certificate,
    bethe_family,
    degeneration_report,
    exp_tail_bound,
    exp_truncated,
    shift_residue_generators,
    standard_torus,
    tau_eval,
    tau_kron_direct,
    tau_ratfun,
    tau_trace_direct,
    torus_center_members,
    wall_bethe_family,
)
from krspectra.gaudin import GaudinConfig, residue_generators
from krspectra.glrep import build_defining, build_irrep, build_tensor
from krspectra.scalars import Mat, QQi, mat_rank, span_rank, spans_equal, unit_circle_point


def config_c2_pair(z=(QQi(0, 3), QQi(0, 1)), d=(-2, -2)):
    c2 = build_defining(2)
    return GaudinConfig(
        build_tensor([(c2, QQi.of(z[0]), QQi.of(d[0])), (c2, QQi.of(z[1]), QQi.of(d[1]))]),
        (0, 0),
    )


def config_single(n, z=QQi(Fraction(1, 3))):
    cn = build_defining(n)
    return GaudinConfig(build_tensor([(cn, QQi.of(z), QQi(0))]), (0,) * n)


class TestTorus:
    def test_standard_regular(self):
        C = standard_torus(3)
        assert C.is_regular()
        for c in C.entries:
            assert c.abs2() == 1

    def test_wall_merges_adjacent(self):
        C = standard_torus(3, wall=1)
        assert C.coincident_pair() == (1, 2)
        C = standard_torus(3, wall=3)
        assert C.coincident_pair() == (1, 3)

    def test_normalized_class(self):
        C = standard_torus(3)
        N = C.normalized()
        assert N.entries[0] == QQi(1)

    def test_rejects_non_unit(self):
        with pytest.raises(BetheError):
            TorusElement([QQi(2), QQi(1)])


class TestAntisymmetrizer:
    def test_a1_identity(self):
        assert antisymmetrizer(3, 1) == Mat.identity(3)

    def test_a2_rank_one_on_c2(self):
        m = antisymmetrizer(2, 2)
        assert mat_rank([list(r) for r in m.rows]) == 1

    @pytest.mark.parametrize("n,a", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_idempotent_with_binomial_rank(self, n, a):
        from math import comb

        m = antisymmetrizer(n, a)
        assert m * m == m
        assert mat_rank([list(r) for r in m.rows]) == comb(n, a)


class TestTauHandOracle:
    def test_a1_k1_formula(self):
        # tau_1(u, C) on C^2(z) = (c1+c2) 1 + diag(c1, c2)-weighted E / (u - z)
        z = QQi(Fraction(2, 7))
        cfg = config_single(2, z)
        C = standard_torus(2)
        c1, c2 = C.entries
        f = tau_ratfun(1, C, cfg)
        u = QQi(Fraction(31, 5))
        e11 = cfg.rep.e_slot(0, 1, 1)
        e22 = cfg.rep.e_slot(0, 2, 2)
        expected = Mat.identity(2) * (c1 + c2) + (
            e11 * c1 + e22 * c2
        ) * (u - z).inverse()
        assert f.eval(u) == expected

    def test_tau_n_central_at_identity_class(self):
        # C in the identity class: tau_n is scalar on C^n(z)
        for n in (2, 3):
            cfg = config_single(n)
            c = unit_circle_point(Fraction(1, 3))
            C = TorusElement([c] * n)
            f = tau_ratfun(n, C, cfg)
            val = f.eval(QQi(Fraction(100, 7)))
            assert val.scalar_part() is not None

    def test_tau1_infinity_limit(self):
        cfg = config_single(2)
        C = standard_torus(2)
        f = tau_ratfun(1, C, cfg)
        total = C.entries[0] + C.entries[1]
        inf = f.infinity_value()
        assert inf == Mat.identity(2) * total


class TestTauRoutesAgree:
    @pytest.mark.parametrize("n,a", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_minor_equals_trace_equals_kron(self, n, a):
        cfg = config_single(n, QQi(Fraction(1, 5), Fraction(1, 2)))
        C = standard_torus(n)
        u = QQi(Fraction(17, 3), Fraction(-2, 7))
        via_minor = tau_eval(a, C, cfg, u)
        via_trace = tau_trace_direct(a, C, cfg, u)
        assert via_minor == via_trace
        via_kron = tau_kron_direct(a, C, cfg, u)
        assert via_minor == via_kron

    def test_routes_agree_on_two_factors(self):
        cfg = config_c2_pair()
        C = standard_torus(2)
        u = QQi(Fraction(9, 4))
        for a in (1, 2):
            assert tau_eval(a, C, cfg, u) == tau_trace_direct(a, C, cfg, u)
            assert tau_eval(a, C, cfg, u) == tau_kron_direct(a, C, cfg, u)


class TestFamilies:
    def test_family_commutes_n2_k2(self):
        cfg = config_c2_pair()
        fam = bethe_family(standard_torus(2), cfg)
        assert fam.verify_commuting() is None
        assert len(fam) >= 3

    def test_wall_family_contains_h_and_commutes(self):
        cfg = config_c2_pair()
        C0 = standard_torus(2, wall=1)
        fam = wall_bethe_family(C0, (1, 2), cfg)
        assert ("h", 1, 2) in fam.tags
        assert fam.verify_commuting() is None

    def test_wall_family_rejects_wrong_pair(self):
        cfg = config_c2_pair()
        with pytest.raises(BetheError):
            wall_bethe_family(standard_torus(2), (1, 2), cfg)

    def test_extension_stays_a_bethe_family(self):
        cfg = config_c2_pair()
        C0 = standard_torus(2, wall=1)
        fam = wall_bethe_family(C0, (1, 2), cfg)
        assert isinstance(fam, BetheFamily)
        assert fam.C is C0 and fam.kind == "bethe-wall"
        # Delta(E_12) does not commute with h = Delta(E_11 - E_22)
        with pytest.raises(BetheError):
            fam.extended([(("e", 1, 2), cfg.rep.delta(1, 2))])

    def test_normality_at_crit_norm_parameters(self):
        # unit C, purely imaginary z scaled, d = a - b - n: normal operators
        cfg = config_c2_pair(z=(QQi(-2, 3), QQi(-2, 1)), d=(-2, -2))
        fam = bethe_family(standard_torus(2), cfg)
        rep = fam.normality_report()
        assert rep["passed"]

    def test_rescaling_invariance_of_span(self):
        cfg = config_c2_pair()
        C = standard_torus(2)
        aC = C.scaled(unit_circle_point(Fraction(2, 5)))
        fam1 = bethe_family(C, cfg)
        fam2 = bethe_family(TorusElement(aC.entries), cfg)
        ident = Mat.identity(cfg.rep.dim)
        assert spans_equal(fam1.gens + [ident], fam2.gens + [ident])


class TestCertificate:
    def test_certificate_passes_regular(self):
        cfg = config_c2_pair()
        rep = bethe_commuting_certificate(standard_torus(2), cfg)
        assert rep["passed"]
        assert rep["grid_sizes"][2] > rep["degree_bounds"][2]

    def test_certificate_passes_wall(self):
        cfg = config_c2_pair()
        rep = bethe_commuting_certificate(standard_torus(2, wall=2), cfg)
        assert rep["passed"]

    def test_negative_control_nondiagonal_insert(self):
        # replacing the slot-2 torus factor by a non-diagonal matrix must
        # break commutation with tau_1 at some sample point
        from krspectra.bethe import _embed_aux, ev_t_grid

        cfg = config_c2_pair()
        C = standard_torus(2)
        u1 = QQi(Fraction(41, 7))
        u2 = QQi(Fraction(55, 9))
        t1 = tau_eval(1, C, cfg, u1)
        n, dim = cfg.n, cfg.rep.dim
        bad = Mat.from_values([[1, 1], [0, 1]])
        cmat = Mat([[C.entries[0], QQi(0)], [QQi(0), C.entries[1]]])
        big = antisymmetrizer(n, 2).kron(Mat.identity(dim))
        big = big * _embed_aux(cmat, n, 2, 0, dim, constant=True)
        big = big * _embed_aux(bad, n, 2, 1, dim, constant=True)
        for m in range(2):
            grid = ev_t_grid(cfg, m)
            tv = [[grid[r][c].eval(u2) for c in range(n)] for r in range(n)]
            big = big * _embed_aux(tv, n, 2, m, dim, constant=False)
        out = Mat.zeros(dim)
        for q in range(n**2):
            out = out + Mat(
                [
                    [big.rows[q * dim + r][q * dim + c] for c in range(dim)]
                    for r in range(dim)
                ]
            )
        assert t1.commutator(out)


class TestEvImageIdentityK1:
    def test_tau_span_equals_gaudin_span_at_c_inverse(self):
        # ev_z(Bethe(C)) = Gaudin algebra at chi = C^{-1}, for k = 1:
        # exact span equality of the two generator lists (identity adjoined)
        for n in (2, 3):
            z = QQi(Fraction(3, 4))
            cn = build_defining(n)
            rep = build_tensor([(cn, z, QQi(0))])
            C = TorusElement(
                [QQi(Fraction(m + 2, 1)) for m in range(n)], require_unit=False
            )
            cfg_tau = GaudinConfig(rep, (0,) * n)
            fam_tau = bethe_family(C, cfg_tau)
            chi = [c.inverse() for c in C.entries]
            cfg_gaudin = GaudinConfig(rep, chi)
            fam_gaudin = residue_generators(cfg_gaudin)
            ident = Mat.identity(rep.dim)
            assert spans_equal(
                fam_tau.gens + [ident], fam_gaudin.gens + [ident]
            )


class TestShiftCdet:
    def test_n1_residues_match_hand_values(self):
        cfg = config_single(1, QQi(Fraction(1, 2)))
        chi = (Fraction(1, 3),)
        cfg1 = GaudinConfig(cfg.rep, chi)
        eps = QQi(Fraction(1, 8))
        out = shift_residue_generators(eps, 1, chi, cfg1)
        e11 = cfg.rep.e_slot(0, 1, 1)
        # b_0 = R_0 + R_1 has residue E_11 at the shifted pole
        assert out[(0, 1, 0)] == e11
        # b_1 = -eps R_1: residue -eps E_11
        assert out[(1, 1, 0)] == e11 * (-eps)

    def test_exp_truncation_exact(self):
        x = QQi(Fraction(1, 4))
        t = exp_truncated(x, 3)
        assert t == QQi(1) + x + x * x * QQi(Fraction(1, 2)) + x * x * x * QQi(
            Fraction(1, 6)
        )

    def test_tail_bound_small(self):
        assert exp_tail_bound(Fraction(1, 64), 8) < Fraction(1, 10**7)
        assert exp_tail_bound(Fraction(1, 64), 2) < Fraction(1, 10)

    def test_degeneration_first_order(self):
        cfg = config_c2_pair(z=(QQi(0, 1), QQi(0, 2)), d=(-2, -2))
        chi = (Fraction(1, 3), Fraction(-1, 4))
        cfg1 = GaudinConfig(cfg.rep, chi)
        eps_list = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
        rep = degeneration_report(cfg1, chi, eps_list)
        dists = [row["distance"] for row in rep["rows"]]
        assert dists[0] > dists[1] > dists[2] > 0
        for r in rep["ratios"]:
            assert 0.35 <= r <= 0.65

    def test_degeneration_off_diagonal_slice(self):
        # c != 1: the limit sits at the rescaled points z/c
        cfg = config_c2_pair(z=(QQi(0, 1), QQi(0, 2)), d=(-2, -2))
        chi = (Fraction(1, 3), Fraction(-1, 4))
        cfg1 = GaudinConfig(cfg.rep, chi)
        eps_list = [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)]
        rep = degeneration_report(cfg1, chi, eps_list, c=2)
        dists = [row["distance"] for row in rep["rows"]]
        assert dists[0] > dists[1] > dists[2] > 0
        for r in rep["ratios"]:
            assert 0.35 <= r <= 0.65


class TestTorusCenter:
    def test_center_members_commute_with_wall_family(self):
        cfg = config_c2_pair()
        C0 = standard_torus(2, wall=1)
        fam = wall_bethe_family(C0, (1, 2), cfg)
        for tag, g in torus_center_members(C0, cfg):
            for h in fam.gens:
                assert not g.commutator(h)
