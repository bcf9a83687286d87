import json
from collections import Counter
from fractions import Fraction

import pytest

from krspectra.bethe import bethe_family, standard_torus
from krspectra.gaudin import (
    GaudinConfig,
    residue_generators,
    torus_center_members,
    wall_family,
)
from krspectra.glrep import build_defining, build_tensor
from krspectra.pipeline import build_spectral_config, compare_pipeline
from krspectra.scalars import Mat, QQi, QQI_ONE, QQI_ZERO
from krspectra.spectra import (
    SpectraError,
    joint_diagonalize,
    reconstruction_residual,
    scan_simple_spectrum,
    wall_strings,
    weight_multiset_matches,
)


def char_poly(m: Mat):
    """Exact characteristic polynomial via Faddeev-LeVerrier."""
    n = m.nr
    coeffs = [QQI_ONE]  # leading
    M = Mat.zeros(n)
    ident = Mat.identity(n)
    for k in range(1, n + 1):
        M = m * M + ident * coeffs[-1]
        c = (m * M).trace() * QQi(Fraction(-1, k))
        coeffs.append(c)
    return list(reversed(coeffs))  # ascending


def poly_gcd_degree(p, q):
    """Degree of gcd of two QQi coefficient lists (ascending)."""
    a, b = list(p), list(q)

    def deg(x):
        while x and not x[-1]:
            x.pop()
        return len(x) - 1

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        lead = a[-1] / b[-1]
        shift = da - db
        for i in range(db + 1):
            a[i + shift] = a[i + shift] - lead * b[i]
        a.pop()
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return deg(a)


def is_squarefree(p):
    dp = [p[k] * QQi(k) for k in range(1, len(p))]
    return poly_gcd_degree(p, dp) == 0


def c2_pair_cfg(chi=(Fraction(1, 3), Fraction(-1, 5))):
    c2 = build_defining(2)
    rep = build_tensor([(c2, QQi(0), QQi(0)), (c2, QQi(1), QQi(0))])
    return GaudinConfig(rep, chi)


class TestJointDiagonalize:
    def test_identity_family_not_simple(self):
        c2 = build_defining(2)
        rep = build_tensor([(c2, QQi(0), QQi(0)), (c2, QQi(1), QQi(0))])
        spec = joint_diagonalize([Mat.identity(4)], rep)
        assert not spec.is_simple()

    def test_distinct_diagonal_family_simple(self):
        c2 = build_defining(2)
        rep = build_tensor([(c2, QQi(0), QQi(0)), (c2, QQi(1), QQi(0))])
        d = Mat.from_values(
            [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]
        )
        spec = joint_diagonalize([d], rep)
        assert spec.is_simple()
        # eigenlines are the coordinate axes
        import numpy as np

        P = np.abs(spec.vectors)
        assert np.allclose(np.sort(P, axis=0)[:-1], 0, atol=1e-9)

    def test_gaudin_n2_k2_simple_with_exact_crosscheck(self):
        cfg = c2_pair_cfg()
        fam = residue_generators(cfg)
        torus = [cfg.rep.delta(a, a) for a in (1, 2)]
        spec = joint_diagonalize(fam.gens + torus, cfg.rep)
        assert spec.dim == 4
        assert spec.is_simple()
        # exact oracle: some exact linear combination has squarefree charpoly
        combo = fam.gens[0]
        for i, g in enumerate(fam.gens[1:], start=2):
            combo = combo + g * QQi(Fraction(1, 7**i))
        for t in torus:
            combo = combo + t * QQi(Fraction(1, 3))
        assert is_squarefree(char_poly(combo))

    def test_reconstruction(self):
        cfg = c2_pair_cfg()
        fam = residue_generators(cfg)
        spec = joint_diagonalize(fam.gens, cfg.rep)
        assert reconstruction_residual(fam.gens, cfg.rep, spec) < 1e-8

    def test_weight_integrality(self):
        cfg = c2_pair_cfg()
        fam = residue_generators(cfg)
        spec = joint_diagonalize(fam.gens, cfg.rep)
        assert sorted(spec.weights) == [(0, 2), (1, 1), (1, 1), (2, 0)]

    def test_determinism_bit_for_bit(self):
        cfg = c2_pair_cfg()
        fam = residue_generators(cfg)
        a = joint_diagonalize(fam.gens, cfg.rep, seed=11).report()
        b = joint_diagonalize(fam.gens, cfg.rep, seed=11).report()
        assert json.dumps(a) == json.dumps(b)


class TestWallStrings:
    def test_sl2_homogeneous_gaudin_strings(self):
        cfg = c2_pair_cfg(chi=(0, 0))
        fam = wall_family(cfg)
        base = [g for t, g in fam.members() if t[0] != "h"]
        base += [g for _, g in torus_center_members(cfg)]
        h = cfg.rep.delta(1, 1) - cfg.rep.delta(2, 2)
        strings = wall_strings(base, h, cfg.rep)
        assert strings.ok()
        got = sorted((s["length"], s["h_values"]) for s in strings.strings)
        assert got == [(1, [0]), (3, [2, 0, -2])]

    def test_strings_symmetric_about_zero(self):
        cfg = c2_pair_cfg(chi=(0, 0))
        fam = wall_family(cfg)
        base = [g for t, g in fam.members() if t[0] != "h"]
        base += [g for _, g in torus_center_members(cfg)]
        h = cfg.rep.delta(1, 1) - cfg.rep.delta(2, 2)
        strings = wall_strings(base, h, cfg.rep)
        for s in strings.strings:
            assert s["h_values"] == [-v for v in reversed(s["h_values"])]

    def test_affine_wall_count_matches_combinatorics(self):
        # string count per (length, source weight) for the affine wall of
        # C^2 x C^2 equals the combinatorial count for e_[0]
        from krspectra.pipeline import spectral_wall_statistics
        from krspectra.promotion import build_kr
        from krspectra.tensorcrystal import string_statistics, tensor

        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        strings = spectral_wall_statistics(cfg, 2)
        assert strings.ok()
        comb = tensor(build_kr(2, 1, 1), build_kr(2, 1, 1))
        assert strings.statistics() == string_statistics(comb, 0)


class TestComparePipeline:
    def test_n2_w1_w1_matches_all_j(self):
        report = compare_pipeline(2, [(1, 1), (1, 1)])
        assert report["passed"], report

    def test_weight_multiset_match(self):
        from krspectra.promotion import build_kr
        from krspectra.tensorcrystal import tensor

        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        fam = bethe_family(standard_torus(2), cfg)
        torus = [cfg.rep.delta(a, a) for a in (1, 2)]
        spec = joint_diagonalize(fam.gens + torus, cfg.rep)
        comb = tensor(build_kr(2, 1, 1), build_kr(2, 1, 1))
        assert weight_multiset_matches(spec, comb)


class TestWallRefinement:
    def test_gaudin_wall_family_refines_chi0_eigenspaces(self):
        # without h the subregular family has a degenerate joint spectrum on
        # C^2 x C^2; adding Delta(h) makes it simple: strict refinement
        cfg = c2_pair_cfg(chi=(Fraction(1, 3), Fraction(1, 3)))
        base = residue_generators(cfg)
        tc = [g for _, g in torus_center_members(cfg)]
        spec_base = joint_diagonalize(base.gens + tc, cfg.rep)
        assert not spec_base.is_simple()
        h = cfg.rep.delta(1, 1) - cfg.rep.delta(2, 2)
        spec_full = joint_diagonalize(base.gens + tc + [h], cfg.rep)
        assert spec_full.is_simple()

    def test_bethe_wall_family_refines_tau_only(self):
        from krspectra.bethe import (
            standard_torus,
            torus_center_members as bethe_tc,
            wall_bethe_family,
        )

        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        C0 = standard_torus(2, wall=1)
        fam = bethe_family(C0, cfg)
        tc = [g for _, g in bethe_tc(C0, cfg)]
        spec_base = joint_diagonalize(fam.gens + tc, cfg.rep)
        assert not spec_base.is_simple()
        full = wall_bethe_family(C0, (1, 2), cfg)
        spec_full = joint_diagonalize(full.gens, cfg.rep)
        assert spec_full.is_simple()


class TestGaudinRouteAgreesWithCombinatorics:
    # independent dual route for the classical walls: the Gaudin wall family
    # at real points must reproduce the same string statistics as the
    # combinatorial tensor crystal (and hence as the Bethe route)

    def test_n2_wall1(self):
        from krspectra.promotion import build_kr
        from krspectra.tensorcrystal import string_statistics, tensor

        cfg = c2_pair_cfg(chi=(Fraction(1, 3), Fraction(1, 3)))
        base = residue_generators(cfg)
        tc = [g for _, g in torus_center_members(cfg)]
        h = cfg.rep.delta(1, 1) - cfg.rep.delta(2, 2)
        strings = wall_strings(base.gens + tc, h, cfg.rep)
        assert strings.ok()
        comb = tensor(build_kr(2, 1, 1), build_kr(2, 1, 1))
        assert strings.statistics() == string_statistics(comb, 1)

    def test_n3_walls_1_and_2(self):
        from krspectra.glrep import build_irrep
        from krspectra.promotion import build_kr
        from krspectra.tensorcrystal import string_statistics, tensor

        c3 = build_defining(3)
        w2 = build_irrep(3, 1, 2)
        comb = tensor(build_kr(3, 1, 1), build_kr(3, 1, 2))
        for j in (1, 2):
            chi0 = [Fraction(m, 7) for m in range(3)]
            chi0[j % 3] = chi0[j - 1]  # coincide the wall pair (j, j+1)
            rep = build_tensor([(c3, QQi(0), QQi(0)), (w2, QQi(1), QQi(0))])
            cfg = GaudinConfig(rep, chi0)
            base = residue_generators(cfg)
            tc = [g for _, g in torus_center_members(cfg)]
            h = cfg.rep.delta(j, j) - cfg.rep.delta(j + 1, j + 1)
            strings = wall_strings(base.gens + tc, h, cfg.rep)
            assert strings.ok(), (j, strings.diagnostics)
            assert strings.statistics() == string_statistics(comb, j), j


class TestScan:
    def test_scan_reports_simple_region(self):
        def build(s):
            cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=s)
            fam = bethe_family(standard_torus(2), cfg)
            torus = [cfg.rep.delta(a, a) for a in (1, 2)]
            return fam.gens + torus, cfg.rep

        report = scan_simple_spectrum(build, [Fraction(1), Fraction(2)])
        assert report["first_simple_s"] is not None
        assert all(r["simple"] for r in report["rows"])

    def test_scan_coincident_points_reported_not_simple(self):
        def build(s):
            cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=s)
            fam = bethe_family(standard_torus(2), cfg)
            return fam.gens, cfg.rep

        report = scan_simple_spectrum(build, [Fraction(0)])
        assert not report["rows"][0]["simple"]
        assert "error" in report["rows"][0]
