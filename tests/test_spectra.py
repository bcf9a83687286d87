import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from krspectra import pipeline, spectra
from krspectra.bethe import bethe_family, rotate_weight, standard_torus, wall_pair
from krspectra.gaudin import GaudinConfig, residue_generators, wall_family
from krspectra.glrep import build_defining, build_tensor
from krspectra.pipeline import (
    build_spectral_config,
    compare_pipeline,
    scan_simple_spectrum,
)
from krspectra.promotion import kr_tensor_crystal
from krspectra.scalars import Mat, QQi, QQI_ONE
from krspectra.spectra import (
    SpectraError,
    compare_with_crystal,
    joint_diagonalize,
    wall_strings,
    weight_multiset_matches,
)
from oracles import (
    all_orders_scan,
    all_walls_statistics,
    dense_spectrum,
    eigenvector_matrix,
    mat_to_numpy,
    reconstruction_residual,
    regular_all_orders,
    spectrum_report,
    trace,
)


def char_poly(m: Mat):
    """Exact characteristic polynomial via Faddeev-LeVerrier."""
    n = m.nr
    coeffs = [QQI_ONE]  # leading
    M = Mat.zeros(n)
    ident = Mat.identity(n)
    for k in range(1, n + 1):
        M = m * M + ident * coeffs[-1]
        c = trace(m * M) * QQi(Fraction(-1, k))
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
        d = Mat(
            [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]
        )
        spec = joint_diagonalize([d], rep)
        assert spec.is_simple()
        # eigenlines are the coordinate axes, in every weight block
        for vecs in spec.vectors:
            P = np.abs(vecs)
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
        a = spectrum_report(joint_diagonalize(fam.gens, cfg.rep))
        b = spectrum_report(joint_diagonalize(fam.gens, cfg.rep))
        assert json.dumps(a) == json.dumps(b)

    def test_non_simple_wall_family_is_one_deterministic_pass(self, monkeypatch):
        # the subregular family on the one factor V_{2 w_2} of gl_4 is
        # degenerate on its weight space (1, 1, 1, 1) of dimension 2, the
        # case in which the eigenvector choice inside an eigenspace is left
        # to the refinement; the Gram matrix is not the identity
        rep = build_tensor([(pipeline.kr_rep(4, 2, 2), QQi(0), QQi(0))])
        cfg = GaudinConfig(rep, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)))
        members = wall_family(cfg).gens
        assert rep.gram != Mat.identity(rep.dim)
        attempts = []
        once = spectra._joint_diagonalize_once

        def counted(*args):
            attempts.append(args)
            return once(*args)

        monkeypatch.setattr(spectra, "_joint_diagonalize_once", counted)
        a = joint_diagonalize(members, cfg.rep)
        assert not a.is_simple()
        assert len(attempts) == 1
        b = joint_diagonalize(members, cfg.rep)
        assert json.dumps(spectrum_report(a)) == json.dumps(spectrum_report(b))
        assert a.weights == b.weights
        assert a.values.tobytes() == b.values.tobytes()
        assert [v.tobytes() for v in a.vectors] == [v.tobytes() for v in b.vectors]

    def test_readout_agrees_with_the_loop_over_eigenlines(self):
        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        C0 = standard_torus(2, wall=1)
        members = bethe_family(C0, cfg).gens
        spec = joint_diagonalize(members, cfg.rep)
        # tensor products of defining reps carry the standard form
        assert cfg.rep.gram == Mat.identity(cfg.rep.dim)
        mats = [mat_to_numpy(m) for m in members]
        torus = [mat_to_numpy(cfg.rep.delta(a, a)) for a in (1, 2)]
        # the per-block vectors, placed as the columns of one dense matrix
        vecs = eigenvector_matrix(spec)
        cols = range(spec.dim)
        looped = np.array([[vecs[:, j].conj() @ m @ vecs[:, j] for j in cols] for m in mats])
        # einsum sums in another order than the loop: a few ulps of the scale
        assert np.allclose(spec.values, looped, rtol=0, atol=1e-12 * max(spec.scale, 1.0))
        weights = [
            tuple(int(round((vecs[:, j].conj() @ t @ vecs[:, j]).real)) for t in torus)
            for j in cols
        ]
        assert spec.weights == weights
        # the gaps between two lines of one weight are the same float
        # operations as the loop's
        values = spec.values
        min_sep = min(
            np.max(np.abs(values[:, i] - values[:, j]))
            for i in cols
            for j in range(i + 1, spec.dim)
            if spec.weights[i] == spec.weights[j]
        )
        assert spec.min_separation == min_sep
        assert spec.is_simple()


class TestWeightBlocks:
    def wall_families(self, n, factors, s=1):
        cfg = build_spectral_config(n, factors, s=s)
        # the walls' families and B(C) at the regular element
        fams = [bethe_family(standard_torus(n, j), cfg).gens for j in range(1, n + 1)]
        return cfg, fams + [bethe_family(standard_torus(n), cfg).gens]

    def test_weights_are_the_weight_basis_multiset(self):
        from collections import Counter

        cfg, families = self.wall_families(3, [(1, 1), (1, 2)])
        for members in families:
            spec = joint_diagonalize(members, cfg.rep)
            assert Counter(spec.weights) == Counter(cfg.rep.weight_basis)
            report = spectrum_report(spec)
            assert report["blocks"] == len(spec.vectors) == len(set(cfg.rep.weight_basis))
            assert report["largest_block"] == max(len(v) for v in spec.vectors)

    def test_a_member_that_moves_a_weight_is_refused(self):
        cfg = c2_pair_cfg()
        members = residue_generators(cfg).gens + [cfg.rep.delta(1, 2)]
        with pytest.raises(spectra.SpectraError, match="moves a weight"):
            joint_diagonalize(members, cfg.rep)

    def test_a_gram_matrix_that_joins_two_weight_spaces_is_refused(self, monkeypatch):
        cfg = c2_pair_cfg()
        members = residue_generators(cfg).gens
        monkeypatch.setattr(cfg.rep, "gram", Mat.identity(4) + Mat.unit(4, 4, 0, 1, QQi(1)))
        with pytest.raises(spectra.SpectraError, match="the Gram matrix joins two weight spaces"):
            joint_diagonalize(members, cfg.rep)

    def test_no_dense_rows_are_read(self):
        # the blocks are read from the stored entries: Mat has no dense
        # float rows to read
        assert not hasattr(Mat, "complex_rows")
        cfg, families = self.wall_families(3, [(1, 1), (1, 2)])
        for members in families:
            assert joint_diagonalize(members, cfg.rep).is_simple()

    def test_non_identity_gram_agrees_with_the_dense_route(self):
        # V_{2 w_1} carries a Gram matrix other than the identity, so every
        # block goes through its Cholesky factor
        cfg, families = self.wall_families(2, [(2, 1), (1, 1)])
        assert cfg.rep.gram != Mat.identity(cfg.rep.dim)
        for members in families:
            spec = joint_diagonalize(members, cfg.rep)
            values, weights = dense_spectrum(members, cfg.rep)
            assert spec.is_simple()
            assert sorted(spec.weights) == sorted(weights)
            # match each line with the dense line of its weight of nearest
            # values: a wall family gives the lines of one string equal values
            for line in range(spec.dim):
                same = [k for k, w in enumerate(weights) if w == spec.weights[line]]
                gap = np.max(np.abs(values[:, same] - spec.values[:, [line]]), axis=0)
                assert gap.min() <= 1e-9 * max(spec.scale, 1.0)
        report = compare_pipeline(2, [(2, 1), (1, 1)], s_grid=(1,))
        assert report["passed"] and report["simple"] and report["all_match"]

    @pytest.mark.parametrize("n,factors", [(2, [(2, 1), (1, 1)]), (3, [(1, 1), (1, 2)])])
    def test_min_separation_is_that_of_the_dense_lines_of_one_weight(self, n, factors):
        # V_{2 w_1} carries a Gram matrix other than the identity
        cfg, families = self.wall_families(n, factors)
        for members in families:
            spec = joint_diagonalize(members, cfg.rep)
            values, weights = dense_spectrum(members, cfg.rep)
            dense = min(
                np.max(np.abs(values[:, i] - values[:, j]))
                for i in range(spec.dim)
                for j in range(i + 1, spec.dim)
                if weights[i] == weights[j]
            )
            assert abs(spec.min_separation - dense) <= 1e-9 * max(spec.scale, 1.0)


class TestWallStrings:
    def test_sl2_homogeneous_gaudin_strings(self):
        cfg = c2_pair_cfg(chi=(0, 0))
        base = residue_generators(cfg).gens
        strings = wall_strings(base, cfg.rep, (1, 2))
        assert strings.ok()
        got = sorted((s["length"], s["h_values"]) for s in strings.strings)
        assert got == [(1, [0]), (3, [2, 0, -2])]

    def test_strings_symmetric_about_zero(self):
        cfg = c2_pair_cfg(chi=(0, 0))
        base = residue_generators(cfg).gens
        strings = wall_strings(base, cfg.rep, (1, 2))
        for s in strings.strings:
            assert s["h_values"] == [-v for v in reversed(s["h_values"])]

    def test_a_family_that_does_not_separate_a_weight_space_is_refused(self):
        # the identity keeps every weight space and separates none
        cfg = c2_pair_cfg()
        with pytest.raises(spectra.SpectraError, match="not simple on a weight space"):
            wall_strings([Mat.identity(4)], cfg.rep, (1, 2))

    def test_strings_stay_inside_their_coset_chains(self):
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], s=1)
        for j in (1, 2, 3):
            pair = wall_pair(3, j)
            members = bethe_family(standard_torus(3, j), cfg).gens
            spec = joint_diagonalize(members, cfg.rep)
            strings = wall_strings(members, cfg.rep, pair)
            chains = cfg.rep.coset_chains(*pair)
            # the chain of a line is that of its weight block
            chain_of = [chains.of[part[0]] for part in spec.blocks for _ in part]
            assert sum(s["length"] for s in strings.strings) == spec.dim
            for s in strings.strings:
                assert len({chain_of[line] for line in s["lines"]}) == 1

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

    def test_kr_rep_is_built_once_per_process(self):
        assert pipeline.kr_rep(3, 1, 2) is pipeline.kr_rep(3, 1, 2)
        assert pipeline.kr_rep(3, 1, 1) is not pipeline.kr_rep(4, 1, 1)
        cfg = build_spectral_config(3, [(1, 1), (1, 2), (1, 1)], 1)
        assert [rep for rep, _, _ in cfg.rep.factors] == [
            pipeline.kr_rep(3, 1, 1), pipeline.kr_rep(3, 1, 2), pipeline.kr_rep(3, 1, 1)
        ]

    def test_two_runs_build_each_distinct_factor_rep_once(self, monkeypatch):
        from krspectra import glrep

        builds = []
        for name in ("build_defining", "build_wedge", "build_irrep"):
            orig = getattr(glrep, name)

            def counted(*args, orig=orig, name=name):
                builds.append((name, args))
                return orig(*args)

            for mod in (glrep, pipeline):
                if vars(mod).get(name) is orig:
                    monkeypatch.setattr(mod, name, counted)
        for _ in range(2):
            assert compare_pipeline(3, [(1, 1), (1, 2), (1, 1)], s_grid=(1, 2))["passed"]
        # V_{w_2} is the wedge Wedge^2 C^3, which build_irrep hands to build_wedge
        assert builds == [
            ("build_defining", (3,)), ("build_irrep", (3, 1, 2)), ("build_wedge", (3, 2))
        ]

    def test_weight_multiset_match(self):
        from krspectra.promotion import build_kr
        from krspectra.tensorcrystal import tensor

        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        comb = tensor(build_kr(2, 1, 1), build_kr(2, 1, 1))
        assert weight_multiset_matches(cfg.rep.weight_basis, comb)
        # the weights of a family's lines are the weight basis
        spec = joint_diagonalize(bethe_family(standard_torus(2), cfg).gens, cfg.rep)
        assert weight_multiset_matches(spec.weights, comb)

    def test_the_weights_of_another_factor_list_of_one_dimension_mismatch(self):
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], s=1)
        wrong = kr_tensor_crystal(3, [(1, 1), (1, 1)])
        assert cfg.rep.dim == len(wrong) == 9
        assert weight_multiset_matches(cfg.rep.weight_basis, kr_tensor_crystal(3, [(1, 1), (1, 2)]))
        assert not weight_multiset_matches(cfg.rep.weight_basis, wrong)


class TestOneWallFamily:
    """`compare` reads every wall off one wall-1 family of the lowest clean
    tau orders, rotated by P."""

    ACCEPTANCE = [
        (2, [(1, 1), (1, 1)]),
        (2, [(1, 1), (1, 1), (1, 1)]),
        (2, [(2, 1), (1, 1)]),
        (3, [(1, 1), (1, 2)]),
        (3, [(2, 1), (1, 1)]),
        (3, [(2, 2), (1, 1)]),
        (3, [(1, 2), (1, 2)]),
        (4, [(2, 2)]),
        (4, [(1, 1), (1, 3)]),
    ]

    @pytest.mark.parametrize("n,factors", ACCEPTANCE)
    def test_per_wall_is_that_of_every_wall_s_own_family(self, n, factors):
        report = compare_pipeline(n, factors, s_grid=(1, 2))
        assert report["passed"], report
        cfg = build_spectral_config(n, factors, Fraction(report["s"]))
        oracle = compare_with_crystal(all_walls_statistics(cfg), kr_tensor_crystal(n, factors))
        assert report["per_wall"] == oracle["per_wall"]
        assert report["wall_family"]["rotated"] == list(range(2, n + 1))

    def test_rolling_the_other_way_mismatches(self):
        n, factors = 3, [(1, 1), (1, 2)]
        cfg = build_spectral_config(n, factors, 1)
        wall1 = pipeline.spectral_wall_statistics(cfg, 1).statistics()
        crystal = kr_tensor_crystal(n, factors)

        def rolled(sign):
            return {
                j % n: Counter(
                    {(ln, rotate_weight(w, sign * (j - 1))): c for (ln, w), c in wall1.items()}
                )
                for j in range(1, n + 1)
            }

        assert compare_with_crystal(rolled(1), crystal)["all_match"]
        assert not compare_with_crystal(rolled(-1), crystal)["all_match"]

    def test_a_wall_whose_tau_1_family_is_not_simple_takes_tau_2(self):
        report = compare_pipeline(4, [(2, 2)], s_grid=(1,))
        assert report["passed"], report
        family = report["wall_family"]
        assert family["wall"] == 1 and family["orders"] == [1, 2]
        assert list(family["given_up"]) == ["1"]
        assert family["given_up"]["1"].startswith("wall family is not simple on a weight space")
        assert family["rotated"] == [2, 3, 4]

    def test_a_wall_whose_tau_1_family_is_clean_takes_it(self):
        report = compare_pipeline(3, [(1, 1), (1, 2)], s_grid=(1,))
        want = {"wall": 1, "orders": [1], "given_up": {}, "rotated": [2, 3]}
        assert report["wall_family"] == want

    def test_broken_strings_give_up_an_order(self, monkeypatch):
        real = pipeline.wall_strings
        sizes = []

        def broken_first(members, rep, pair):
            strings = real(members, rep, pair)
            if not sizes:
                strings.diagnostics.update(passed=False, failures=[{"kind": "patched"}])
            sizes.append(len(members))
            return strings

        monkeypatch.setattr(pipeline, "wall_strings", broken_first)
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        strings = pipeline.spectral_wall_statistics(cfg, 1)
        assert strings.ok() and strings.diagnostics["orders"] == [1, 2]
        assert strings.diagnostics["given_up"] == {"1": "broken strings: [{'kind': 'patched'}]"}
        # the second try holds the first try's members and those of tau_2
        assert len(sizes) == 2 and sizes[0] < sizes[1]

    def test_the_last_try_is_b_c_and_raises_its_own_error(self, monkeypatch):
        calls = []

        def never_clean(members, rep, pair):
            calls.append(len(members))
            raise SpectraError("patched: not simple")

        monkeypatch.setattr(pipeline, "wall_strings", never_clean)
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        with pytest.raises(SpectraError, match="patched: not simple"):
            pipeline.spectral_wall_statistics(cfg, 1)
        # three tries, the last of them every member of B(C)
        assert len(calls) == 3 and calls[-1] == len(bethe_family(standard_torus(3, 1), cfg))

    @pytest.mark.parametrize("n,factors", [(2, [(1, 1), (1, 1)]), (3, [(1, 1), (1, 2)])])
    def test_a_clean_tau_1_wall_family_makes_two_families_per_scale(
        self, n, factors, monkeypatch
    ):
        built = []
        family = pipeline.bethe_family

        def recording(C, cfg, orders=None, lower=None):
            built.append(([str(c) for c in C.entries], orders))
            return family(C, cfg, orders, lower)

        monkeypatch.setattr(pipeline, "bethe_family", recording)
        assert compare_pipeline(n, factors, s_grid=(1,))["passed"]
        wall1, regular = ([str(c) for c in standard_torus(n, j).entries] for j in (1, None))
        assert built == [(wall1, (1,)), (regular, (1,))]


class TestRegularFamily:
    """`compare`'s "simple" comes from the family of the lowest simple tau
    orders at the regular element, and "weights_match" from the weight
    basis."""

    @pytest.mark.parametrize("n,factors", TestOneWallFamily.ACCEPTANCE)
    def test_verdicts_are_those_of_b_c_of_every_order(self, n, factors):
        report = compare_pipeline(n, factors, s_grid=(1, 2))
        assert report["passed"], report
        oracle = regular_all_orders(n, factors, Fraction(report["s"]))
        assert report["simple"] == oracle["simple"]
        assert report["weights_match"] == oracle["weights_match"]
        family = report["regular_family"]
        if (n, factors) == (4, [(2, 2)]):
            # tau_1 is not simple at the regular element: tau_2 is added
            assert family["orders"] == [1, 2] and list(family["given_up"]) == ["1"]
            assert family["given_up"]["1"].startswith("not simple (gap ")
        else:
            assert family == {"orders": [1], "given_up": {}}

    def test_a_last_try_that_raises_rejects_the_scale(self, monkeypatch):
        # the wall family is diagonalized inside `wall_strings`, so only the
        # regular element's tries are refused
        calls = []

        def refused(members, rep):
            calls.append(len(members))
            raise SpectraError(f"patched: {len(members)} members")

        monkeypatch.setattr(pipeline, "joint_diagonalize", refused)
        report = compare_pipeline(3, [(1, 1), (1, 2)], s_grid=(1,))
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        whole = len(bethe_family(standard_torus(3), cfg))
        # three tries at the regular element, the last of them B(C), whose
        # error rejects the scale
        assert len(calls) == 3 and calls[-1] == whole
        assert not report["passed"]
        assert report["rejected_s"] == {"1": f"patched: {whole} members"}


class TestRejectedScales:
    DIGEST_FIELDS = ("all_match", "weights_match", "simple", "per_wall")

    def patch_first_s(self, monkeypatch, below):
        """Make every s whose last point has imaginary part below `below` fail."""
        walls = pipeline.spectral_wall_statistics

        def failing(cfg, j):
            if cfg.points[-1].im < below:
                raise spectra.SpectraError(f"patched failure at {cfg.points[-1]}")
            return walls(cfg, j)

        monkeypatch.setattr(pipeline, "spectral_wall_statistics", failing)

    def test_each_rejected_s_is_reported(self, monkeypatch):
        plain = compare_pipeline(2, [(1, 1), (1, 1)], s_grid=(2,))
        self.patch_first_s(monkeypatch, 2)
        report = compare_pipeline(2, [(1, 1), (1, 1)], s_grid=(1, 2))
        assert report["passed"] and report["s"] == "2"
        assert report["rejected_s"] == {"1": "patched failure at -1+i"}
        assert plain["rejected_s"] == {}
        for field in self.DIGEST_FIELDS:
            assert report[field] == plain[field], field

    def test_a_grid_with_no_clean_s_reports_every_error(self, monkeypatch):
        self.patch_first_s(monkeypatch, 3)
        report = compare_pipeline(2, [(1, 1), (1, 1)], s_grid=(1, 2))
        assert not report["passed"] and not report["all_match"]
        assert report["rejected_s"] == {
            "1": "patched failure at -1+i",
            "2": "patched failure at -1+2*i",
        }
        assert report["error"] == "no s in the grid gave clean spectra: patched failure at -1+2*i"


def lines_sharing_values(spec):
    """The pairs of lines whose values agree within the spectrum's tolerance."""
    tol = spectra.TOL * max(spec.scale, 1.0)
    return [
        (i, j)
        for i in range(spec.dim)
        for j in range(i + 1, spec.dim)
        if np.max(np.abs(spec.values[:, i] - spec.values[:, j])) <= tol
    ]


class TestWallRefinement:
    def test_gaudin_wall_family_refines_chi0_eigenspaces(self):
        # the subregular family alone has degenerate joint eigenspaces on
        # C^2 x C^2, the sl_2 strings; the weights split them, so the family
        # is simple on each weight space
        cfg = c2_pair_cfg(chi=(Fraction(1, 3), Fraction(1, 3)))
        spec = joint_diagonalize(residue_generators(cfg).gens, cfg.rep)
        assert spec.is_simple()
        shared = lines_sharing_values(spec)
        assert shared
        assert all(spec.weights[i] != spec.weights[j] for i, j in shared)

    def test_bethe_wall_family_refines_tau_only(self):
        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        spec = joint_diagonalize(bethe_family(standard_torus(2, wall=1), cfg).gens, cfg.rep)
        assert spec.is_simple()
        shared = lines_sharing_values(spec)
        assert shared
        assert all(spec.weights[i] != spec.weights[j] for i, j in shared)


class TestGaudinRouteAgreesWithCombinatorics:
    # independent dual route for the classical walls: the Gaudin wall family
    # at real points must reproduce the same string statistics as the
    # combinatorial tensor crystal (and hence as the Bethe route)

    def test_n2_wall1(self):
        from krspectra.promotion import build_kr
        from krspectra.tensorcrystal import string_statistics, tensor

        cfg = c2_pair_cfg(chi=(Fraction(1, 3), Fraction(1, 3)))
        strings = wall_strings(residue_generators(cfg).gens, cfg.rep, (1, 2))
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
            strings = wall_strings(residue_generators(cfg).gens, cfg.rep, (j, j + 1))
            assert strings.ok(), (j, strings.diagnostics)
            assert strings.statistics() == string_statistics(comb, j), j


class TestScan:
    def test_scan_reports_simple_region(self):
        report = scan_simple_spectrum(2, [(1, 1), (1, 1)], [Fraction(1), Fraction(2)])
        assert report["first_simple_s"] is not None
        assert all(r["simple"] for r in report["rows"])
        # the kept spectrum is that of the family the row names, at the
        # regular element of the first simple s
        first = next(r for r in report["rows"] if r["s"] == report["first_simple_s"])
        cfg = build_spectral_config(2, [(1, 1), (1, 1)], Fraction(report["first_simple_s"]))
        fam = bethe_family(standard_torus(2), cfg, first["orders"])
        spec = joint_diagonalize(fam.gens, cfg.rep)
        assert report["spectrum"].values.tobytes() == spec.values.tobytes()
        assert first["min_gap"] == spec.min_separation

    def test_the_scan_of_a_clean_case_builds_tau_1_alone(self, monkeypatch):
        from krspectra import bethe

        chained, taus = [], []
        chain, tau = bethe._chain_minors, bethe.tau_ratfun

        def chain_recording(tables, n, a):
            chained.append(a)
            return chain(tables, n, a)

        def tau_recording(a, C, cfg):
            taus.append(a)
            return tau(a, C, cfg)

        monkeypatch.setattr(bethe, "_chain_minors", chain_recording)
        monkeypatch.setattr(bethe, "tau_ratfun", tau_recording)
        report = scan_simple_spectrum(3, [(1, 1), (1, 2)], [1, 2, 3])
        assert [(r["simple"], r["orders"], r["given_up"]) for r in report["rows"]] == [
            (True, [1], {})
        ] * 3
        # no table of order above 1, and one tau_ratfun call per s
        assert chained == [1, 1, 1] and taus == [1, 1, 1]

    def test_a_regular_family_whose_tau_1_is_not_simple_takes_tau_2(self):
        report = scan_simple_spectrum(4, [(2, 2)], [1])
        (row,) = report["rows"]
        assert row["simple"] and row["orders"] == [1, 2] and "error" not in row
        assert list(row["given_up"]) == ["1"]
        assert row["given_up"]["1"].startswith("not simple (gap ")
        assert report["first_simple_s"] == "1"

    def test_a_last_try_that_raises_keeps_the_error_row(self, monkeypatch):
        sizes = []

        def refused(members, rep):
            sizes.append(len(members))
            raise SpectraError(f"patched: {len(members)} members")

        monkeypatch.setattr(pipeline, "joint_diagonalize", refused)
        cfg = build_spectral_config(3, [(1, 1), (1, 2)], 1)
        report = scan_simple_spectrum(3, [(1, 1), (1, 2)], [1])
        (row,) = report["rows"]
        # three tries, the last of them every member of B(C), whose error
        # is the row's; the lower orders' reasons go under given_up
        whole = len(bethe_family(standard_torus(3), cfg))
        assert len(sizes) == 3 and sizes[-1] == whole
        assert row == {
            "s": "1",
            "simple": False,
            "error": f"patched: {whole} members",
            "orders": [1, 2, 3],
            "given_up": {"1": f"patched: {sizes[0]} members", "2": f"patched: {sizes[1]} members"},
        }
        assert report["first_simple_s"] is None and report["spectrum"] is None

    @pytest.mark.parametrize("n,factors", TestOneWallFamily.ACCEPTANCE)
    def test_verdicts_are_those_of_the_all_orders_scan(self, n, factors):
        grid = [0, Fraction(1, 2), 1, 2]
        report = scan_simple_spectrum(n, factors, grid)
        oracle = all_orders_scan(n, factors, grid)
        assert [r["simple"] for r in report["rows"]] == [r["simple"] for r in oracle["rows"]]
        assert report["first_simple_s"] == oracle["first_simple_s"]

    def test_a_pair_that_fails_to_commute_ends_the_scan_and_the_comparison(self, monkeypatch):
        from krspectra import bethe

        members = bethe.tau_members

        def perturbed(C, cfg, orders=None):
            # basis vectors 1 and 2 of C^2 x C^2 share the weight (1, 1)
            out = members(C, cfg, orders)
            tag, g = out[0]
            out[0] = (tag, g + Mat.unit(g.nr, g.nc, 1, 2, QQi(Fraction(1, 7))))
            return out

        monkeypatch.setattr(bethe, "tau_members", perturbed)
        with pytest.raises(bethe.BetheError, match="commutativity failed for pair"):
            scan_simple_spectrum(2, [(1, 1), (1, 1)], [Fraction(1), Fraction(2)])
        # the comparison stops at wall 1's family of tau_1, whose member 0 is perturbed
        with pytest.raises(
            bethe.BetheError, match=r"commutativity failed for pair \(\('tau-res', 1, "
        ):
            compare_pipeline(2, [(1, 1), (1, 1)], s_grid=(1, 2))

    def test_scan_coincident_points_reported_not_simple(self):
        report = scan_simple_spectrum(2, [(1, 1), (1, 1)], [Fraction(0)])
        assert not report["rows"][0]["simple"]
        assert "error" in report["rows"][0]
        assert report["spectrum"] is None
        # the configuration is refused before any family is built
        assert report["rows"][0]["orders"] == [] and report["rows"][0]["given_up"] == {}
