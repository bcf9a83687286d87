import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import krspectra
import krspectra.promotion as promotion
import krspectra.tableaux as tableaux
from krspectra.cli import main, make_parser


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestCrystalCommand:
    def test_build_kr_with_dot(self, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        code, doc = run(
            capsys, "crystal", "build", "--n", "4", "--kr", "2,2", "--dot", str(dot)
        )
        assert code == 0
        assert doc["size"] == 20
        assert doc["promotion_order"] == 4
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "->" in text

    def test_verify_non_rectangular_reports_non_extendable(self, capsys):
        code, doc = run(
            capsys, "crystal", "verify", "--n", "3", "--lambda", "2,1", "--affine"
        )
        assert code == 0
        assert doc["extendable"] is False
        assert doc["promotion_order"] != 3

    def test_lambda_with_trailing_zeros_builds_the_partition(self, capsys):
        code, doc = run(capsys, "crystal", "build", "--n", "3", "--lambda", "2,1,0")
        assert code == 0
        assert doc["lambda"] == [2, 1, 0] and doc["size"] == 8

    def test_export_without_shape_is_usage_error(self, capsys):
        code = main(["crystal", "export", "--n", "3"])
        assert code == 2

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["crystal", "build", "--n", "2", "--kr", "1,1", "--json", str(path)])
        assert code == 0
        # the file holds the printed report, byte for byte
        assert path.read_text() == capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["size"] == 2
        assert doc["config"]["n"] == 2

    def test_json_dash_writes_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, doc = run(capsys, "crystal", "build", "--n", "2", "--kr", "1,1", "--json", "-")
        assert code == 0
        assert isinstance(doc, dict) and doc["size"] == 2
        assert list(tmp_path.iterdir()) == []


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through every krspectra module bound to it."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("krspectra") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestSingleBuild:
    @pytest.mark.parametrize(
        "argv",
        [
            ["crystal", "verify", "--n", "4", "--lambda", "2,2", "--affine"],
            ["crystal", "verify", "--n", "4", "--kr", "2,2"],
            ["crystal", "build", "--n", "4", "--kr", "2,2"],
        ],
    )
    def test_one_crystal_and_one_promotion_pass(self, monkeypatch, capsys, argv):
        builds = count_calls(monkeypatch, tableaux, "build_crystal")
        promotions = count_calls(monkeypatch, promotion, "promote")
        code, doc = run(capsys, *argv)
        assert code == 0 and doc["promotion_order"] == 4
        assert len(builds) == 1
        assert len(promotions) == 20

    @pytest.mark.parametrize(
        "argv",
        [
            ["crystal", "verify", "--n", "4", "--kr", "2,2"],
            ["crystal", "verify", "--n", "4", "--lambda", "2,2", "--affine"],
            ["crystal", "build", "--n", "4", "--kr", "2,2"],
        ],
    )
    def test_one_affine_extension(self, monkeypatch, capsys, argv):
        extensions = count_calls(monkeypatch, promotion, "affine_extension")
        code, doc = run(capsys, *argv)
        assert code == 0 and doc["promotion_order"] == 4
        assert len(extensions) == 1

    def test_no_affine_extension_for_a_non_rectangle(self, monkeypatch, capsys):
        extensions = count_calls(monkeypatch, promotion, "affine_extension")
        code, doc = run(capsys, "crystal", "verify", "--n", "4", "--lambda", "2,1", "--affine")
        assert code == 0 and doc["extendable"] is False
        assert extensions == []

    def test_tensor_builds_each_distinct_factor_once(self, monkeypatch, capsys):
        # build_kr keeps its crystals, so the real builds are build_crystal's
        builds = count_calls(monkeypatch, tableaux, "build_crystal")
        code, doc = run(capsys, "tensor", "--n", "4", "--factors", "2,1;2,1;1,1")
        assert code == 0 and doc["size"] == 10 * 10 * 4
        assert sorted(builds) == [(4, (1,)), (4, (2,))]
        code, doc = run(capsys, "tensor", "--n", "4", "--factors", "1,1;2,1")
        assert code == 0 and doc["size"] == 4 * 10
        assert len(builds) == 2

    def test_kr_cap_is_checked_before_enumeration(self, monkeypatch, capsys):
        enumerated = count_calls(monkeypatch, tableaux, "enumerate_ssyt")
        code = main(["crystal", "build", "--n", "4", "--kr", "2,2", "--cap", "19"])
        assert code == 2
        assert enumerated == []
        assert "20 > cap 19" in capsys.readouterr().err
        code, doc = run(capsys, "crystal", "build", "--n", "4", "--kr", "2,2", "--cap", "20")
        assert code == 0 and doc["size"] == 20


class TestTensorCommand:
    def test_cap_is_a_usage_error_before_any_build(self, capsys, monkeypatch):
        import krspectra.cli as cli

        built = []
        monkeypatch.setattr(cli, "kr_tensor_crystal", lambda *args: built.append(args))
        code = main(["tensor", "--n", "3", "--factors", "1,1;1,1", "--cap", "8"])
        assert code == 2
        assert built == []
        assert "9 > cap 8" in capsys.readouterr().err

    def test_product_at_the_cap_is_built(self, capsys):
        code, doc = run(capsys, "tensor", "--n", "3", "--factors", "1,1;1,1", "--cap", "9")
        assert code == 0
        assert doc["size"] == 9


class TestGaudinCommand:
    def test_commute_passes(self, capsys):
        code, doc = run(
            capsys, "gaudin", "commute", "--n", "2", "--chi", "1/3,-1/3",
            "--z", "0,1",
        )
        assert code == 0
        assert doc["invariance"]["passed"]
        assert doc["commutator_residual"] == "exact zero"

    def test_exact_scalars_echo_losslessly(self, capsys):
        code, doc = run(
            capsys, "gaudin", "commute", "--n", "2", "--chi", "1/3,-1/3",
            "--z", "0,1",
        )
        assert doc["config"]["chi"] == "1/3,-1/3"

    def test_manin(self, capsys):
        # the antisymmetrized-trace identity is an oracle of the tests, and
        # `gaudin manin` is no action
        with pytest.raises(SystemExit) as stop:
            main(["gaudin", "manin", "--n", "2", "--z", "0", "--chi", "1/3,-1/5"])
        assert stop.value.code == 2
        assert "invalid choice: 'manin'" in capsys.readouterr().err


class TestBetheCommand:
    def test_commute_certificate(self, capsys):
        code, doc = run(
            capsys, "bethe", "commute", "--n", "2", "--factors", "1,1;1,1",
        )
        assert code == 0
        assert doc["passed"] and doc["normality"] == {"passed": True, "failures": []}
        assert doc["kind"] == "bethe" and doc["commutator_residual"] == "exact zero"
        assert doc["convention"].startswith("tau_a(u, C)")
        assert doc["generator_count"] == len(doc["tags"]) > 0
        assert doc["max_pole_multiplicity"] == 1

    def test_degenerate_ratio_table(self, capsys):
        code, doc = run(
            capsys, "bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1",
            "--eps", "1/8,1/16", "--chi", "1/3,-1/4",
        )
        assert code == 0
        assert all(0.35 <= r <= 0.65 for r in doc["ratios"])

    def test_readme_degenerate_example_distances_are_pinned(self, capsys):
        # bit for bit: the Gaudin targets are `gaudin.residue_members`
        argv = next(a for a in readme_examples() if a[:2] == ["bethe", "degenerate"])
        code, doc = run(capsys, *argv)
        assert code == 0
        assert [row["distance"] for row in doc["rows"]] == [
            0.19033591333332148, 0.09443022210386676, 0.04704142098576483,
        ]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1"], "needs --eps with two"),
            (
                ["bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1", "--eps", "1/8"],
                "needs --eps with two",
            ),
            (
                ["bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1", "--eps", "0,1/8"],
                "needs --eps with two or more nonzero",
            ),
            (
                ["bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1", "--eps", "1/8,1/0"],
                "not a rational number: '1/0'",
            ),
            (
                ["bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1", "--eps", "1/8,1/16",
                 "--chi", "1/3"],
                "--chi has 1 entries, need n = 2",
            ),
            (
                ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--chi", "1,2,3"],
                "--chi has 3 entries, need n = 2",
            ),
            (["gaudin", "commute", "--n", "2", "--z", "0,1", "--chi", "1/3"], "--chi has 1 entries"),
            (["gaudin", "commute", "--n", "2", "--z", "0,1", "--chi", "a,b"], "not a rational number"),
            (["gaudin", "commute", "--n", "2", "--z", "0,a"], "not a list of exact scalars: '0,a'"),
            (["bethe", "commute", "--n", "2", "--z", "0,1/0"], "not a list of exact scalars: '0,1/0'"),
            (
                ["bethe", "degenerate", "--n", "2", "--factors", "1,1;2,1", "--z", "0,-1/16",
                 "--eps", "1/8,1/16"],
                "--eps 1/8: two points z_i/eps + d_i coincide",
            ),
            (
                ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--eps", "1/8,1/16"],
                "bethe commute does not read --eps",
            ),
            (
                ["bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1", "--eps", "1/8,1/16",
                 "--wall", "1"],
                "bethe degenerate does not read --wall",
            ),
            (
                ["gaudin", "commute", "--n", "2", "--z", "0,1", "--s", "2"],
                "--s scales the default points, so it does not go with --z",
            ),
            (
                ["bethe", "commute", "--n", "2", "--z", "0,1", "--s", "2"],
                "--s scales the default points, so it does not go with --z",
            ),
            (
                ["gaudin", "commute", "--n", "2", "--z", "0,0"],
                "evaluation points must be distinct, got 0, 0",
            ),
            (
                ["gaudin", "commute", "--n", "2", "--factors", "1,1;1,1", "--s", "0"],
                "evaluation points must be distinct, got -1, -1",
            ),
            (
                ["bethe", "commute", "--n", "2", "--z", "1/2+i,1/2+i"],
                "evaluation points must be distinct, got 1/2+i, 1/2+i",
            ),
            (
                ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--s", "0"],
                "evaluation points must be distinct, got -1, -1",
            ),
        ],
        ids=[
            "no-eps", "one-eps", "zero-eps", "eps-1/0", "degenerate-chi",
            "commute-chi", "gaudin-chi", "gaudin-chi-text", "gaudin-z-text", "bethe-z-1/0",
            "merging-points",
            "commute-eps", "degenerate-wall", "gaudin-s-with-z", "bethe-s-with-z",
            "gaudin-equal-z", "gaudin-s-zero", "bethe-equal-z", "bethe-s-zero",
        ],
    )
    def test_bad_input_is_a_usage_error_before_any_build(
        self, monkeypatch, capsys, argv, message
    ):
        import krspectra.glrep as glrep

        tensors = count_calls(monkeypatch, glrep, "build_tensor")
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert tensors == []

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                {"command": "bethe", "action": "degenerate", "n": 2, "factors": "1,1;1,1",
                 "eps": "1/8,1/16", "wall": 1},
                "bethe degenerate does not read --wall",
            ),
            (
                {"command": "gaudin", "action": "commute", "n": 2, "z": "0,1", "s": "2"},
                "--s scales the default points",
            ),
        ],
        ids=["degenerate-wall", "gaudin-s-with-z"],
    )
    def test_unread_flag_in_a_config_file_is_a_usage_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestCompareCommand:
    def test_a_refused_scale_is_rejected_and_the_next_runs(self, capsys):
        # equal factors at s = 0 put both points at -1
        code, doc = run(
            capsys, "compare", "--n", "2", "--factors", "1,1;1,1", "--s-grid", "0,1",
        )
        assert code == 0 and doc["passed"] and doc["s"] == "1"
        assert doc["rejected_s"] == {"0": "evaluation points must be distinct"}

    def test_the_report_names_the_regular_family(self, capsys):
        code, doc = run(capsys, "compare", "--n", "3", "--factors", "1,1;1,2")
        assert code == 0 and doc["passed"]
        assert doc["regular_family"] == {"orders": [1], "given_up": {}}

    def test_n2_match(self, capsys):
        code, doc = run(
            capsys, "compare", "--n", "2", "--factors", "1,1;1,1",
            "--s-grid", "1",
        )
        assert code == 0
        assert doc["all_match"]

    def test_mismatch_is_nonzero_exit(self, capsys):
        # wrong lambda on the combinatorial side: compare spectra of w1 x w1
        # against B_{2 w_1} x B_{w_1}; dimension mismatch -> fail, exit 1
        from krspectra.pipeline import build_spectral_config, spectral_wall_statistics
        from krspectra.promotion import build_kr
        from krspectra.spectra import compare_with_crystal
        from krspectra.tensorcrystal import tensor

        cfg = build_spectral_config(2, [(1, 1), (1, 1)], s=1)
        stats = {}
        for j in (1, 2):
            stats[j % 2] = spectral_wall_statistics(cfg, j).statistics()
        wrong = tensor(build_kr(2, 2, 1), build_kr(2, 1, 1))
        report = compare_with_crystal(stats, wrong)
        assert not report["all_match"]


class TestOneMinorTablePerFactor:
    """Every s or eps of one run shares one rep and one minor table per
    factor and order."""

    def count(self, monkeypatch):
        from krspectra import bethe, glrep

        # the sweeps of the minor tables only, not those of a Gaudin cdet
        sweeps = []
        sweep = bethe.column_minors

        def recording(grid):
            sweeps.append(grid)
            return sweep(grid)

        monkeypatch.setattr(bethe, "column_minors", recording)
        reps = [
            count_calls(monkeypatch, glrep, name) for name in ("build_defining", "build_irrep")
        ]
        return sweeps, reps

    def test_spectra_scan_over_three_s(self, monkeypatch, capsys):
        sweeps, (defining, irrep) = self.count(monkeypatch)
        code, doc = run(
            capsys, "spectra", "scan", "--n", "3", "--factors", "1,1;1,2", "--s-grid", "1,2,3",
        )
        assert code == 0 and [row["s"] for row in doc["rows"]] == ["1", "2", "3"]
        # every s takes tau_1, whose factor tables are each factor's T(u):
        # no sweep at all
        assert [row["orders"] for row in doc["rows"]] == [[1]] * 3
        assert sweeps == []
        assert defining == [(3,)] and irrep == [(3, 1, 2)]

    def test_compare_over_three_s(self, monkeypatch, capsys):
        from krspectra import pipeline
        from krspectra.spectra import SpectraError

        sweeps, (defining, irrep) = self.count(monkeypatch)
        walls = pipeline.spectral_wall_statistics

        def rejected_below_3(cfg, j):
            strings = walls(cfg, j)
            if cfg.points[-1].im < 3:
                raise SpectraError(f"scale below 3 at wall {j}")
            return strings

        monkeypatch.setattr(pipeline, "spectral_wall_statistics", rejected_below_3)
        code, doc = run(
            capsys, "compare", "--n", "3", "--factors", "1,1;1,2", "--s-grid", "1,2,3",
        )
        assert code == 0 and doc["s"] == "3"
        assert doc["rejected_s"] == {"1": "scale below 3 at wall 1", "2": "scale below 3 at wall 1"}
        # the wall family and the regular family both take tau_1, whose
        # factor tables are each factor's T(u): no sweep at all
        assert doc["wall_family"]["orders"] == doc["regular_family"]["orders"] == [1]
        assert sweeps == []
        assert defining == [(3,)] and irrep == [(3, 1, 2)]

    def test_bethe_degenerate_over_three_eps(self, monkeypatch, capsys):
        sweeps, (defining, irrep) = self.count(monkeypatch)
        code, doc = run(
            capsys, "bethe", "degenerate", "--n", "2", "--factors", "1,1;2,1;1,1",
            "--eps", "1/8,1/16,1/32", "--chi", "1/3,-1/4",
        )
        assert code == 0 and len(doc["rows"]) == 3
        # the one column set of size 2 at n = 2 for V_{2 w_1}, once; order 1
        # is read off the rep, and V_{w_1} takes no sweep
        assert len(sweeps) == 1
        assert defining == [(2,)] and irrep == [(2, 2, 1)]


class TestAlcoveCommand:
    def test_classify_regular(self, capsys):
        code, doc = run(capsys, "alcove", "classify", "--x", "1/2,1/5,0")
        assert code == 0
        assert doc["regular"] and doc["sigma"] == [1, 2, 3]

    def test_classify_wall_point(self, capsys):
        code, doc = run(capsys, "alcove", "classify", "--x", "1/2,1/2,0")
        assert code == 0
        assert not doc["regular"]
        assert doc["walls"]

    def test_classify_a_far_point(self, capsys):
        # far from the base alcove: x = (-400001/4, 400001/4)
        code, doc = run(capsys, "alcove", "classify", "--x=0,400001/2")
        assert code == 0 and doc["regular"]
        assert doc["sigma"] == [2, 1] and doc["translation"] == [200000, 0]


class TestConfigFile:
    def test_config_file_equivalent_to_flags(self, tmp_path, capsys):
        cfg = {"command": "crystal", "action": "build", "n": 2, "kr": "1,1"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, doc = run(capsys, "--config", str(path))
        assert code == 0
        assert doc["size"] == 2

    def test_no_command_usage(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "error: cannot read config {path}"),
            ('{"command": "crystal",', "error: cannot read config {path}"),
            ('["crystal", "build"]', "error: config {path} is not a JSON object"),
        ],
        ids=["missing-file", "invalid-json", "json-array"],
    )
    def test_a_bad_config_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert main(["--config", str(path)]) == 2
        assert message.format(path=path) in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_same_report(self, capsys):
        args = ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1",
                "--s-grid", "1"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestSpectraScanCsv:
    def test_csv_comes_from_the_scan_one_build_per_grid_value(
        self, tmp_path, capsys, monkeypatch
    ):
        from fractions import Fraction

        from krspectra import pipeline
        from krspectra.bethe import bethe_family
        from krspectra.pipeline import build_spectral_config, standard_torus
        from krspectra.spectra import eigenvalues_csv, joint_diagonalize

        built = []

        def counting(n, factors, s):
            built.append(s)
            return build_spectral_config(n, factors, s)

        # the scan looks the function up in pipeline when it runs
        monkeypatch.setattr(pipeline, "build_spectral_config", counting)
        path = tmp_path / "eig.csv"
        code, doc = run(
            capsys, "spectra", "scan", "--n", "2", "--factors", "1,1;1,1",
            "--s-grid", "1,2", "--csv", str(path),
        )
        assert code == 0
        assert built == [Fraction(1), Fraction(2)]
        assert doc["first_simple_s"] == "1"
        assert "spectrum" not in doc
        # the same CSV as diagonalizing afresh the family that the first
        # simple s's row names: one re_m and one im_m column per member
        orders = doc["rows"][0]["orders"]
        cfg = build_spectral_config(2, [(1, 1), (1, 1)], Fraction(1))
        fam = bethe_family(standard_torus(2), cfg, orders)
        spec = joint_diagonalize(fam.gens, cfg.rep)
        assert path.read_text() == eigenvalues_csv(spec)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 2 * len(fam)

    def test_a_row_names_the_orders_of_the_family_it_diagonalized(self, tmp_path, capsys):
        from krspectra.bethe import bethe_family
        from krspectra.pipeline import build_spectral_config, standard_torus

        path = tmp_path / "eig.csv"
        code, doc = run(
            capsys, "spectra", "scan", "--n", "4", "--factors", "2,2", "--s-grid", "1",
            "--csv", str(path),
        )
        assert code == 0
        # tau_1 is Cartan on one factor, and V_{2 w_2} has weight multiplicities
        (row,) = doc["rows"]
        assert row["simple"] and row["orders"] == [1, 2]
        assert list(row["given_up"]) == ["1"] and row["given_up"]["1"].startswith("not simple")
        cfg = build_spectral_config(4, [(2, 2)], 1)
        members = len(bethe_family(standard_torus(4), cfg, [1, 2]))
        assert members < len(bethe_family(standard_torus(4), cfg))
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 2 * members


class TestReportsAreJson:
    @pytest.mark.parametrize("n,factors", [("2", "1,2"), ("3", "1,3;1,3"), ("1", "1,1")])
    def test_a_scan_of_a_one_line_spectrum_reports_no_gap(self, capsys, n, factors):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert main(["spectra", "scan", "--n", n, "--factors", factors]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert [row["min_gap"] for row in doc["rows"]] == [None, None, None]
        assert doc["first_simple_s"] == "1"

    def test_a_scan_with_only_1x1_weight_blocks_reports_no_gap(self, capsys):
        # every weight space of C^3 is a line: no two lines share a block
        assert main(["spectra", "scan", "--n", "3", "--factors", "1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(row["simple"], row["min_gap"]) for row in doc["rows"]] == [(True, None)] * 3

    def test_a_pair_that_fails_to_commute_ends_the_scan_with_exit_1(self, capsys, monkeypatch):
        from fractions import Fraction

        from krspectra import bethe
        from krspectra.scalars import Mat, QQi

        members = bethe.tau_members

        def perturbed(C, cfg, orders=None):
            # basis vectors 1 and 2 of C^2 x C^2 share the weight (1, 1)
            out = members(C, cfg, orders)
            tag, g = out[0]
            out[0] = (tag, g + Mat.unit(g.nr, g.nc, 1, 2, QQi(Fraction(1, 7))))
            return out

        monkeypatch.setattr(bethe, "tau_members", perturbed)
        assert main(["spectra", "scan", "--n", "2", "--factors", "1,1;1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed: BetheError: commutativity failed for pair" in captured.err

    def test_a_non_finite_float_is_refused_not_printed(self, capsys):
        from krspectra.cli import emit

        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                emit({"gap": value}, {})
        assert capsys.readouterr().out == ""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    """Export bytes pinned by sha256, recorded before crystal graphs moved to
    integer ids, so the node and edge order cannot drift."""

    def test_tensor_dot(self, tmp_path, capsys):
        dot = tmp_path / "t.dot"
        code, _ = run(capsys, "tensor", "--n", "3", "--factors", "1,1;2,1", "--dot", str(dot))
        assert code == 0
        assert sha256(dot.read_bytes()) == (
            "4fdf49aeb885c400d1b89ff22ece90d9e98b14aa75a88f345ce28606fdb902d3"
        )

    def test_crystal_export_dot_and_json_graph(self, tmp_path, capsys):
        dot, graph = tmp_path / "c.dot", tmp_path / "c.json"
        code, _ = run(
            capsys, "crystal", "export", "--n", "3", "--kr", "2,1",
            "--dot", str(dot), "--json-graph", str(graph),
        )
        assert code == 0
        assert sha256(dot.read_bytes()) == (
            "7f415787c725c59c26c9daf0438656760cc76d94e7f14948ff6f42729baee3bb"
        )
        assert sha256(graph.read_bytes()) == (
            "2605e7e80af1bd2088753383a606182d301cbd8dde8c314da5a36e9bfc0700e3"
        )

    def test_orbit_table(self, capsys):
        code, doc = run(capsys, "crystal", "build", "--n", "4", "--kr", "2,2")
        assert code == 0
        assert sha256(json.dumps(doc["orbit_table"]).encode()) == (
            "883d7be960dc6f4fa76bcd42f4990cd30686953d41dd0dddf9a75333b928a80d"
        )


def quoted_numbers(doc):
    """Every string value of a parsed report (not a key) that spells an integer."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in quoted_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in quoted_numbers(v)]
    return [doc] if isinstance(doc, str) and doc.lstrip("-").isdigit() else []


class TestReportsHoldPlainInts:
    """`emit` prints what `json` cannot encode with `str`, so a numpy integer
    in a report would print as a quoted number.  The stdout hashes are of
    one line of JSON: the reports recorded while crystal graphs were lists
    of Python ints, parsed and encoded again without `indent`."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["tensor", "--n", "3", "--factors", "1,1;2,1;1,2"],
                "e44b12de74a30144781122679831d92641724631c5f82aea0fb4ba08b694abce",
            ),
            (
                ["tensor", "--n", "4", "--factors", "2,1;1,1;2,1;1,1"],
                "1f10b3bb4aa502cde9938891b4d269dd1422f78a6e887e42c39451a735b50b75",
            ),
            (
                # a 41-entry (length, weight) row, too wide to pack into one int64
                ["tensor", "--n", "40", "--factors", "1,1"],
                "6e8e8779eb2839409cdd561bacc18eec4bede6cda23d6461f5344ac95c2bcdd7",
            ),
            (
                ["crystal", "verify", "--n", "4", "--lambda", "2,2", "--affine"],
                "6652309fedc3849a188cefa46251bb0607a85e62c908cccb7be1224939782dec",
            ),
            (
                ["crystal", "verify", "--n", "3", "--lambda", "2,1", "--affine"],
                "2294399464f323444f839a3e89ed2daa2fec0714b0fe17449511043332903e85",
            ),
        ],
        ids=["tensor-n3", "tensor-1600", "tensor-n40", "verify-2,2", "verify-2,1"],
    )
    def test_no_quoted_numbers_and_the_same_bytes(self, capsys, argv, digest):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert quoted_numbers(json.loads(out)) == []
        assert sha256(out.encode()) == digest

    def test_the_guard_sees_a_numpy_integer(self, capsys):
        import numpy as np

        from krspectra.cli import emit

        emit({"size": np.int64(3), "stats": [[np.int64(1), 2]]}, {"json": None})
        assert quoted_numbers(json.loads(capsys.readouterr().out)) == ["3", "1"]


class TestParserCache:
    def test_one_parser_per_process(self):
        assert make_parser() is make_parser()

    def test_no_default_leaks_between_calls(self, capsys):
        # --cap in the first call must not carry over into the second
        calls = [
            ["tensor", "--n", "3", "--factors", "1,1;1,1", "--cap", "9"],
            ["tensor", "--n", "3", "--factors", "1,1;1,1"],
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        src = str(Path(krspectra.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "krspectra.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            for argv in calls
        ]
        assert in_process == [(p.returncode, p.stdout) for p in fresh]
        assert json.loads(in_process[1][1])["config"]["cap"] == 100000


# what each subcommand's parse leaves in vars(), besides config, command and
# func: exactly the options its cmd_* reads
OPTIONS = {
    "crystal": (
        ["crystal", "build", "--n", "2", "--kr", "1,1"],
        {"action", "n", "kr", "lam", "affine", "json_graph", "json", "dot", "cap"},
    ),
    "tensor": (
        ["tensor", "--n", "2", "--factors", "1,1"],
        {"n", "factors", "json", "dot", "cap"},
    ),
    "alcove": (["alcove", "classify", "--x", "0,0"], {"action", "x", "json"}),
    "gaudin": (
        ["gaudin", "commute", "--n", "2", "--z", "0,1"],
        {"action", "n", "chi", "z", "factors", "s", "json", "dimcap"},
    ),
    "bethe": (
        ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1"],
        {"action", "n", "factors", "z", "chi", "s", "wall", "eps", "json", "dimcap"},
    ),
    "spectra": (
        ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1"],
        {"action", "n", "factors", "s_grid", "csv", "json", "dimcap"},
    ),
    "compare": (
        ["compare", "--n", "2", "--factors", "1,1;1,1"],
        {"n", "factors", "s_grid", "json", "dimcap"},
    ),
}


class TestOptionSets:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_subcommand_registers_only_what_it_reads(self, command):
        argv, options = OPTIONS[command]
        assert set(vars(make_parser().parse_args(argv))) == options | {
            "config", "command", "func",
        }

    def test_settable_value_count(self):
        # --config plus the per-subcommand options
        assert 1 + sum(len(options) for _, options in OPTIONS.values()) == 48

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--n", "2", "--factors", "1,1;1,1", "--dot", "x.dot"],
            ["alcove", "classify", "--x", "0,0,0", "--n", "3"],
            ["gaudin", "commute", "--n", "2", "--z", "0,1", "--k", "2"],
            ["crystal", "build", "--n", "2", "--kr", "1,1", "--seed", "1"],
            ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1", "--seed", "1"],
            ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1", "--tol", "1e-6"],
            ["compare", "--n", "2", "--factors", "1,1;1,1", "--seed", "1"],
            ["compare", "--n", "2", "--factors", "1,1;1,1", "--tol", "1e-6"],
            ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--grid", "9"],
            ["bethe", "degenerate", "--n", "2", "--eps", "1/8,1/16", "--c", "2"],
            ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--c", "1"],
        ],
    )
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            make_parser().parse_args(argv)
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDimensionPreflight:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--n", "2", "--factors", "1,1;1,1", "--dimcap", "3"],
            ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1", "--dimcap", "3"],
            ["gaudin", "commute", "--n", "2", "--z", "0,1", "--dimcap", "3"],
            ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--dimcap", "3"],
        ],
    )
    def test_over_the_cap_is_refused_before_any_build(self, monkeypatch, capsys, argv):
        import krspectra.glrep as glrep

        tensors = count_calls(monkeypatch, glrep, "build_tensor")
        reps = count_calls(monkeypatch, glrep, "build_defining")
        crystals = count_calls(monkeypatch, tableaux, "build_crystal")
        assert main(argv) == 2
        assert tensors == reps == crystals == []
        assert "tensor dimension 4 exceeds the cap; raise --dimcap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "--n", "2"],
            ["compare", "--n", "2"],
            ["spectra", "scan", "--n", "2"],
            ["gaudin", "commute", "--n", "2", "--z", "0,1"],
            ["bethe", "commute", "--n", "2"],
            ["bethe", "degenerate", "--n", "2", "--eps", "1/8,1/16"],
        ],
    )
    def test_invalid_factor_is_refused_before_any_build(self, monkeypatch, capsys, argv):
        import krspectra.glrep as glrep

        tensors = count_calls(monkeypatch, glrep, "build_tensor")
        reps = count_calls(monkeypatch, glrep, "build_defining")
        krs = count_calls(monkeypatch, promotion, "build_kr")
        crystals = count_calls(monkeypatch, tableaux, "build_crystal")
        for factors, bad in [("1,3;1,1", "1,3"), ("0,1;1,1", "0,1"), ("1,1;1,0", "1,0")]:
            assert main(argv + ["--factors", factors]) == 2
            assert f"invalid KR factor {bad}" in capsys.readouterr().err
        assert tensors == reps == krs == crystals == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["crystal", "build", "--n", "2", "--kr", "0,1"], "invalid KR factor 0,1"),
            (["crystal", "build", "--n", "2", "--kr", "1,0"], "invalid KR factor 1,0"),
            (["compare", "--n", "1", "--factors", "1,1"], "compare needs n >= 2"),
            (
                ["bethe", "commute", "--n", "2", "--factors", "1,1;1,1", "--wall", "3"],
                "--wall 3 is not a wall index",
            ),
            (["tensor", "--n", "2", "--factors", "1"], "not two integers l,r: '1'"),
            (["tensor", "--n", "2", "--factors", "1,1;1,x"], "not two integers l,r: '1,x'"),
            (["compare", "--n", "2", "--factors", "1,1,1"], "not two integers l,r: '1,1,1'"),
            (["crystal", "build", "--n", "2", "--kr", "1"], "not two integers l,r: '1'"),
            (["crystal", "build", "--n", "2", "--kr", "1,1;1,1"], "--kr takes one factor l,r"),
            (["crystal", "build", "--n", "2", "--lambda", "a"], "not a partition: 'a'"),
            (["alcove", "classify", "--x", "1/2"], "--x needs two or more coordinates, got '1/2'"),
            (["crystal", "build", "--n", "3", "--lambda", "2,-1"], "not a partition: (2, -1)"),
            (["crystal", "build", "--n", "3", "--lambda", "0,1"], "not a partition: (0, 1)"),
            (
                ["compare", "--n", "2", "--factors", "1,1;1,1", "--s-grid", ","],
                "--s-grid holds no scale: ','",
            ),
            (
                ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1", "--s-grid", ","],
                "--s-grid holds no scale: ','",
            ),
            (
                ["bethe", "commute", "--n", "1", "--factors", "1,1", "--wall", "1"],
                "--wall needs n >= 2 for its alcove walls, got n = 1",
            ),
        ],
    )
    def test_input_without_meaning_is_refused_before_any_build(
        self, monkeypatch, capsys, argv, message
    ):
        import krspectra.glrep as glrep

        tensors = count_calls(monkeypatch, glrep, "build_tensor")
        crystals = count_calls(monkeypatch, tableaux, "build_crystal")
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert tensors == crystals == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaudin", "commute", "--n", "5", "--z", "0,1"],
            ["gaudin", "wall", "--n", "5", "--factors", "1,1;1,1"],
            ["bethe", "degenerate", "--n", "5", "--factors", "1,1;1,1", "--eps", "1/8,1/16"],
        ],
        ids=["gaudin-commute", "gaudin-wall", "bethe-degenerate"],
    )
    def test_gaudin_cdet_past_n_4_is_refused_before_any_build(self, monkeypatch, capsys, argv):
        import krspectra.gaudin as gaudin
        import krspectra.glrep as glrep

        tensors = count_calls(monkeypatch, glrep, "build_tensor")
        reps = count_calls(monkeypatch, glrep, "build_defining")
        cdets = count_calls(monkeypatch, gaudin, "gaudin_cdet")
        assert main(argv) == 2
        assert "n = 5 exceeds 4, the largest n of the Gaudin cdet" in capsys.readouterr().err
        assert tensors == reps == cdets == []

    def test_at_the_cap_runs(self, capsys):
        code, doc = run(
            capsys, "compare", "--n", "2", "--factors", "1,1;1,1", "--s-grid", "1",
            "--dimcap", "4",
        )
        assert code == 0 and doc["all_match"]

    def test_matches_the_built_rectangle_on_the_grid(self):
        from test_promotion import GRID

        from krspectra.cli import check_size
        from krspectra.pipeline import kr_rep

        for (n, l, r) in GRID:
            assert check_size(n, [(l, r)], math.inf) == kr_rep(n, l, r).dim

    def test_matches_every_benchmark_factor_list(self):
        from test_bench_digests import load_workloads

        from krspectra.cli import DIMCAP, check_size, parse_factors
        from krspectra.pipeline import build_spectral_config, kr_tensor_crystal

        wl = load_workloads()
        lists = set()
        for workload in wl.WORKLOADS:
            for case in wl.all_cases(workload):
                argv = list(case.argv)
                if "--factors" in argv:
                    n, text = int(argv[argv.index("--n") + 1]), argv[argv.index("--factors") + 1]
                elif case.extra and "factors" in case.extra:
                    n, text = case.extra["n"], case.extra["factors"]
                else:
                    continue
                lists.add((n, tuple(sorted(parse_factors(text)))))
        assert len(lists) > 10
        for n, factors in sorted(lists):
            size = check_size(n, factors, math.inf)
            if size <= DIMCAP:
                assert size == build_spectral_config(n, factors, 1).rep.dim, (n, factors)
            else:
                # the crystal workload's products: their reps are not built
                assert size == len(kr_tensor_crystal(n, factors)), (n, factors)


def readme_examples():
    """The argv lists of the `krspectra ...` lines in the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("krspectra ")]
    return [shlex.split(line)[1:] for line in lines]


class TestReadme:
    def test_every_cli_example_parses(self):
        examples = readme_examples()
        assert len(examples) >= 10
        for argv in examples:
            assert make_parser().parse_args(argv).func, argv

    def test_every_cli_example_runs(self, tmp_path, monkeypatch, capsys):
        # examples that write files write them into tmp_path
        monkeypatch.chdir(tmp_path)
        for argv in readme_examples():
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
