import json

import pytest

from krspectra.cli import main


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

    def test_export_without_shape_is_usage_error(self, capsys):
        code = main(["crystal", "export", "--n", "3"])
        assert code == 2

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _ = run(
            capsys, "crystal", "build", "--n", "2", "--kr", "1,1", "--json", str(path)
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["size"] == 2
        assert doc["config"]["n"] == 2


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
        code, doc = run(capsys, "gaudin", "manin", "--n", "2", "--z", "0",
                        "--chi", "1/3,-1/5")
        assert code == 0 and doc["trace_identity"]


class TestBetheCommand:
    def test_commute_certificate(self, capsys):
        code, doc = run(
            capsys, "bethe", "commute", "--n", "2", "--factors", "1,1;1,1",
            "--grid", "9",
        )
        assert code == 0
        assert doc["passed"]

    def test_degenerate_ratio_table(self, capsys):
        code, doc = run(
            capsys, "bethe", "degenerate", "--n", "2", "--factors", "1,1;1,1",
            "--eps", "1/8,1/16", "--c", "1", "--chi", "1/3,-1/4",
        )
        assert code == 0
        assert all(0.35 <= r <= 0.65 for r in doc["ratios"])


class TestCompareCommand:
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


class TestDeterminism:
    def test_same_seed_same_report(self, capsys):
        args = ["spectra", "scan", "--n", "2", "--factors", "1,1;1,1",
                "--s-grid", "1", "--seed", "7"]
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

        from krspectra import cli
        from krspectra.bethe import bethe_family
        from krspectra.pipeline import build_spectral_config, standard_torus
        from krspectra.spectra import eigenvalues_csv, joint_diagonalize

        built = []

        def counting(n, factors, s):
            built.append(s)
            return build_spectral_config(n, factors, s)

        monkeypatch.setattr(cli, "build_spectral_config", counting)
        path = tmp_path / "eig.csv"
        code, doc = run(
            capsys, "spectra", "scan", "--n", "2", "--factors", "1,1;1,1",
            "--s-grid", "1,2", "--csv", str(path),
        )
        assert code == 0
        assert built == [Fraction(1), Fraction(2)]
        assert doc["first_simple_s"] == "1"
        assert "spectrum" not in doc
        # the same CSV as diagonalizing the first simple s afresh
        cfg = build_spectral_config(2, [(1, 1), (1, 1)], Fraction(1))
        fam = bethe_family(standard_torus(2), cfg)
        members = fam.gens + [cfg.rep.delta(a, a) for a in (1, 2)]
        spec = joint_diagonalize(members, cfg.rep, tol=1e-8, seed=0)
        assert path.read_text() == eigenvalues_csv(spec)
