import json

import pytest

from diskcal.cli import main


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


BASE_CFG = {
    "map": {"family": "rotation", "alpha": 0.3},
    "compute": ["verify-link"],
    "budgets": {"pairs": 1000, "seed": 7, "grid": [32, 64], "rho_iterates": 2000},
}


class TestCompute:
    def test_verify_link_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass_link"] and report["pass_23"]
        assert abs(report["cal2"] - 0.3) < 1e-6
        csv_text = (out / "report.csv").read_text().splitlines()
        assert csv_text[0].startswith("map_name,cal1,")
        assert len(csv_text) == 2

    def test_selected_computations_only(self, tmp_path):
        cfg_dict = {
            "map": {"family": "quadratic_twist", "beta": 0.3},
            "compute": ["cal1", "cal3", "rho"],
            "budgets": {"grid": [64, 128], "rho_iterates": 1000},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o2"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["cal1"] - 0.2) < 1e-5
        assert abs(report["cal3"] - 0.2) < 1e-6
        assert report["cal2"] is None

    def test_c_mu_computation(self, tmp_path):
        cfg_dict = {
            "map": {"family": "rotation", "alpha": 0.2},
            "compute": ["c-mu"],
            "budgets": {"seed": 3, "c_mu_points": 60},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o3"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["diag_c_mu"] - 0.2 * (1 - 1 / 60)) < 1e-9

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--out", str(out), "--workers", "2", "compute", "--config", cfg]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_mandatory_for_monte_carlo(self, tmp_path):
        cfg_dict = {"map": {"family": "rotation", "alpha": 0.3}, "compute": ["cal2"], "budgets": {}}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["--out", str(tmp_path / "x"), "compute", "--config", cfg]) == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"map": {"family": "not-a-family"}})
        assert main(["--out", str(tmp_path / "x"), "compute", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["--out", str(tmp_path), "compute", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("budgets, alpha", [
        ({"grid": [0, 0]}, 0.3),
        ({"rho_iterates": 0}, 0.3),
        ({"pairs": 0}, 0.3),
        ({}, float("nan")),
    ], ids=["grid0", "rho_iterates0", "pairs0", "alpha_nan"])
    def test_degenerate_config_is_config_error(self, tmp_path, capsys, budgets, alpha):
        cfg_dict = {
            "map": {"family": "compose", "maps": [{"family": "quadratic_twist", "beta": 0.3},
                                                  {"family": "rotation", "alpha": alpha}]},
            "compute": ["verify-link"],
            "budgets": dict(BASE_CFG["budgets"], **budgets),
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "x"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # twist profile not vanishing on the boundary: a numerical-domain failure
        cfg = write_config(
            tmp_path,
            {"map": {"family": "radial_twist", "coeffs": [0.3, -0.3, 0.3]},
             "compute": ["cal3"], "budgets": {}},
        )
        assert main(["--out", str(tmp_path / "x"), "compute", "--config", cfg]) == 3
        assert "BoundaryNotConstant" in capsys.readouterr().err


class TestExperimentCommand:
    def test_c0_discontinuity(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": {"ns": [2, 4]}})
        out = tmp_path / "exp"
        assert main(["--out", str(out), "experiment", "c0-discontinuity", "--config", cfg]) == 0
        data = json.loads((out / "c0-discontinuity.json").read_text())
        assert data["passed"]
        csv_lines = (out / "c0-discontinuity.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    def test_unknown_experiment_rejected(self, tmp_path):
        code = main(["--out", str(tmp_path), "experiment", "c1-continuity", "--config",
                     str(tmp_path / "missing.json")])
        assert code == 2


class TestCfCommand:
    def test_golden_fibonacci_column(self, tmp_path):
        out = tmp_path / "cf"
        assert main(["--out", str(out), "cf", "--alpha", "0.6180339887498949", "--depth", "12"]) == 0
        rows = json.loads((out / "cf.json").read_text())["rows"]
        assert [int(r["q_n"]) for r in rows[:7]] == [1, 1, 2, 3, 5, 8, 13]
        assert all(r["best_approx"] in (True, None) for r in rows)

    def test_synthetic_non_bruno_labelled(self, tmp_path):
        out = tmp_path / "cf2"
        assert main(["--out", str(out), "cf", "--synthetic", "non-bruno"]) == 0
        data = json.loads((out / "cf2" if False else out / "cf.json").read_text())
        assert "non-bruno-like" in data["labels"]

    def test_rational_terminates(self, tmp_path):
        out = tmp_path / "cf3"
        assert main(["--out", str(out), "cf", "--alpha", str(3.0 / 7.0), "--depth", "10"]) == 0
        data = json.loads((out / "cf.json").read_text())
        assert data["terminated"]
        assert [int(r["a_n"]) for r in data["rows"]] == [0, 2, 3]

    def test_quotients_input(self, tmp_path):
        out = tmp_path / "cf4"
        assert main(["--out", str(out), "cf", "--quotients", "0,1,1,1,1,1"]) == 0
        rows = json.loads((out / "cf.json").read_text())["rows"]
        assert [int(r["q_n"]) for r in rows] == [1, 1, 2, 3, 5, 8]

    def test_missing_input_rejected(self, tmp_path):
        assert main(["--out", str(tmp_path), "cf"]) == 2
