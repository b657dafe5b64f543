import csv
import inspect
import io
import json

import pytest

import diskcal.experiments
from diskcal import calabi, cli
from diskcal.calabi import PairSampler, cal1, cal2_tilde, cal3_tilde, verify_link
from diskcal.cli import main
from diskcal.experiments import exp_rigidity
from diskcal.zoo import from_spec


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

    @pytest.mark.parametrize("strategy", ["uniform", "stratified"])
    def test_cal2_alone(self, tmp_path, strategy):
        spec = {"family": "bump", "n": 4}
        cfg_dict = {"map": spec, "compute": ["cal2"],
                    "budgets": {"seed": 7, "pairs": 4000, "strategy": strategy}}
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        res = cal2_tilde(from_spec(spec), PairSampler(n=4000, seed=7, strategy=strategy))
        assert (report["cal2"], report["cal2_stderr"]) == (res.value, res.stderr)
        assert report["diag_n_pairs"] == res.n_pairs == 4000
        assert (report["diag_strategy"], report["diag_retried_pairs"]) == (strategy, res.retried)
        assert report["cal1"] is None and report["cal3"] is None

    @pytest.mark.parametrize("wanted, code", [(["cal1"], 2), (["cal3"], 0)])
    def test_small_grid_refused_where_richardson_runs(self, tmp_path, wanted, code):
        # cal1's half-resolution delta needs a grid of at least (32, 64); cal3 has none
        cfg_dict = {"map": {"family": "quadratic_twist", "beta": 0.3}, "compute": wanted,
                    "budgets": {"grid": [16, 32]}}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["--out", str(tmp_path / "o"), "compute", "--config", cfg]) == code

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
        ({"quad_budget": float("nan")}, 0.3),
        ({"quad_budget": -1}, 0.3),
        ({"strategy": "bogus"}, 0.3),
        ({"workers": "two"}, 0.3),
        ({"seed": "abc"}, 0.3),
        ({"c_mu_points": 0}, 0.3),
        ({"strategy": "stratified", "pairs": 64}, 0.3),
        ({"grid": [16, 32]}, 0.3),
        ({"pairs": 1}, 0.3),
        ({"c_mu_points": 1}, 0.3),
        ({"rho_iterates": 10**400}, 0.3),
    ], ids=["grid0", "rho_iterates0", "pairs0", "alpha_nan", "quad_budget_nan",
            "quad_budget_negative", "strategy_bogus", "workers_str", "seed_str", "c_mu_points0",
            "stratified_pairs64", "grid_without_richardson", "pairs1", "c_mu_points1",
            "rho_iterates_beyond_floats"])
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

    @pytest.mark.parametrize("spec", [
        {"family": "bump", "n": 4.5},
        {"family": "bump", "n": "4"},
        {"family": "iterate", "map": {"family": "rotation", "alpha": 0.1}, "n": 2.5},
        {"family": "bump", "n": 10**400},
        {"family": "iterate", "n": 10**20, "map": {"family": "compose", "maps": [
            {"family": "rotation", "alpha": 0.1}, {"family": "bump", "n": 4}]}},
        {"family": "iterate", "n": 2**45, "map": {"family": "compose", "maps": [
            {"family": "rotation", "alpha": 0.1}, {"family": "quadratic_twist", "beta": 0.3}]}},
    ], ids=["bump_fraction", "bump_str", "iterate_fraction", "bump_beyond_floats", "iterate_beyond_2_53",
            "iterate_beyond_piece_bound"])
    def test_non_integral_map_counts_are_config_errors(self, tmp_path, capsys, spec):
        # map counts follow the CLI's own integer rule: no truncation, no
        # strings, nothing 2^53 or more in size; an iterate that concatenates
        # copies stays within zoo.MAX_ITERATE_PIECES (2^46 pieces here, more
        # pointers than the user address space holds)
        cfg = write_config(tmp_path, {"map": spec, "compute": ["cal3"], "budgets": {}})
        out = tmp_path / "x"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("wanted, budgets", [
        (["cal2"], {"seed": 7, "pairs": 2**45}),
        (["c-mu"], {"seed": 7, "c_mu_points": 2**45}),
        (["c-mu"], {"seed": 7, "c_mu_points": 2**20}),
        (["cal3"], {"grid": [64, 2**45]}),
        (["verify-link"], {"seed": 7, "pairs": 2**45}),
    ], ids=["cal2_pairs", "c_mu_points", "c_mu_value_row", "cal3_grid", "verify_link_pairs"])
    def test_budgets_no_memory_holds_are_config_errors(self, tmp_path, capsys, monkeypatch, wanted, budgets):
        # 2^45 samples are 256 TiB of floats, more than the user address
        # space holds, so the allocation is refused at once and nothing runs.
        # 2^20 c-mu points fit in 16 MiB, but their row of 2^20 (2^20 - 1) / 2
        # pair windings (4.4 TB) is allocated before the first winding
        wound = []
        monkeypatch.setattr(calabi, "chord_windings", lambda *args, **kw: wound.append(args))
        cfg = write_config(tmp_path, {"map": {"family": "rotation", "alpha": 0.3}, "compute": wanted,
                                      "budgets": budgets})
        out = tmp_path / "x"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 2
        assert wound == []
        assert "MemoryError" in capsys.readouterr().err
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


ROUTE_KEYS = {  # route -> (the report fields it writes, the diag_* keys it writes)
    "cal1": (("cal1", "cal1_richardson"),
             ("diag_area_residual", "diag_mu_periodic", "diag_grid_r", "diag_grid_theta")),
    "cal2": (("cal2", "cal2_stderr"),
             ("diag_n_pairs", "diag_resampled_pairs", "diag_retried_pairs", "diag_strategy")),
    "cal3": (("cal3",), ("diag_grid_r", "diag_grid_theta")),
    "rho": (("rho", "rho_halfwidth", "rho_iterates"), ()),
}


class TestRouteReports:
    # a partial report is the verify-link report without the identity fields:
    # each route writes its own fields and diag_* keys, the bytes of the full
    # report, and every report its seed and workers
    CFG = {
        "map": {"family": "compose", "maps": [{"family": "quadratic_twist", "beta": 0.3},
                                              {"family": "rotation", "alpha": 0.2}]},
        "budgets": dict(BASE_CFG["budgets"], strategy="stratified"),
    }

    def _report(self, tmp_path, compute):
        cfg = write_config(tmp_path, dict(self.CFG, compute=compute))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--workers", "2", "compute", "--config", cfg]) == 0
        return json.loads((out / "report.json").read_text())

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        return self._report(tmp_path_factory.mktemp("full"), ["verify-link"])

    @pytest.mark.parametrize("routes", [["cal1"], ["cal2"], ["cal3"], ["rho"], list(ROUTE_KEYS)],
                             ids=["cal1", "cal2", "cal3", "rho", "all"])
    def test_a_partial_report_is_the_full_one_cut_to_its_routes(self, tmp_path, full, routes):
        report = self._report(tmp_path, routes)
        own = {"map_name", "diag_seed", "diag_workers"}.union(*(sum(ROUTE_KEYS[r], ()) for r in routes))
        assert {k for k, v in report.items() if v is not None or k.startswith("diag_")} == own
        for key in own:
            assert json.dumps(report[key]) == json.dumps(full[key]), key
        assert report["diag_workers"] == 2


class TestExperimentCommand:
    @pytest.mark.parametrize("name, params", [
        ("rigidity", {"depth": "abc"}),
        ("rigidity", {"far_pairs": 2.5}),
        ("rigidity", {"alpha": float("nan")}),
        ("rigidity", {"tau": float("inf")}),
        ("c1-continuity", {"pairs": 0}),
        ("c1-continuity", {"pairs": 1}),
        ("c1-continuity", {"scales": [0.01, float("nan")]}),
        ("c1-continuity", {"seed": -1}),
        ("c0-discontinuity", {"ns": [1]}),
        ("c0-discontinuity", {"ns": []}),
        # c0's cal allowance is the constant C0_CAL_BUDGET, not a key
        ("c0-discontinuity", {"cal_budget": 1e-3}),
    ], ids=["depth_str", "far_pairs_fraction", "alpha_nan", "tau_inf", "pairs0", "pairs1", "scale_nan",
            "seed_negative", "ns1", "ns_empty", "cal_budget_unknown"])
    def test_degenerate_parameters_are_config_errors(self, tmp_path, capsys, name, params):
        cfg = write_config(tmp_path, {"experiment": params})
        out = tmp_path / "exp"
        assert main(["--out", str(out), "experiment", name, "--config", cfg]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    def test_c0_discontinuity(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": {"ns": [2, 4]}})
        out = tmp_path / "exp"
        assert main(["--out", str(out), "experiment", "c0-discontinuity", "--config", cfg]) == 0
        data = json.loads((out / "c0-discontinuity.json").read_text())
        assert data["passed"]
        csv_lines = (out / "c0-discontinuity.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    def test_rigidity_seed_defaults_alike_in_the_library_and_the_cli(self, tmp_path):
        # a config without a seed runs the library's default seed, bit for bit
        params = {"depth": 10, "tau": 0.5, "q_max": 2, "far_pairs": 50}
        out = tmp_path / "exp"
        cfg = write_config(tmp_path, {"experiment": params})
        assert main(["--out", str(out), "--format", "json", "experiment", "rigidity", "--config", cfg]) == 0
        library = exp_rigidity(**params)
        assert library.meta["seed"] == 7
        assert (out / "rigidity.json").read_text() == cli._json_text(library.to_json_dict())

    def test_unknown_experiment_rejected(self, tmp_path):
        code = main(["--out", str(tmp_path), "experiment", "c1-continuity", "--config",
                     str(tmp_path / "missing.json")])
        assert code == 2


def test_budget_defaults_are_the_librarys():
    # the CLI's defaults of a compute config are verify_link's, and its grid
    # is cal1's and cal3's as well
    library = {key: p.default for key, p in inspect.signature(verify_link).parameters.items()}
    for key in ("pairs", "grid", "rho_iterates", "quad_budget", "strategy"):
        assert cli.BUDGETS[key][1] == library[key], key
    for route in (cal1, cal3_tilde):
        assert inspect.signature(route).parameters["grid"].default == cli.BUDGETS["grid"][1]


class TestConfigShape:
    # every level of the tree must have its shape: a non-object config,
    # budgets block or conjugator, a compute entry that is not a non-empty
    # list, a key that nothing reads at any level, or a number that is not a
    # JSON number, exits 2
    @pytest.mark.parametrize("command, cfg", [
        (["compute"], 5),
        (["compute"], None),
        (["experiment", "rigidity"], 5),
        (["experiment", "rigidity"], None),
        (["compute"], dict(BASE_CFG, budgets=[1, 2])),
        (["compute"], dict(BASE_CFG, budgets=None)),
        (["compute"], dict(BASE_CFG, compute=5)),
        (["compute"], dict(BASE_CFG, map={"family": "conjugated_rotation", "alpha": 0.3,
                                          "tau": 0.5, "conjugator": 5})),
        (["compute"], dict(BASE_CFG, compute=[])),
        (["compute"], dict(BASE_CFG, compute=["cal3"], budgets={"gird": [8, 16]})),
        (["compute"], {"map": BASE_CFG["map"], "compute": ["cal3"], "budget": {"seed": 7}}),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "conjugated_rotation", "alpha": 0.3, "tua": 0.5,
            "conjugator": {"type": "off_center", "beta": 0.5}})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "conjugated_rotation", "alpha": 0.3, "tau": 0.5,
            "conjugator": {"type": "off_center", "bta": 0.2}})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "compose", "maps": [{"family": "rotation", "alpha": 0.2},
                                          {"family": "bump", "n": 4, "m": 2}]})),
        (["experiment", "c0-discontinuity"], {"experiment": {"nss": [2, 4]}}),
        (["experiment", "c0-discontinuity"], {"ns": [2, 4]}),
        (["experiment", "rigidity"], {"experiment": {"q_max": 2, "depth": 10, "qmax": 2}}),
        # a conjugator and its time come together: either alone built rotation(0.3)
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "conjugated_rotation", "alpha": 0.3,
            "conjugator": {"type": "radial_twist", "coeffs": [0.3, -0.3]}})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "conjugated_rotation", "alpha": 0.3, "tau": 0.5})),
        # JSON booleans are not numbers: each of these read as 1 or 0
        (["compute"], dict(BASE_CFG, budgets=dict(BASE_CFG["budgets"], pairs=True))),
        (["compute"], dict(BASE_CFG, budgets=dict(BASE_CFG["budgets"], seed=False))),
        (["compute"], dict(BASE_CFG, budgets=dict(BASE_CFG["budgets"], quad_budget=True))),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "iterate", "map": {"family": "rotation", "alpha": 0.1}, "n": True})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={"family": "rotation", "alpha": True})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={"family": "radial_twist",
                                                            "coeffs": [True, -1.0]})),
        (["experiment", "rigidity"], {"experiment": {"depth": 10, "q_max": 2, "far_pairs": True}}),
        # nor are numeric strings: each of these ran on the number it spells
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={"family": "rotation", "alpha": "0.3"})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={"family": "radial_twist",
                                                            "coeffs": ["0.3", -0.6, 0.3]})),
        (["compute"], dict(BASE_CFG, compute=["cal3"], map={
            "family": "conjugated_rotation", "alpha": 0.3, "tau": 0.5,
            "conjugator": {"type": "off_center", "beta": "0.5"}})),
        (["compute"], dict(BASE_CFG, budgets=dict(BASE_CFG["budgets"], quad_budget="1e-4"))),
        (["experiment", "rigidity"], {"experiment": {"depth": 10, "q_max": 2, "tau": "0.5"}}),
        (["experiment", "c1-continuity"], {"experiment": {"scales": ["0.01"], "pairs": 100}}),
    ], ids=["compute_number", "compute_null", "experiment_number", "experiment_null",
            "budgets_list", "budgets_null", "compute_list_number", "conjugator_number",
            "compute_empty", "budgets_unknown_key", "compute_unknown_key", "map_unknown_key",
            "conjugator_unknown_key", "nested_map_unknown_key", "experiment_unknown_key",
            "experiment_outside_its_object", "rigidity_unknown_key", "conjugator_without_tau",
            "tau_without_conjugator", "pairs_true", "seed_false", "quad_budget_true",
            "iterate_n_true", "alpha_true", "coeffs_true", "far_pairs_true", "alpha_str",
            "coeffs_entry_str", "beta_str", "quad_budget_str", "tau_str", "scales_entry_str"])
    def test_malformed_config_trees_are_config_errors(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "x"
        assert main(["--out", str(out), *command, "--config", path]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["compute"], ["experiment", "rigidity"]], ids=["compute", "rigidity"])
    @pytest.mark.parametrize("make", [lambda path: path.mkdir(),
                                      lambda path: path.write_bytes(b'{"map": "\xff"}')],
                             ids=["directory", "not_utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, command, make):
        # a config that cannot be read (here IsADirectoryError and
        # UnicodeDecodeError) is a configuration error, not a traceback
        path = tmp_path / "config.json"
        make(path)
        out = tmp_path / "x"
        assert main(["--out", str(out), *command, "--config", str(path)]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["compute"], ["cf", "--synthetic", "non-bruno"]], ids=["compute", "cf"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_through_a_file_exits_before_any_work(self, tmp_path, capsys, monkeypatch, command, out):
        # --out is checked before the command runs: the map is never built
        def no_map(spec):
            raise AssertionError("the map was built")

        monkeypatch.setattr(cli, "from_spec", no_map)
        (tmp_path / "file").write_text("kept")
        if command == ["compute"]:
            command = ["compute", "--config", write_config(tmp_path, BASE_CFG)]
        assert main(["--out", str(tmp_path / out), *command]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "kept"

    def test_a_conjugator_needs_its_beta(self, tmp_path, capsys):
        # every key of a conjugator is required: without "beta" the off-center
        # row built offcenter(0.5) from the library default
        cfg = dict(BASE_CFG, compute=["cal3"], map={
            "family": "conjugated_rotation", "alpha": 0.3, "tau": 0.5,
            "conjugator": {"type": "off_center"}})
        out = tmp_path / "x"
        assert main(["--out", str(out), "compute", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "'beta'" in err
        assert not out.exists()


class TestCsvOutputs:
    # one writer serves the report, the cf table and the experiments: a header
    # of the columns, then one line per row with None as an empty cell
    @staticmethod
    def _expected_csv(columns, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in columns])
        return buf.getvalue()

    def test_report_csv_is_the_json_report_as_one_row(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE_CFG, compute=["cal3", "rho"]))
        out = tmp_path / "out"
        assert main(["--out", str(out), "compute", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert None in report.values()
        assert (out / "report.csv").read_text() == self._expected_csv(list(report), [report])

    @pytest.mark.parametrize("argv", [
        ["--alpha", "0.6180339887498949", "--depth", "8"],
        ["--quotients", "0,2,3"],
    ], ids=["alpha", "quotients"])
    def test_cf_csv_is_the_json_rows(self, tmp_path, argv):
        out = tmp_path / "cf"
        assert main(["--out", str(out), "cf", *argv]) == 0
        rows = json.loads((out / "cf.json").read_text())["rows"]
        assert any(None in row.values() for row in rows)
        assert (out / "cf.csv").read_text() == self._expected_csv(list(rows[0]), rows)

    def test_experiment_csv_is_the_json_rows(self, tmp_path, monkeypatch):
        # an experiment CSV writes its bools as true/false (the report keeps
        # True/False); a cal3 of 0 fails every c0 row
        monkeypatch.setattr(diskcal.experiments, "cal3_tilde", lambda bundle: 0.0)
        cfg = write_config(tmp_path, {"experiment": {"ns": [2, 4]}})
        out = tmp_path / "exp"
        assert main(["--out", str(out), "experiment", "c0-discontinuity", "--config", cfg]) == 0
        data = json.loads((out / "c0-discontinuity.json").read_text())
        assert {row["pass"] for row in data["rows"]} == {False}
        rows = [{c: str(v).lower() if isinstance(v, bool) else v for c, v in row.items()}
                for row in data["rows"]]
        text = (out / "c0-discontinuity.csv").read_text()
        assert text == self._expected_csv(data["columns"], rows)
        assert ",false\n" in text


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

    @pytest.mark.parametrize("argv", [
        ["--alpha", "0.5", "--depth", "0"],
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--quotients", "1,x"],
        ["--quotients", "0,2,0"],
        ["--synthetic", "non-bruno", "--depth", "0"],
        # the table has one source; a second one was silently dropped
        ["--alpha", "0.3", "--quotients", "1,2"],
        ["--alpha", "0.3", "--synthetic", "non-bruno"],
        ["--quotients", "1,2", "--synthetic", "super-liouville"],
        ["--alpha", "0.3", "--quotients", "1,2", "--synthetic", "non-bruno"],
    ], ids=["depth0", "alpha_nan", "alpha_inf", "quotient_x", "quotient_0", "synthetic_depth0",
            "alpha_and_quotients", "alpha_and_synthetic", "quotients_and_synthetic", "three_sources"])
    def test_degenerate_arguments_are_config_errors(self, tmp_path, capsys, argv):
        assert main(["--out", str(tmp_path), "cf", *argv]) == 2
        assert "ConfigError" in capsys.readouterr().err
