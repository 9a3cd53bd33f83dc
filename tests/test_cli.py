"""Command-line interface: validation, dispatch, reports, reproducibility."""

import copy
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit.cli import main
from identikit.config import ConfigError, build_config, validate_config
from identikit.serialize import write_json

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


FULL_CONFIG = {
    "model": {"name": "biexponential"},
    "design": {"times": [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], "noise_sd": 0.05},
    "seed": 7,
    "data": {"theta_true": [2.0, 1.0], "seed": 11},
    "fit": {"starts": 8},
    "fim": {},
    "design_score": {"criterion": "D"},
    "profile": {"parameters": [0], "points": 15},
    "sobol": {"n_samples": 1024, "bootstrap": 50},
    "recover": {"k_trials": 3, "n_starts": 6},
}


def with_field(config, path, value):
    """A deep copy of ``config`` with the field at ``path`` (keys and list indices) set to ``value``."""
    doc = copy.deepcopy(config)
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    return doc


def summary_without_timestamp(path):
    payload = json.loads(path.read_text())
    payload.pop("timestamp")
    return json.dumps(payload, sort_keys=True)


class TestValidation:
    def test_well_formed_config_is_clean(self):
        assert validate_config(FULL_CONFIG) == []

    def test_nonpositive_sigma_names_field(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0], "noise_sd": -0.5},
            "fim": {"theta": [1.0]},
        })
        code = main(["fim", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        diags = validate_config(json.loads(cfg.read_text()))
        assert any(d.field == "design.noise_sd" for d in diags)

    def test_profile_grid_outside_slice(self):
        cfg = {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0, 2.0], "noise_sd": 0.1},
            "data": {"theta_true": [0.5]},
            "profile": {"parameters": [0], "grid": [-5.0, 0.5, 2.0]},
        }
        diags = validate_config(cfg)
        assert any(d.field == "profile.grid" for d in diags)

    @pytest.mark.parametrize("grid", [[3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [1.0, 1.0, 2.0]])
    def test_profile_grid_not_strictly_increasing(self, grid):
        diags = validate_config(with_field(FULL_CONFIG, ("profile", "grid"), grid))
        assert [str(d) for d in diags] == ["profile.grid: must be strictly increasing"]

    def test_zero_trials_named(self):
        cfg = {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0, 2.0], "noise_sd": 0.1},
            "recover": {"k_trials": 0},
        }
        diags = validate_config(cfg)
        assert any(d.field == "recover.k_trials" for d in diags)

    def test_unknown_model_and_bad_json(self, tmp_path):
        diags = validate_config({"model": {"name": "unknown"},
                                 "design": {"times": [1.0], "noise_sd": 0.1}})
        assert any(d.field == "model.name" for d in diags)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["fim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_subcommand_requires_section(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0], "noise_sd": 0.1},
            "data": {"theta_true": [0.5]},
        })
        assert main(["sobol", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_all_requires_some_analysis_section(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0], "noise_sd": 0.1},
            "data": {"theta_true": [0.5]},
        })
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_negative_time_for_ode_model_exits_2_without_output(self, tmp_path, capsys):
        doc = json.loads((ROOT / "bench" / "configs" / "logistic_ode.json").read_text())
        doc["design"]["times"] = [-1, 0.5, 1, 2]
        assert [str(d) for d in validate_config(doc)] == ["design.times: must be >= 0 for an ODE model"]
        out = tmp_path / "out"
        assert main(["all", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "design.times: must be >= 0 for an ODE model" in capsys.readouterr().err
        assert not out.exists()
        # a closed-form model is defined at negative times
        assert validate_config(with_field(FULL_CONFIG, ("design", "times"), [-1.0, 0.5, 1.0])) == []

    @pytest.mark.parametrize("path, value, field", [
        (("profile", "span_sd"), 0, "profile.span_sd"),
        (("profile", "span_sd"), -1, "profile.span_sd"),
        (("profile", "span_sd"), "wide", "profile.span_sd"),
        (("profile", "flatness_tol"), 0, "profile.flatness_tol"),
        (("profile", "flatness_tol"), "tight", "profile.flatness_tol"),
        (("profile", "multistart"), -3, "profile.multistart"),
        (("profile", "multistart"), 2.7, "profile.multistart"),
        (("data",), {"path": 5}, "data.path"),
        (("profile", "parameters"), [True], "profile.parameters"),
        (("seed",), True, "seed"),
        (("data", "seed"), True, "data.seed"),
        (("design", "replicates"), True, "design.replicates"),
        (("fit", "starts"), True, "fit.starts"),
        (("recover", "k_trials"), True, "recover.k_trials"),
        (("recover", "n_starts"), True, "recover.n_starts"),
        (("design", "noise_sd"), float("nan"), "design.noise_sd"),
        (("design", "noise_sd"), float("inf"), "design.noise_sd"),
        (("design", "times"), [0.25, 0.5, float("inf")], "design.times"),
        (("recover", "tolerance"), float("inf"), "recover.tolerance"),
        (("model", "constants"), {"bounds": [0.01, float("inf")]}, "model.constants"),
        (("profile", "grid"), [0.5, float("nan"), 2.0], "profile.grid"),
        (("recover", "k_trial"), 5, "recover.k_trial"),
        (("sed",), 3, "sed"),
        (("profile", "parameters"), [0, 0], "profile.parameters"),
    ])
    def test_bad_field_is_named_and_exits_2(self, tmp_path, path, value, field):
        doc = with_field(FULL_CONFIG, path, value)
        assert any(d.field == field for d in validate_config(doc))
        cfg = write_config(tmp_path, doc)
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestRun:
    def test_full_pipeline_outputs(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("summary.json", "dataset.csv", "dataset.csv.meta.json",
                     "fit.csv", "profile_0.csv", "sobol.csv", "recovery.csv"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["results"]) == {"fit", "fim", "design_score",
                                           "profile", "sobol", "recovery"}

    def test_redundant_exponential_classified_rank_deficient(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "redundant-exponential"},
            "design": {"times": [0.0, 0.6, 1.2, 1.8, 2.4, 3.0], "noise_sd": 0.05},
            "fim": {"theta": [1.0, -0.5, 0.5]},
        })
        out = tmp_path / "out"
        assert main(["fim", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["fim"]["classification"] == "rank-deficient"
        assert summary["results"]["fim"]["rank"] <= 2
        assert summary["results"]["fim"]["scores"]["A"] is None

    def test_reproducible_apart_from_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["all", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["all", "--config", str(cfg), "--out", str(out2), "--threads", "4"]) == 0
        assert summary_without_timestamp(out1 / "summary.json") == summary_without_timestamp(
            out2 / "summary.json"
        )
        for name in ("dataset.csv", "profile_0.csv", "sobol.csv", "recovery.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sobol", "--config", str(cfg), "--out", str(out1), "--seed", "99"]) == 0
        assert main(["sobol", "--config", str(cfg), "--out", str(out2)]) == 0
        a = json.loads((out1 / "summary.json").read_text())
        b = json.loads((out2 / "summary.json").read_text())
        assert a["seed"] == 99 and b["seed"] == 7
        assert a["results"]["sobol"]["first_order"] != b["results"]["sobol"]["first_order"]

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        assert main(["fim", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_is_named_and_exits_2(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 2
        assert f"--threads: must be a positive integer, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_is_analysis_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0, 2.0], "noise_sd": 0.1},
            "data": {"path": str(tmp_path / "absent.csv")},
            "fim": {},
        })
        assert main(["fim", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("field, value", [
        ("times", [0.25, 0.5, 1.0]),
        ("noise_sd", 0.1),
        ("replicates", 2),
    ])
    def test_data_file_with_another_design_is_analysis_failure(self, tmp_path, capsys, field, value):
        design = ik.Design(np.array([0.25, 0.5, 1.0, 2.0]), 0.05)
        file_design = ik.Design(
            np.array(value if field == "times" else design.time_points),
            value if field == "noise_sd" else design.noise_sd,
            value if field == "replicates" else design.replicates,
        )
        model = ik.get_model("biexponential")
        ik.save_dataset(ik.generate_data(model, file_design, [2.0, 1.0], 3), tmp_path / "data.csv")
        cfg = write_config(tmp_path, {
            "model": {"name": "biexponential"},
            "design": {"times": design.time_points.tolist(), "noise_sd": design.noise_sd},
            "data": {"path": str(tmp_path / "data.csv")},
            "profile": {},
        })
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("analysis failed: data.path ") and f" design.{field} is " in err
        assert list(out.iterdir()) == []

    def test_data_file_of_the_run_reproduces_it(self, tmp_path):
        config = json.loads((ROOT / "configs" / "redundant_structural.json").read_text())
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["all", "--config", str(write_config(tmp_path, config)), "--out", str(first)]) == 0
        config["data"] = {"path": str(first / "dataset.csv")}
        cfg = write_config(tmp_path, config, "from_file.json")
        assert main(["all", "--config", str(cfg), "--out", str(second)]) == 0
        for name in ("fit.csv", "profile_0.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
        results = [json.loads((out / "summary.json").read_text())["results"] for out in (first, second)]
        assert results[0] == results[1]

    def test_prior_outside_an_ordering_is_analysis_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "biexponential", "constants": {"ordered": True}},
            "design": {"times": [0.25, 0.5, 1.0, 2.0], "noise_sd": 0.05},
            "recover": {
                "k_trials": 2,
                "prior": [
                    {"kind": "uniform", "lower": 0.01, "upper": 0.1},
                    {"kind": "uniform", "lower": 1.0, "upper": 10.0},
                ],
            },
        })
        assert main(["recover", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("analysis failed: ") and "rate1 > rate2 never held" in err

    def test_csv_values_round_trip_to_summary(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())

        with (out / "sobol.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        block = summary["results"]["sobol"]
        for i, row in enumerate(rows):
            assert float(row["S_first"]) == block["first_order"][i]
            assert float(row["S_total"]) == block["total_order"][i]
            assert float(row["S_first_se"]) == block["first_order_se"][i]

        with (out / "profile_0.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        pblock = summary["results"]["profile"]["0"]
        for i, row in enumerate(rows):
            assert float(row["theta_i"]) == pblock["grid"][i]
            assert float(row["profile_loglik"]) == pblock["profile_loglik"][i]

        with (out / "recovery.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        rblock = summary["results"]["recovery"]
        for i, row in enumerate(rows):
            assert float(row["hat_rate1"]) == rblock["trials"][i]["theta_hat"][0]
            assert int(row["success"]) == int(rblock["trials"][i]["success"])

        with (out / "fit.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        fblock = summary["results"]["fit"]["estimates"]
        for i, row in enumerate(rows):
            assert float(row["objective"]) == fblock[i]["objective"]
            assert float(row["theta_rate1"]) == fblock[i]["theta"][0]

    @pytest.mark.parametrize("fim, builds", [({}, 1), ({"rank_tolerance": 1e-8}, 2)])
    def test_information_matrix_at_the_fit_is_built_once(self, tmp_path, monkeypatch, fim, builds):
        # fim, design_score and both default profile grids ask for it at the best fit;
        # a fim block with its own rank tolerance gets its own
        from identikit import cli, fim as fim_module, profile

        calls = []
        counted = lambda *a, **k: calls.append(1) or ik.fim_report(*a, **k)  # noqa: E731
        for module in (cli, fim_module, profile):
            monkeypatch.setattr(module, "fim_report", counted)
        config = {k: v for k, v in FULL_CONFIG.items() if k not in ("sobol", "recover")}
        config.update(fim=fim, profile={"parameters": [0, 1], "points": 9})
        out = tmp_path / "out"
        assert main(["all", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert len(calls) == builds
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["fim"]["rank_tolerance"] == fim.get("rank_tolerance", 1e-10)

    def test_cli_matches_library_numbers(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["sobol", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        model = ik.get_model("biexponential")
        design = ik.Design(np.asarray(FULL_CONFIG["design"]["times"]), 0.05)
        report = ik.sobol_indices(
            model, design, ik.Prior.uniform_box(model.space), 1024, seed=7, bootstrap=50
        )
        assert summary["results"]["sobol"]["first_order"] == report.first.tolist()
        assert summary["results"]["sobol"]["total_order"] == report.total.tolist()

        out2 = tmp_path / "out-recover"
        assert main(["recover", "--config", str(cfg), "--out", str(out2)]) == 0
        summary = json.loads((out2 / "summary.json").read_text())
        recovery = ik.global_recovery(model, design, 3, seed=7, n_starts=6)
        block = summary["results"]["recovery"]
        assert block["success_rate"] == recovery.success_rate
        for trial_json, trial in zip(block["trials"], recovery.trials):
            assert trial_json["theta_hat"] == trial.theta_hat.tolist()
            assert trial_json["objective"] == trial.objective


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestSummaryJson:
    def test_layout_is_pinned(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        blocks = {
            "fit.best": results["fit"]["best"],
            "fim": results["fim"],
            "fim.sloppiness": results["fim"]["sloppiness"],
            "fim.ellipsoid": results["fim"]["ellipsoid"],
            "profile.0": results["profile"]["0"],
            "profile.0.interval": results["profile"]["0"]["interval"],
            "sobol": results["sobol"],
            "recovery": results["recovery"],
            "recovery.trials[0]": results["recovery"]["trials"][0],
        }
        assert {name: list(block) for name, block in blocks.items()} == {
            "fit.best": ["theta", "objective", "sigma2", "converged", "iterations",
                         "reason", "start", "failure"],
            "fim": ["theta", "sigma", "replicates", "fim", "eigenvalues", "eigenvectors",
                    "rank", "classification", "rank_tolerance", "sloppiness", "scores",
                    "ellipsoid"],
            "fim.sloppiness": ["spread_decades", "slope", "intercept", "r_squared",
                               "residual_ss", "sloppy"],
            "fim.ellipsoid": ["level", "center", "axes", "semi_axis_lengths"],
            "profile.0": ["parameter", "grid", "profile_loglik", "converged", "loglik_hat",
                          "level", "interval", "classification", "total_variation",
                          "truncated"],
            "profile.0.interval": ["lower", "upper", "lower_open", "upper_open"],
            "sobol": ["parameters", "first_order", "total_order", "first_order_se",
                      "total_order_se", "variance_per_time", "variance_total",
                      "per_time_first", "per_time_total", "n_samples", "degenerate",
                      "resampled"],
            "recovery": ["k_trials", "tolerance", "success_rate", "symmetry_success_rate",
                         "error_p50", "error_p90", "error_max", "verdict", "trials"],
            "recovery.trials[0]": ["seed", "theta_true", "theta_hat", "objective",
                                   "rel_errors", "success", "success_symmetry", "converged"],
        }

    def test_undefined_sigma2_is_null(self, tmp_path):
        # one observation for one parameter: sigma^2 = 2 S / (n - p) is undefined
        cfg = write_config(tmp_path, {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0], "noise_sd": 0.1},
            "data": {"theta_true": [2.0]},
            "fim": {},
        })
        out = tmp_path / "out"
        assert main(["fim", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
        fit = summary["results"]["fit"]
        assert fit["best"]["sigma2"] is None
        assert all(r["sigma2"] is None for r in fit["estimates"])

    def test_non_finite_floats_are_null(self, tmp_path):
        failed = ik.EstimateResult(
            theta=np.array([1.0]), objective=float("inf"), sigma2=float("nan"),
            converged=False, iterations=0, reason="max-iter", start=np.array([1.0]),
            failure="non-finite",
        )
        path = tmp_path / "summary.json"
        write_json(path, {"fit": failed, "values": np.array([1.0, -np.inf, np.nan]),
                          "score": np.float64("inf")})
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert payload["fit"]["objective"] is None and payload["fit"]["sigma2"] is None
        assert payload["values"] == [1.0, None, None]
        assert payload["score"] is None


class TestListModels:
    def test_flag_short_circuits(self, capsys):
        assert main(["--list-models"]) == 0
        captured = capsys.readouterr().out
        assert "biexponential" in captured and "locally-not-globally" in captured

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "identikit.cli", "--list-models"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "redundant-exponential" in proc.stdout


class TestBuildConfig:
    def test_defaults_applied(self):
        cfg = build_config({
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0, 2.0], "noise_sd": 0.1},
            "recover": {},
        })
        assert cfg.seed == 0
        assert cfg.recover.k_trials == 20
        assert cfg.recover.tolerance == pytest.approx(0.1)
        assert cfg.fit.starts == 16
        assert cfg.sections_present() == ["recover"]


def _field_paths(node, prefix=()):
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


# every field of FULL_CONFIG (sections and list entries too), then the optional ones it leaves out
FIELD_PATHS = list(_field_paths(FULL_CONFIG)) + [
    ("model", "constants"), ("design", "replicates"), ("data", "path"),
    ("fim", "theta"), ("fim", "rank_tolerance"), ("fim", "level"), ("design_score", "theta"),
    ("profile", "span_sd"), ("profile", "level"), ("profile", "flatness_tol"),
    ("profile", "multistart"), ("profile", "grid"), ("sobol", "prior"),
    ("recover", "tolerance"), ("recover", "prior"),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_any_field_value_builds_or_is_diagnosed(path, value):
    doc = with_field(FULL_CONFIG, path, value)
    try:
        build_config(doc)
        built = True
    except ConfigError as exc:
        assert exc.diagnostics
        built = False
    assert (validate_config(doc) == []) == built
