"""Command-line interface: validation, dispatch, reports, reproducibility."""

import copy
import csv
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit.cli import main
from identikit.config import ConfigError, build_config, load_raw, validate_config
from identikit.serialize import to_jsonable, write_csv, write_json

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

    def test_repeated_keys_are_named_and_exit_2(self, tmp_path, capsys):
        # formerly the last value of each won, silently, and the config echo showed only it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(FULL_CONFIG)[:-1] + ', "recover": {"k_trials": 2, "n_starts": 3, "n_starts": 4}}')
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            'config error - config: key "n_starts" is repeated in one object',
            'config error - config: key "recover" is repeated in one object',
        ]
        assert not out.exists()

    def test_repeated_keys_at_any_depth_are_each_named(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"seed": 1, "model": {"name": "linear", "constants": {"bounds": [0, 1], "bounds": [0, 2]}},'
                       ' "seed": 2, "seed": 3, "design": {"times": [{"a": 1, "a": 1}]}}')
        raw, diags = load_raw(cfg)
        assert raw is None
        assert [str(d) for d in diags] == [f'config: key "{key}" is repeated in one object'
                                           for key in ("bounds", "a", "seed")]

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

    @pytest.mark.parametrize("rounds", [1, -1, -200])
    def test_bootstrap_of_one_or_below_zero_exits_2(self, tmp_path, capsys, rounds):
        # one round formerly ran, warned twice and wrote null standard errors
        doc = with_field(FULL_CONFIG, ("sobol", "bootstrap"), rounds)
        assert [str(d) for d in validate_config(doc)] == ["sobol.bootstrap: must be 0 or an integer >= 2"]
        out = tmp_path / "out"
        assert main(["sobol", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "sobol.bootstrap: must be 0 or an integer >= 2" in capsys.readouterr().err
        assert validate_config(with_field(FULL_CONFIG, ("sobol", "bootstrap"), 0)) == []
        assert validate_config(with_field(FULL_CONFIG, ("sobol", "bootstrap"), 2)) == []

    @pytest.mark.parametrize("constants", [{"rtol": -1.0}, {"atol": 1e-8}])
    def test_logistic_tolerances_are_not_constants(self, tmp_path, constants):
        # a negative rtol formerly passed validation and failed the analysis with exit 3
        doc = json.loads((ROOT / "bench" / "configs" / "logistic_ode.json").read_text())
        doc["model"]["constants"] = constants
        assert [d.field for d in validate_config(doc)] == ["model.constants"]
        assert main(["all", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("model, message", [
        # formerly the ordered model
        ({"name": "biexponential", "constants": {"ordered": "no"}}, "ordered must be true or false"),
        ({"name": "biexponential", "constants": {"ordered": 1}}, "ordered must be true or false"),
        # formerly a lower bound of 1.0, then an upper bound of 10.0
        ({"name": "biexponential", "constants": {"bounds": [True, 10]}}, "bounds must be a pair of finite numbers"),
        ({"name": "biexponential", "constants": {"bounds": [0.01, "10"]}}, "bounds must be a pair of finite numbers"),
        # formerly "SVD did not converge"
        ({"name": "linear", "constants": {"design_matrix": [[1.0, float("nan")], [1.0, 1.0]]}},
         "design matrix must be a non-empty 2-D array of finite numbers"),
    ])
    def test_malformed_model_constants_exit_2_without_output(self, tmp_path, capsys, model, message):
        doc = {**FULL_CONFIG, "model": model}
        assert [str(d) for d in validate_config(doc)] == [f"model.constants: {message}"]
        out = tmp_path / "out"
        assert main(["all", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert f"config error - model.constants: {message}" in capsys.readouterr().err
        assert not out.exists()

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
        # distinct integers that round to one double formerly passed the check and then
        # made build_config raise a bare ValueError from Design
        (("design", "times"), [2**53, 2**53 + 1], "design.times"),
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

    def test_profile_multistart_on_an_ordered_space_runs(self, tmp_path, capsys):
        # a cold start that the profiled value put outside rate1 > rate2 formerly ended the run with exit 3
        cfg = write_config(tmp_path, {
            **{k: FULL_CONFIG[k] for k in ("design", "seed", "data", "fit")},
            "model": {"name": "biexponential", "constants": {"ordered": True}},
            "profile": {"parameters": [0, 1], "points": 9, "multistart": 4},
        })
        out = tmp_path / "out"
        assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        profile = json.loads((out / "summary.json").read_text())["results"]["profile"]
        assert all(all(block["converged"]) for block in profile.values())

    def test_csv_values_round_trip_to_summary(self, tmp_path):
        # every column of every analysis CSV, row by row, against the summary value it prints
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        names = results["sobol"]["parameters"]

        def per_parameter(prefix, vector):
            return {f"{prefix}_{name}": vector[j] for j, name in enumerate(names)}

        def value(key, text):  # a non-finite number is null in the summary
            return text if key == "parameter" else json.loads(text) if math.isfinite(float(text)) else None

        sobol = results["sobol"]
        profile = results["profile"]["0"]
        expected = {
            "fit.csv": [
                {"start_index": k, "objective": r["objective"], "converged": int(r["converged"]),
                 **per_parameter("theta", r["theta"])}
                for k, r in enumerate(results["fit"]["estimates"])
            ],
            "profile_0.csv": [
                {"theta_i": g, "profile_loglik": v, "converged": int(c)}
                for g, v, c in zip(profile["grid"], profile["profile_loglik"], profile["converged"], strict=True)
            ],
            "sobol.csv": [
                {"parameter": name, "S_first": sobol["first_order"][i], "S_first_se": sobol["first_order_se"][i],
                 "S_total": sobol["total_order"][i], "S_total_se": sobol["total_order_se"][i]}
                for i, name in enumerate(names)
            ],
            "recovery.csv": [
                {"trial": k, **per_parameter("true", t["theta_true"]), **per_parameter("hat", t["theta_hat"]),
                 **per_parameter("rel_err", t["rel_errors"]), "success": int(t["success"])}
                for k, t in enumerate(results["recovery"]["trials"])
            ],
        }
        for name, rows in expected.items():
            with (out / name).open() as fh:
                parsed = list(csv.DictReader(fh))
            assert [list(row) for row in parsed] == [list(row) for row in rows], name
            for row, want in zip(parsed, rows, strict=True):
                got = {key: value(key, text) for key, text in row.items()}
                assert got == want, name

    def test_csv_layout_is_pinned(self, tmp_path):
        # the header and row count of each CSV; the profile's 15-point grid ends one refit past
        # the likelihood level set on each side, at 10 points
        cfg = write_config(tmp_path, FULL_CONFIG)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
        layout = {}
        for path in sorted(out.glob("*.csv")):
            with path.open() as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), path.name
            layout[path.name] = (header, len(rows))
        assert layout == {
            "dataset.csv": (["time", "replicate", "value"], 7),
            "fit.csv": (["start_index", "objective", "converged", "theta_rate1", "theta_rate2"], 8),
            "profile_0.csv": (["theta_i", "profile_loglik", "converged"], 10),
            "recovery.csv": (["trial", "true_rate1", "true_rate2", "hat_rate1", "hat_rate2",
                              "rel_err_rate1", "rel_err_rate2", "success"], 3),
            "sobol.csv": (["parameter", "S_first", "S_first_se", "S_total", "S_total_se"], 2),
        }
        with (out / "fit.csv").open() as fh:
            assert [row["start_index"] for row in csv.DictReader(fh)] == [str(k) for k in range(8)]
        with (out / "recovery.csv").open() as fh:
            assert [row["trial"] for row in csv.DictReader(fh)] == ["0", "1", "2"]

    @pytest.mark.parametrize("fim", [{}, {"rank_tolerance": 1e-8}])
    def test_fim_blocks_match_the_library_at_the_fit(self, tmp_path, fim):
        # the fim block is fim_report at the best fit with the configured rank tolerance,
        # and the design_score block is design_score there
        config = {k: v for k, v in FULL_CONFIG.items() if k not in ("sobol", "recover")}
        config.update(fim=fim, profile={"parameters": [0, 1], "points": 9})
        out = tmp_path / "out"
        assert main(["all", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        theta = np.array(results["fit"]["best"]["theta"])
        parsed = build_config(config)
        report = ik.fim_report(parsed.model, parsed.design, theta, rank_tolerance=fim.get("rank_tolerance", 1e-10))
        expected = to_jsonable(report)
        assert {key: results["fim"][key] for key in expected} == expected
        assert results["fim"]["scores"] == {c: report.score(c) for c in ("D", "A", "E")}
        assert results["design_score"]["score"] == ik.design_score(parsed.model, parsed.design, theta, "D")

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


class TestWriteCsv:
    def test_header_is_the_keys_and_floats_print_17_digits(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, {"name": ["a", "b"], "x": np.array([0.1, np.inf]), "k": range(2)})
        assert path.read_bytes() == b"name,x,k\r\na,0.10000000000000001,0\r\nb,inf,1\r\n"

    @pytest.mark.parametrize("lengths", [(2, 1), (1, 2), (0, 1)])
    def test_columns_of_different_lengths_raise(self, tmp_path, lengths):
        # zip alone would drop the rows past the shorter column
        with pytest.raises(ValueError):
            write_csv(tmp_path / "table.csv", {"a": [1.0] * lengths[0], "b": [2.0] * lengths[1]})


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
    def test_defaults_applied(self, tmp_path):
        doc = {
            "model": {"name": "reciprocal"},
            "design": {"times": [1.0, 2.0], "noise_sd": 0.1},
            "data": {"theta_true": [0.5]},
            "fim": {},
            "recover": {},
        }
        cfg = build_config(doc)
        assert cfg.seed == 0
        assert cfg.sections_present() == ["fim", "recover"]
        # the defaults apply where the analyses run, so read them in the run's summary
        out = tmp_path / "out"
        assert main(["all", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["recovery"]["k_trials"] == 20 == len(results["recovery"]["trials"])
        assert results["recovery"]["tolerance"] == 0.1
        assert results["fit"]["starts"] == 16 == len(results["fit"]["estimates"])

    def test_omitted_fields_take_the_documented_defaults(self, tmp_path):
        """Every optional field left out writes the files that README's "Fields and defaults" values write."""
        omitted = {
            "model": {"name": "biexponential"},
            "design": {"times": [0.25, 0.5, 1.0, 2.0, 3.0], "noise_sd": 0.05},
            "seed": 5,
            "data": {"theta_true": [2.0, 1.0]},
            **dict.fromkeys(("fit", "fim", "design_score", "profile", "sobol", "recover"), {}),
        }
        first = tmp_path / "omitted"
        assert main(["all", "--config", str(write_config(tmp_path, omitted, "omitted.json")),
                     "--out", str(first)]) == 0
        best = json.loads((first / "summary.json").read_text())["results"]["fit"]["best"]["theta"]
        box = [{"kind": "uniform", "lower": 0.01, "upper": 10.0}] * 2
        spelled = {
            **omitted,
            "design": {**omitted["design"], "replicates": 1},
            "data": {"theta_true": [2.0, 1.0], "seed": 5},
            "fit": {"starts": 16},
            "fim": {"theta": best, "rank_tolerance": 1e-10, "level": 0.95},
            "design_score": {"criterion": "D", "theta": best},
            "profile": {"parameters": [0, 1], "points": 41, "span_sd": 5.0, "grid": None,
                        "level": 0.95, "flatness_tol": 1e-6, "multistart": 0},
            "sobol": {"n_samples": 4096, "bootstrap": 200, "prior": box},
            "recover": {"k_trials": 20, "n_starts": 16, "tolerance": 0.1, "prior": box},
        }
        second = tmp_path / "spelled"
        assert main(["all", "--config", str(write_config(tmp_path, spelled, "spelled.json")),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert {"fit.csv", "profile_1.csv", "sobol.csv", "recovery.csv"} <= set(names)
        for name in names:
            a, b = (out / name for out in (first, second))
            if name == "summary.json":  # in file order, all but the config echo and the timestamp
                a, b = (json.dumps({k: v for k, v in json.loads(p.read_text()).items()
                                    if k not in ("config", "timestamp")}) for p in (a, b))
                assert a == b
            else:
                assert a.read_bytes() == b.read_bytes(), name


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


class Reached(Exception):
    """Raised by a patched step that an analysis takes only after checking its arguments."""


def reached(*args, **kwargs):
    raise Reached


NUMPY_SCALARS = (
    st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32) | st.booleans().map(np.bool_)
)
# values at and near the edges of the rules, which JSON_VALUES seldom draws
NEAR_RULES = (
    st.integers(-2, 3000) | st.floats(-2.0, 2.0) | st.floats(0.0, 1.0) | st.sampled_from(["D", "A", "E", "d"])
    | st.integers(8, 13).map(lambda k: 2**k) | st.integers(8, 13).map(lambda k: np.int64(2**k))
    | st.lists(st.floats(-1.0, 12.0), min_size=1, max_size=5, unique=True).map(sorted)
)


@pytest.fixture(scope="module")
def owners():
    """The model, data and best fit of FULL_CONFIG, and for each of its fields that an analysis
    takes as an argument: the argument's name and a call of the analysis with a value for it."""
    model = ik.get_model("biexponential")
    times, sd = FULL_CONFIG["design"]["times"], FULL_CONFIG["design"]["noise_sd"]
    design = ik.Design(times, sd)
    data = ik.generate_data(model, design, FULL_CONFIG["data"]["theta_true"], FULL_CONFIG["data"]["seed"])
    best = next(r for r in ik.multi_start_fit(model, data, FULL_CONFIG["fit"]["starts"], 7) if r.converged)
    report = ik.fim_report(model, design, best.theta)
    calls = {
        ("design", "times"): ("time_points", lambda v: ik.Design(v, sd)),
        ("design", "noise_sd"): ("noise_sd", lambda v: ik.Design(times, v)),
        ("design", "replicates"): ("replicates", lambda v: ik.Design(times, sd, v)),
        ("fit", "starts"): ("k_starts", lambda v: ik.multi_start_fit(model, data, v, 7)),
        ("fim", "rank_tolerance"): ("rank_tolerance", lambda v: ik.fim_report(model, design, best.theta, v)),
        ("fim", "level"): ("level", lambda v: ik.confidence_ellipsoid(report, best.theta, v)),
        ("design_score", "criterion"): ("criterion", lambda v: report.score(v)),
    }
    for section, analysis, names in (
        ("profile", lambda **kw: ik.profile_parameter(model, data, best, 0, **kw),
         ("points", "span_sd", "level", "flatness_tol", "multistart", "grid")),
        ("sobol", lambda **kw: ik.sobol_indices(model, design, **kw), ("n_samples", "bootstrap")),
        ("recover", lambda **kw: ik.global_recovery(model, design, **kw), ("k_trials", "n_starts", "tolerance")),
    ):
        calls.update({(section, name): (name, lambda v, a=analysis, n=name: a(**{n: v})) for name in names})
    return model, data, best, calls


def rejects(call, argument, value) -> bool:
    """Whether ``call(value)`` raises ValueError naming ``argument``; the analysis stops with
    Reached where its work would start: the multi-start, profile and prior draws."""
    with (mock.patch("identikit.estimation.latin_hypercube_starts", reached),
          mock.patch("identikit.profile.log_likelihood", reached),
          mock.patch.object(ik.Prior, "sample", reached)):
        try:
            call(value)
        except Reached:
            return False
        except ValueError as exc:
            assert str(exc).startswith(f"{argument} "), exc
            return True
    return False


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_diagnoses_what_the_owning_analysis_rejects(owners, data):
    """build_config diagnoses a field's value if and only if the analysis it is passed to,
    called directly, rejects it with a ValueError naming the argument."""
    calls = owners[3]
    path = data.draw(st.sampled_from(sorted(calls)))
    value = data.draw(JSON_VALUES | NUMPY_SCALARS | NEAR_RULES)
    diags = validate_config(with_field(FULL_CONFIG, path, value))
    assert {d.field for d in diags} <= {".".join(path)}
    assert bool(diags) == rejects(calls[path][1], calls[path][0], value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(index=st.integers(-3, 4) | NUMPY_SCALARS)
def test_profiled_indices_take_the_index_rule(owners, index):
    model, data, best, _ = owners
    diags = validate_config(with_field(FULL_CONFIG, ("profile", "parameters"), [index]))
    assert bool(diags) == rejects(lambda i: ik.profile_parameter(model, data, best, i), "index", index)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lower=st.floats(-1.0, 12.0), upper=st.floats(-1.0, 12.0), kind=st.sampled_from(["uniform", "log-uniform"]))
def test_prior_fields_take_the_prior_rule(owners, lower, upper, kind):
    model = owners[0]
    design = ik.Design(FULL_CONFIG["design"]["times"], FULL_CONFIG["design"]["noise_sd"])
    entries = [{"kind": kind, "lower": lower, "upper": upper}, {"kind": "uniform", "lower": 1.0, "upper": 2.0}]
    try:
        prior = ik.Prior((kind, "uniform"), [lower, 1.0], [upper, 2.0])
    except ValueError:
        prior = None  # the Prior itself rejects the bounds, and so does the config
    for section, analysis in (("sobol", ik.sobol_indices), ("recover", ik.global_recovery)):
        diags = validate_config(with_field(FULL_CONFIG, (section, "prior"), entries))
        assert [d.field for d in diags] in ([], [f"{section}.prior"])
        if prior is None:
            assert diags
        else:
            assert bool(diags) == rejects(lambda p: analysis(model, design, prior=p), "prior", prior)


RECIPROCAL = ik.get_model("reciprocal")
RECIPROCAL_DESIGN = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
RECIPROCAL_PRIOR = ik.Prior(("uniform",), [0.1], [1.0])  # as in configs/reciprocal_recovery.json


@pytest.mark.parametrize("argument, call", [
    # each formerly returned a verdict: rank-deficient for the identifiable biexponential fit,
    # structurally-unidentifiable-flat for an identifiable rate, not-practically-identifiable
    # (success rate 0.0) where the rate is 1.0, and indices from 1024 samples
    ("rank_tolerance", lambda m, d, best: ik.fim_report(m, d.design, best.theta, rank_tolerance=5)),
    ("points", lambda m, d, best: ik.profile_parameter(m, d, best, 0, points=1)),
    ("tolerance", lambda m, d, best: ik.global_recovery(RECIPROCAL, RECIPROCAL_DESIGN, 4, RECIPROCAL_PRIOR,
                                                         tolerance=-1)),
    ("tolerance", lambda m, d, best: ik.global_recovery(RECIPROCAL, RECIPROCAL_DESIGN, 4, RECIPROCAL_PRIOR,
                                                         tolerance=float("nan"))),
    ("n_samples", lambda m, d, best: ik.sobol_indices(m, d.design, n_samples=1024.7)),
])
def test_library_inputs_once_repaired_are_rejected(owners, argument, call):
    model, data, best, _ = owners
    with pytest.raises(ValueError, match=f"^{argument} "):
        call(model, data, best)


def test_owner_messages_name_the_fault(owners):
    # each formerly named another fault: "prior support is not contained in the parameter box"
    # and "index out of range"; the config checks the JSON form first, so its diagnostics
    # for the same fields keep their words
    model, data, best, _ = owners
    with pytest.raises(ValueError, match=r"^prior must be None or a Prior$"):
        ik.sobol_indices(model, data.design, prior=[1, 2])
    with pytest.raises(ValueError, match=r"^index must be an integer$"):
        ik.profile_parameter(model, data, best, 1.5)
    outside = [{"kind": "uniform", "lower": 0.0, "upper": 20.0}] * 2
    assert [str(d) for d in validate_config(with_field(FULL_CONFIG, ("sobol", "prior"), outside))] == [
        "sobol.prior: support is not contained in the parameter box"]
    assert [str(d) for d in validate_config(with_field(FULL_CONFIG, ("profile", "parameters"), [2]))] == [
        "profile.parameters: index out of range"]
