"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

import identikit as ik
from identikit.cli import main
from identikit.fim import combination_variance
from identikit.models import Dataset, Model, ParameterSpace, builtin_registry, evaluate
from identikit.sensitivity import fd_jacobian, forward_ode_jacobian, sensitivity_matrix
from identikit.sobol import Prior
from oracles import linear_least_squares, relative_difference


def interior_points(model, count, seed, inset=0.05, diagonal_margin=None):
    rng = np.random.default_rng(seed)
    span = model.space.upper - model.space.lower
    pts = []
    while len(pts) < count:
        theta = model.space.lower + (inset + (1 - 2 * inset) * rng.random(model.space.dimension)) * span
        if not model.space.contains(theta):
            continue
        if diagonal_margin is not None and abs(theta[0] - theta[1]) < diagonal_margin:
            continue
        pts.append(theta)
    return pts


class _Gate:
    """Collects one line per criterion and enforces the stated runtime."""

    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s
        self.t0 = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.number}] {status} {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit_s}s"
            )
        return False


def test_1_jacobian_cross_check():
    with _Gate(1, "finite differences vs analytic and forward-ODE Jacobians", 5.0):
        designs = {
            "linear": ik.Design(np.arange(4.0), 0.1),
            "biexponential": ik.Design(np.linspace(0.25, 3.0, 8), 0.1),
            "redundant-exponential": ik.Design(np.linspace(0.0, 3.0, 8), 0.1),
            "reciprocal": ik.Design(np.linspace(1.0, 10.0, 10), 0.1),
        }
        for model in builtin_registry():
            if model.jacobian is None:
                continue
            design = designs[model.name]
            for theta in interior_points(model, 20, seed=7):
                fd = fd_jacobian(model, design, theta)
                analytic = sensitivity_matrix(model, design, theta)
                assert analytic.method == "analytic"
                assert relative_difference(fd.values, analytic.values) <= 1e-5

        logistic = ik.get_model("logistic")
        design = ik.Design(np.linspace(0.5, 5.0, 8), 0.1)
        for theta in interior_points(logistic, 20, seed=13):
            fd = fd_jacobian(logistic, design, theta)
            forward = forward_ode_jacobian(logistic, design, theta)
            assert relative_difference(fd.values, forward.values) <= 1e-4


def test_2_monte_carlo_covariance_law():
    with _Gate(2, "sample covariance of the estimator matches the inverse FIM", 10.0):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 2))
        sigma = 0.7
        model = ik.get_model("linear", design_matrix=X)
        n_rep = 10_000
        design = ik.Design(np.arange(10.0), sigma, replicates=n_rep)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=100)
        estimates = np.empty((n_rep, 2))
        for r in range(n_rep):
            estimates[r] = linear_least_squares(X, data.observations[:, r]).theta
        sample_cov = np.cov(estimates.T)
        fim_inv = sigma**2 * np.linalg.inv(X.T @ X)
        rel = np.abs(sample_cov - fim_inv) / np.abs(fim_inv)
        assert rel.max() < 0.05


def test_3_structural_unidentifiability_detection():
    with _Gate(3, "redundant exponential: rank deficiency and flat profile", 30.0):
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.05)
        for theta in interior_points(model, 20, seed=2):
            report = ik.fim_report(model, design, theta)
            assert report.classification == "rank-deficient"
            assert report.rank <= 2
        data = ik.generate_data(model, design, [1.0, -0.5, 0.5], seed=11)
        best = next(r for r in ik.multi_start_fit(model, data, 16, seed=3) if r.converged)
        curve = ik.profile_parameter(model, data, best, 0)
        assert curve.total_variation < 1e-6
        assert curve.classification == "structurally-unidentifiable-flat"


def test_4_swap_symmetry_detection():
    with _Gate(4, "biexponential: two permutation-related optima, one when ordered", 20.0):
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        unordered = ik.get_model("biexponential")
        y = evaluate(unordered, design, [2.0, 1.0])
        data = Dataset(design, y[:, None])

        clusters = ik.cluster_optima(ik.multi_start_fit(unordered, data, 32, seed=0))
        assert len(clusters) == 2
        a, b = (c[0].theta for c in clusters)
        np.testing.assert_allclose(a, b[::-1], atol=1e-6)
        assert abs(clusters[0][0].objective - clusters[1][0].objective) <= 1e-8

        ordered = ik.get_model("biexponential", ordered=True)
        clusters = ik.cluster_optima(ik.multi_start_fit(ordered, data, 32, seed=0))
        assert len(clusters) == 1


def test_5_sobol_oracle_equivalence():
    with _Gate(5, "Sobol estimates vs analytic and quadrature oracles", 30.0):
        one_time = ik.Design(np.array([0.0]), 1.0)

        def toy(name, fn, lower, upper):
            space = ParameterSpace(np.asarray(lower, float), np.asarray(upper, float))
            return Model(
                name=name, space=space,
                f=lambda times, ths: np.zeros((len(ths), len(times))) + np.reshape(fn(ths.T), (-1, 1)),
            )

        additive = toy("additive", lambda th: th[0] + th[1], [0, 0], [1, 1])
        report = ik.sobol_indices(
            additive, one_time, Prior.uniform_box(additive.space), 2**14, seed=0
        )
        np.testing.assert_allclose(report.first, 0.5, atol=0.03)
        np.testing.assert_allclose(report.total, 0.5, atol=0.03)

        product = toy("product", lambda th: th[0] * th[1], [-1, -1], [1, 1])
        report = ik.sobol_indices(
            product, one_time, Prior.uniform_box(product.space), 2**14, seed=0
        )
        np.testing.assert_allclose(report.first, 0.0, atol=0.03)
        np.testing.assert_allclose(report.total, 1.0, atol=0.03)

        biexp = ik.get_model("biexponential")
        design = ik.Design(np.array([1.0]), 1.0)
        prior = Prior(("uniform",) * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        report = ik.sobol_indices(biexp, design, prior, 2**14, seed=0)
        grid = np.linspace(0.5, 2.0, 64, endpoint=False) + (1.5 / 64) / 2
        F = np.exp(-grid[:, None]) + np.exp(-grid[None, :])
        var = F.var()
        quadrature = np.array([F.mean(axis=1).var() / var, F.mean(axis=0).var() / var])
        np.testing.assert_allclose(report.first, quadrature, atol=0.02)


def test_6_profile_fim_agreement():
    with _Gate(6, "profile interval equals the FIM interval on a linear model", 10.0):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(10.0), 0.5)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=7)
        best = next(r for r in ik.multi_start_fit(model, data, 8, seed=1) if r.converged)
        report = ik.fim_report(model, design, best.theta)
        for i in range(2):
            curve = ik.profile_parameter(model, data, best, i)
            half = 1.959964 * np.sqrt(combination_variance(report, np.eye(2)[i]))
            assert curve.interval.lower == pytest.approx(best.theta[i] - half, rel=0.01)
            assert curve.interval.upper == pytest.approx(best.theta[i] + half, rel=0.01)


def test_7_reciprocal_regime_flip():
    with _Gate(7, "recovery succeeds at small theta and fails at large theta", 60.0):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        easy = ik.global_recovery(
            model, design, 50,
            prior=Prior(("uniform",), np.array([0.1]), np.array([1.0])), seed=42,
        )
        hard = ik.global_recovery(
            model, design, 50,
            prior=Prior(("uniform",), np.array([10.0]), np.array([100.0])), seed=42,
        )
        assert easy.success_rate >= 0.95
        assert hard.success_rate <= 0.5


def test_8_information_scaling():
    with _Gate(8, "doubling replicates doubles the FIM and shrinks axes by 1/sqrt(2)", 1.0):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        theta = [2.0, 1.0]
        r1 = ik.fim_report(model, design, theta)
        r2 = ik.fim_report(model, design.with_replicates(2), theta)
        assert np.array_equal(r2.fim, 2.0 * r1.fim)
        e1 = ik.confidence_ellipsoid(r1, theta, 0.95)
        e2 = ik.confidence_ellipsoid(r2, theta, 0.95)
        ratios = e2.semi_axis_lengths / e1.semi_axis_lengths
        assert np.max(np.abs(ratios - 1.0 / np.sqrt(2.0))) <= 1e-12


def test_9_cli_reproducibility(tmp_path):
    with _Gate(9, "every CLI subcommand is reproducible and thread-invariant", 60.0):
        config = {
            "model": {"name": "biexponential"},
            "design": {"times": [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], "noise_sd": 0.05},
            "seed": 7,
            "data": {"theta_true": [2.0, 1.0], "seed": 11},
            "fit": {"starts": 8},
            "fim": {},
            "design_score": {"criterion": "D"},
            "profile": {"parameters": [0], "points": 11},
            "sobol": {"n_samples": 1024, "bootstrap": 50},
            "recover": {"k_trials": 3, "n_starts": 6},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))

        def run(sub, out, threads):
            code = main([sub, "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
            assert code == 0, sub
            payload = json.loads((out / "summary.json").read_text())
            payload.pop("timestamp")
            files = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "summary.json"
            }
            return json.dumps(payload, sort_keys=True), files

        for sub in ("fim", "profile", "sobol", "recover", "design-score", "all"):
            first = run(sub, tmp_path / f"{sub}-a", threads=1)
            second = run(sub, tmp_path / f"{sub}-b", threads=4)
            assert first[0] == second[0], f"{sub}: summaries differ"
            assert first[1].keys() == second[1].keys()
            for name in first[1]:
                assert first[1][name] == second[1][name], f"{sub}: {name} differs"
