"""Profile log-likelihood computation and curve-shape classification."""

import numpy as np
import pytest

import identikit as ik
from identikit.estimation import log_likelihood
from identikit.profile import (
    CLASS_FLAT,
    CLASS_IDENTIFIABLE,
    CLASS_PRACTICAL,
    ProfileCurve,
    ProfileInterval,
    drop_threshold,
)


def best_fit(model, data, k=16, seed=0):
    results = ik.multi_start_fit(model, data, k, seed=seed)
    return next(r for r in results if r.converged)


def make_curve(grid, values, level=0.95):
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    return ProfileCurve(
        index=0, grid=grid, values=values,
        theta_opt=np.zeros((grid.size, 1)),
        converged=np.ones(grid.size, dtype=bool),
        loglik_hat=float(values.max()), level=level,
        interval=ProfileInterval(grid[0], grid[-1], True, True),
        classification="", total_variation=float(np.sum(np.abs(np.diff(values)))),
        flatness_tol=1e-6, truncated=False,
    )


class TestClassifyProfile:
    def test_flat_curve(self):
        curve = make_curve(np.linspace(0, 1, 11), np.full(11, -3.0) + 1e-13)
        assert ik.classify_profile(curve, 0.95) == CLASS_FLAT

    def test_tight_quadratic(self):
        grid = np.linspace(-1, 1, 41)
        curve = make_curve(grid, -50.0 * grid**2)
        assert ik.classify_profile(curve, 0.95) == CLASS_IDENTIFIABLE
        interval = ik.likelihood_interval(curve, 0.95)
        # drop of 1.920729 at 50 x^2 -> x = sqrt(1.920729 / 50)
        expect = np.sqrt(drop_threshold(0.95) / 50.0)
        assert interval.lower == pytest.approx(-expect, rel=1e-2)
        assert interval.upper == pytest.approx(expect, rel=1e-2)
        assert not interval.lower_open and not interval.upper_open

    def test_one_sided_plateau(self):
        # monotone rise flattening into a plateau: crosses the threshold on
        # the left, never on the right
        grid = np.linspace(0, 10, 41)
        values = -3.0 * np.exp(-grid)
        curve = make_curve(grid, values)
        assert ik.classify_profile(curve, 0.95) == CLASS_PRACTICAL
        interval = ik.likelihood_interval(curve, 0.95)
        assert interval.upper_open and not interval.lower_open


class TestDropThreshold:
    def test_ninety_five_percent_value(self):
        assert drop_threshold(0.95) == pytest.approx(1.920729, abs=1e-6)


BAD_LEVELS = [0.0, 1.0, 1.5, float("nan")]


class TestLevelValidation:
    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_interval_and_classification_reject_level(self, level):
        grid = np.linspace(-1, 1, 41)
        curves = (make_curve(grid, -50.0 * grid**2), make_curve(grid, np.full(41, -3.0)))
        for curve in curves:
            with pytest.raises(ValueError, match="level"):
                ik.likelihood_interval(curve, level)
            with pytest.raises(ValueError, match="level"):
                ik.classify_profile(curve, level)

    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_profile_rejects_level_before_any_refit(self, level, monkeypatch):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)

        def no_refit(*args, **kwargs):
            raise AssertionError("refit attempted")

        monkeypatch.setattr("identikit.profile.fit", no_refit)
        monkeypatch.setattr("identikit.profile.multi_start_fit", no_refit)
        with pytest.raises(ValueError, match="level"):
            ik.profile_parameter(model, data, fit, 0, level=level, multistart=2)


class TestProfileParameter:
    def test_flat_profile_on_redundant_exponential(self):
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.05)
        data = ik.generate_data(model, design, [1.0, -0.5, 0.5], seed=11)
        fit = best_fit(model, data)
        curve = ik.profile_parameter(model, data, fit, 0)
        # rank-deficient information matrix, so the grid falls back to the
        # full amplitude slice
        assert curve.grid[0] == model.space.lower[0]
        assert curve.grid[-1] == model.space.upper[0]
        assert curve.total_variation < 1e-6
        assert curve.classification == CLASS_FLAT

    def test_linear_profile_is_quadratic_with_fim_curvature(self):
        # closed-form oracle: profiling a quadratic objective gives
        # drop = (g - theta_hat_i)^2 / (2 (I^-1)_ii)
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(10.0), 0.5)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=7)
        fit = best_fit(model, data, k=8, seed=1)
        report = ik.fim_report(model, design, fit.theta)
        for i in range(2):
            curve = ik.profile_parameter(model, data, fit, i, points=21)
            var_i = ik.combination_variance(report, np.eye(2)[i])
            expect = curve.loglik_hat - (curve.grid - fit.theta[i]) ** 2 / (2 * var_i)
            np.testing.assert_allclose(curve.values, expect, atol=1e-8)

    def test_interval_matches_fim_interval_on_linear_model(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(10.0), 0.5)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=7)
        fit = best_fit(model, data, k=8, seed=1)
        report = ik.fim_report(model, design, fit.theta)
        for i in range(2):
            curve = ik.profile_parameter(model, data, fit, i)
            half = 1.959964 * np.sqrt(ik.combination_variance(report, np.eye(2)[i]))
            assert curve.interval.lower == pytest.approx(fit.theta[i] - half, rel=0.01)
            assert curve.interval.upper == pytest.approx(fit.theta[i] + half, rel=0.01)
            assert curve.classification == CLASS_IDENTIFIABLE

    def test_reciprocal_unbounded_above_at_large_theta(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [20.0], seed=5)
        fit = best_fit(model, data)
        curve = ik.profile_parameter(model, data, fit, 0)
        assert curve.classification == CLASS_PRACTICAL
        assert curve.interval.upper_open
        assert not curve.interval.lower_open

    def test_peak_matches_loglik_hat_when_grid_contains_fit(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.1)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=2)
        fit = best_fit(model, data, seed=7)
        curve = ik.profile_parameter(model, data, fit, 0, points=21)
        assert np.min(np.abs(curve.grid - fit.theta[0])) < 1e-9
        assert abs(np.max(curve.values) - curve.loglik_hat) < 1e-6
        assert np.all(curve.values <= curve.loglik_hat + 1e-9)

    def test_profile_dominates_feasible_points(self):
        # p_i(g) is a maximum over the slice, so no feasible point may beat it
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(10.0), 0.5)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=3)
        fit = best_fit(model, data, k=8, seed=1)
        curve = ik.profile_parameter(model, data, fit, 0, points=11)
        rng = np.random.default_rng(12)
        sigma = design.noise_sd
        for g, p_val in zip(curve.grid[::2], curve.values[::2]):
            for _ in range(100):
                theta = model.space.sample(rng, 1)[0]
                theta[0] = g
                objective = 0.5 * np.sum(
                    (data.observations[:, 0] - ik.evaluate(model, design, theta)) ** 2
                )
                assert p_val >= log_likelihood(objective, sigma) - 1e-9

    def test_warm_start_independence(self):
        # cold multi-start refits reproduce the warm-started curve
        for name, theta_star, times in [
            ("linear", [1.0, 2.0], np.arange(10.0)),
            ("redundant-exponential", [1.0, -0.5, 0.5], np.linspace(0.0, 3.0, 6)),
        ]:
            if name == "linear":
                X = np.column_stack([np.ones(10), np.arange(10.0)])
                model = ik.get_model(name, design_matrix=X)
            else:
                model = ik.get_model(name)
            design = ik.Design(times, 0.1)
            data = ik.generate_data(model, design, theta_star, seed=6)
            fit = best_fit(model, data)
            warm = ik.profile_parameter(model, data, fit, 0, points=11)
            cold = ik.profile_parameter(model, data, fit, 0, points=11, multistart=8, seed=1)
            np.testing.assert_allclose(cold.values, warm.values, atol=1e-6)

    def test_truncated_when_refits_fail(self):
        # a model that stops evaluating past part of the slice truncates the
        # sweep on that side and flags it
        space = ik.ParameterSpace(np.array([0.1, 0.1]), np.array([10.0, 10.0]))

        def fn(times, ths):
            return np.where(ths[:, :1] > 5.0, np.inf, ths[:, :1] + ths[:, 1:] * times)

        model = ik.Model(name="partial", space=space, f=fn)
        design = ik.Design(np.linspace(0.0, 2.0, 5), 0.1)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=0)
        fit = ik.fit(model, data, [0.5, 1.0])
        curve = ik.profile_parameter(
            model, data, fit, 0, grid=np.linspace(0.2, 9.0, 15)
        )
        assert curve.truncated
        assert curve.grid[-1] <= 5.0

    def test_grid_outside_slice_rejected(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)
        with pytest.raises(ik.OutOfBoundsError):
            ik.profile_parameter(model, data, fit, 0, grid=np.array([-1.0, 0.5, 2.0]))

    def test_requires_converged_fit(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)
        broken = ik.EstimateResult(
            theta=fit.theta, objective=fit.objective, sigma2=fit.sigma2,
            converged=False, iterations=1, start=fit.start, reason="max-iter",
        )
        with pytest.raises(ValueError):
            ik.profile_parameter(model, data, broken, 0)

    def test_csv_rows_shape(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)
        curve = ik.profile_parameter(model, data, fit, 0, points=7)
        rows = curve.csv_rows()
        assert len(rows) == curve.grid.size
        assert all(len(r) == 3 for r in rows)
