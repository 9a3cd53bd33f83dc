"""Profile log-likelihood computation and curve-shape classification."""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit import estimation
from identikit.config import build_config
from identikit.estimation import EstimateResult, log_likelihood
from identikit.fim import combination_variance
from identikit.models import EvaluationError, Model, ParameterSpace, evaluate, restrict
from identikit.profile import (
    BOUND,
    CLASS_FLAT,
    CLASS_IDENTIFIABLE,
    CLASS_INCONCLUSIVE,
    CLASS_PRACTICAL,
    GRID_END,
    LEVEL_SET,
    REFIT_CAP,
    REFIT_FAILED,
    ROOT_TOL,
    UNCONVERGED,
    ProfileCurve,
    ProfileInterval,
    _quadratic_root,
    drop_threshold,
)
from identikit.recovery import DEFAULT_STARTS
from oracles import one_parameter_end

ROOT = Path(__file__).parents[1]


def curve_digest(curve) -> str:
    """sha256 prefix of the curve's grid, values, theta_opt and converged, bit for bit."""
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                     for a in (curve.grid, curve.values, curve.theta_opt, curve.converged)))
    return digest.hexdigest()[:16]


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
        flatness_tol=1e-6,
    )


class TestClassifyProfile:
    def test_flat_curve(self):
        curve = make_curve(np.linspace(0, 1, 11), np.full(11, -3.0) + 1e-13)
        assert curve.classification == CLASS_FLAT

    def test_tight_quadratic(self):
        grid = np.linspace(-1, 1, 41)
        curve = make_curve(grid, -50.0 * grid**2)
        assert curve.classification == CLASS_IDENTIFIABLE
        interval = curve.interval
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
        assert curve.classification == CLASS_PRACTICAL
        interval = curve.interval
        assert interval.upper_open and not interval.lower_open


class TestDropThreshold:
    def test_ninety_five_percent_value(self):
        assert drop_threshold(0.95) == pytest.approx(1.920729, abs=1e-6)


BAD_LEVELS = [0.0, 1.0, 1.5, float("nan")]


class TestLevelValidation:
    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_interval_and_classification_reject_level(self, level):
        grid = np.linspace(-1, 1, 41)
        curves = (make_curve(grid, -50.0 * grid**2, level), make_curve(grid, np.full(41, -3.0), level))
        for curve in curves:
            with pytest.raises(ValueError, match="level"):
                curve.interval
            with pytest.raises(ValueError, match="level"):
                curve.classification

    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_profile_rejects_level_before_any_refit(self, level, monkeypatch):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)

        def no_refit(*args, **kwargs):
            raise AssertionError("refit attempted")

        monkeypatch.setattr("identikit.profile.fit", no_refit)
        with pytest.raises(ValueError, match="level"):
            ik.profile_parameter(model, data, fit, 0, level=level, multistart=2)


class TestProfileParameter:
    def test_flat_profile_on_redundant_exponential(self):
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.05)
        data = ik.generate_data(model, design, [1.0, -0.5, 0.5], seed=11)
        fit = best_fit(model, data)
        curve = ik.profile_parameter(model, data, fit, 0)
        # rank-deficient information matrix, so the first step is the slice's
        # 40th, and the flat curve is stepped out to both bounds
        assert curve.grid[0] == model.space.lower[0]
        assert curve.grid[-1] == model.space.upper[0]
        assert curve.sweep_ends == (BOUND, BOUND)
        assert curve.total_variation < 1e-6
        assert curve.classification == CLASS_FLAT
        # each step triples the one before: 7 refits over both sides, not the 41 of a grid
        assert curve.refits == 7

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
            var_i = combination_variance(report, np.eye(2)[i])
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
            half = 1.959964 * np.sqrt(combination_variance(report, np.eye(2)[i]))
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
                theta = model.space.draw_feasible(lambda: rng.uniform(model.space.lower, model.space.upper))
                theta[0] = g
                objective = 0.5 * np.sum(
                    (data.observations[:, 0] - evaluate(model, design, theta)) ** 2
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
        space = ParameterSpace(np.array([0.1, 0.1]), np.array([10.0, 10.0]))

        def fn(times, ths):
            return np.where(ths[:, :1] > 5.0, np.inf, ths[:, :1] + ths[:, 1:] * times)

        model = Model(name="partial", space=space, f=fn)
        design = ik.Design(np.linspace(0.0, 2.0, 5), 0.1)
        data = ik.generate_data(model, design, [1.0, 2.0], seed=0)
        fit = estimation.fit(model, data, [0.5, 1.0])
        curve = ik.profile_parameter(
            model, data, fit, 0, grid=np.linspace(0.2, 9.0, 15)
        )
        assert curve.truncated and curve.sweep_ends[1] == REFIT_FAILED
        assert curve.grid[-1] <= 5.0
        # the upper side crossed the level set before the failure, so the failure decides nothing
        assert curve.interval.upper_end == LEVEL_SET
        assert curve.classification == CLASS_IDENTIFIABLE

    def test_grid_outside_slice_rejected(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)
        with pytest.raises(ik.OutOfBoundsError):
            ik.profile_parameter(model, data, fit, 0, grid=np.array([-1.0, 0.5, 2.0]))

    @pytest.mark.parametrize("order", [[5, 4, 3, 2, 1, 0], [4, 0, 2, 1, 5, 3], [0, 1, 1, 2]])
    def test_grid_not_strictly_increasing_rejected(self, order, monkeypatch):
        # formerly swept as given: the descending grid gave the interval (2.215, 0.976),
        # lower above upper, and the shuffled one another interval than the sorted grid
        model = ik.get_model("biexponential")
        design = ik.Design(np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), 0.05)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=11)
        fit = best_fit(model, data)
        grid = np.linspace(0.5, 3.0, 6)[order]
        monkeypatch.setattr("identikit.profile.fit", lambda *args: pytest.fail("refit an unchecked grid"))
        with pytest.raises(ValueError, match="strictly increasing"):
            ik.profile_parameter(model, data, fit, 0, grid=grid)

    def test_requires_converged_fit(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        data = ik.generate_data(model, design, [0.5], seed=0)
        fit = best_fit(model, data, k=4)
        broken = EstimateResult(
            theta=fit.theta, objective=fit.objective, sigma2=fit.sigma2,
            converged=False, iterations=1, start=fit.start, reason="max-iter",
        )
        with pytest.raises(ValueError):
            ik.profile_parameter(model, data, broken, 0)


def config_case(path):
    """Model, data, best fit and profile settings of a run configuration, as the CLI builds them."""
    config = build_config(json.loads((ROOT / path).read_text()))
    data = ik.generate_data(config.model, config.design, config.data["theta_true"], config.data["seed"])
    fits = ik.multi_start_fit(config.model, data, config.fit["starts"], config.seed)
    best = next(r for r in fits if r.converged)
    return config.model, data, best, config.profile["parameters"], config.profile["points"]


def linear_case():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    model = ik.get_model("linear", design_matrix=X)
    data = ik.generate_data(model, ik.Design(np.arange(10.0), 0.5), [1.0, 2.0], seed=7)
    return model, data, best_fit(model, data, k=8, seed=1), [0, 1], 41


CASES = {
    "logistic-ode": lambda: config_case("bench/configs/logistic_ode.json"),
    "biexp-all": lambda: config_case("configs/biexponential_all.json"),
    "linear": linear_case,
}
# curve_digest of each default-sweep curve of CASES, by (name, index): a change that moves a digit fails
PINNED = {
    ("biexp-all", 0): "a47cf9bae2a31815", ("biexp-all", 1): "ee34c525e2cd117c",
    ("linear", 0): "0770fad83c655e73", ("linear", 1): "ee4f8446c90e0a7a",
    ("logistic-ode", 0): "600d23722db5acf9", ("logistic-ode", 1): "563e3348c42644d5",
}


class TestLevelSetStop:
    """Each side of the default sweep ends one refit past the level set, and its crossing is
    refined until the interval end is a root; an explicit grid is swept in full."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_default_sweep_ends_are_roots_of_the_level(self, name):
        model, data, fit, indices, points = CASES[name]()
        sigma = data.design.noise_sd
        for i in indices:
            curve = ik.profile_parameter(model, data, fit, i, points=points)
            assert curve_digest(curve) == PINNED[name, i]
            grid, values = curve.grid, curve.values
            # the fit is the curve's highest point, taken as it is, and the points increase
            at = int(np.flatnonzero(grid == fit.theta[i])[0])
            assert values[at] == curve.loglik_hat == values.max()
            assert curve.theta_opt[at].tobytes() == fit.theta.tobytes()
            assert np.all(np.diff(grid) > 0)
            # each side ended one refit past the level set, within its `points` refits
            assert curve.sweep_ends == (LEVEL_SET, LEVEL_SET) and not curve.truncated
            assert at <= points and grid.size - 1 - at <= points
            assert curve.classification == CLASS_IDENTIFIABLE
            # the points inside the interval lie in the level set, those outside below it
            target = curve.loglik_hat - drop_threshold(curve.level)
            interval = curve.interval
            inside = (grid >= interval.lower) & (grid <= interval.upper)
            assert np.all(values[inside] >= target) and np.all(values[~inside] < target)
            for end in (interval.lower, interval.upper):
                # one of the two points that bracket the end lies within ROOT_TOL of the level ...
                k = int(np.searchsorted(grid, end))
                assert min(values[k - 1] - target, target - values[k]) <= ROOT_TOL
                # ... and a refit at the end itself lies on it
                refit = estimation.fit(restrict(model, {i: end}), data, np.delete(curve.theta_opt[k], i))
                assert refit.converged
                assert log_likelihood(refit.objective, sigma) == pytest.approx(target, abs=2 * ROOT_TOL)

    def test_redundant_structural_curve_is_flat_to_both_bounds(self):
        model, data, fit, indices, points = config_case("configs/redundant_structural.json")
        curve = ik.profile_parameter(model, data, fit, indices[0], points=points)
        assert curve_digest(curve) == "fdb622c1390a170d"
        assert curve.sweep_ends == (BOUND, BOUND) and curve.classification == CLASS_FLAT
        assert (curve.interval.lower, curve.interval.upper) == (model.space.lower[0], model.space.upper[0])

    def test_logistic_refit_count(self, monkeypatch):
        model, data, fit, indices, points = CASES["logistic-ode"]()
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return estimation.fit(*args, **kwargs)

        monkeypatch.setattr("identikit.profile.fit", counting_fit)
        curves = [ik.profile_parameter(model, data, fit, i, points=points) for i in indices]
        # a 21-point grid ended one refit past the level set took 18
        assert len(calls) == sum(curve.refits for curve in curves) == 16
        calls.clear()
        grid = np.linspace(0.9, 1.1, 11)  # swept in full, one refit a value
        assert ik.profile_parameter(model, data, fit, 0, grid=grid).refits == len(calls) == 11


RECIPROCAL_CASES = list(itertools.product([12.0, 15.0, 20.0, 30.0, 60.0], [11, 12, 13]))


def reciprocal_case(theta_star, seed):
    model = ik.get_model("reciprocal")
    data = ik.generate_data(model, ik.Design(np.linspace(1.0, 10.0, 10), 0.1), [theta_star], seed=seed)
    return model, data, best_fit(model, data)


class TestExactEnds:
    """Interval ends against the exact roots of the profile minus the level."""

    @pytest.mark.parametrize("theta_star, seed", RECIPROCAL_CASES)
    def test_reciprocal_ends_are_the_bisected_roots(self, theta_star, seed):
        # a one-parameter profile is the log-likelihood itself, so each end is a root that
        # bisection finds; the upper side is open only if the level set reaches the bound
        model, data, fit = reciprocal_case(theta_star, seed)
        curve = ik.profile_parameter(model, data, fit, 0)
        target = curve.loglik_hat - drop_threshold(curve.level)
        lo, hi = model.space.lower[0], model.space.upper[0]
        lower = one_parameter_end(model, data, fit.theta[0], lo, target)
        upper = one_parameter_end(model, data, fit.theta[0], hi, target)
        interval = curve.interval
        assert interval.lower == pytest.approx(lower, rel=1e-6)
        assert (interval.lower_end, interval.lower_open) == (LEVEL_SET, False)
        if upper is None:
            assert (interval.upper, interval.upper_end, interval.upper_open) == (hi, BOUND, True)
            assert curve.classification == CLASS_PRACTICAL
        else:
            assert interval.upper == pytest.approx(upper, rel=1e-6)
            assert (interval.upper_end, interval.upper_open) == (LEVEL_SET, False)
            assert curve.classification == CLASS_IDENTIFIABLE

    def test_reciprocal_theta_15_seed_11(self):
        # the fixed 41-point grid over the fit +/- 5 sds gave [7.40, 42.75 open]
        curve = ik.profile_parameter(*reciprocal_case(15.0, 11), 0)
        assert (round(curve.interval.lower, 3), round(curve.interval.upper, 3)) == (7.374, 85.841)
        assert curve.classification == CLASS_IDENTIFIABLE

    def test_biexp_rate2_lower_end_lies_past_the_swap_optimum(self):
        # rate2's lower side dips, climbs back to the fit's level at the swap optimum (rate2 at
        # the fitted rate1), and only then crosses; the grid's chord put the end at 0.848866
        model, data, fit, _, points = config_case("configs/biexponential_all.json")
        curve = ik.profile_parameter(model, data, fit, 1, points=points)
        target = curve.loglik_hat - drop_threshold(curve.level)
        lower = curve.interval.lower
        assert lower == pytest.approx(0.843219, abs=1e-6)
        passed = curve.values[(curve.grid > lower) & (curve.grid < fit.theta[1])]
        assert passed.size >= 2 and np.all(passed >= target)
        # independently: the best rate1 on a fine scan at rate2 = lower lies on the level
        rate1 = np.linspace(0.01, 10.0, 200_001)[:, None]
        times = data.design.time_points
        residuals = data.observations[:, 0] - np.exp(-rate1 * times) - np.exp(-lower * times)
        best = 0.5 * np.min(np.sum(residuals**2, axis=1))
        assert log_likelihood(best, data.design.noise_sd) == pytest.approx(target, abs=1e-4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_linear_interval_is_the_fim_interval(self, n, p, seed):
        # a linear model's profile is exactly quadratic, with the FIM's curvature
        rng = np.random.default_rng(seed)
        model = ik.get_model("linear", design_matrix=rng.normal(size=(n, p)))
        design = ik.Design(np.arange(float(n)), float(rng.uniform(0.05, 1.0)))
        data = ik.generate_data(model, design, rng.uniform(-2.0, 2.0, p), seed=seed)
        fit = estimation.fit(model, data, np.zeros(p))
        report = ik.fim_report(model, design, fit.theta)
        assume(report.classification == "identifiable")
        for i in range(p):
            sd = float(np.sqrt(combination_variance(report, np.eye(p)[i])))
            half = np.sqrt(2.0 * drop_threshold(0.95)) * sd
            assume(model.space.lower[i] < fit.theta[i] - half and fit.theta[i] + half < model.space.upper[i])
            interval = ik.profile_parameter(model, data, fit, i).interval
            assert interval.lower == pytest.approx(fit.theta[i] - half, abs=1e-6 * sd)
            assert interval.upper == pytest.approx(fit.theta[i] + half, abs=1e-6 * sd)


class TestRestrictedOncePerPoint:
    """A point's refits, warm and cold, fit the one restricted model built for it."""

    # (index, grid, sha256 prefix of the curve's grid, values, theta_opt and converged),
    # pinned from the profile that built the restricted model again for each start (the
    # ordered one since the restricted bound is the held value and cold starts are not redrawn)
    CASES = {
        "unordered": (0, None, "10135facf0b6d3be"),
        # the last value leaves rate1 >= 10 one value and no interval: restrict raises, and the point has no row
        "ordered": (1, [0.8, 0.9, 1.1, 1.2, 10.0], "d0856624cf19c331"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_restrict_call_per_point_at_multistart_4(self, monkeypatch, name):
        index, grid, pinned = self.CASES[name]
        raw = json.loads((ROOT / "configs/biexponential_ordered.json").read_text())
        raw["model"]["constants"]["ordered"] = name == "ordered"
        config = build_config(raw)
        data = ik.generate_data(config.model, config.design, config.data["theta_true"], config.data["seed"])
        fit = ik.multi_start_fit(config.model, data, DEFAULT_STARTS, config.seed)[0]
        held = []
        monkeypatch.setattr("identikit.profile.restrict",
                            lambda model, values: held.append(values) or restrict(model, values))
        curve = ik.profile_parameter(config.model, data, fit, index, grid=grid, multistart=4, seed=config.seed)
        assert curve_digest(curve) == pinned
        if grid is None:
            assert len(held) == curve.refits == 15
        else:
            assert {index: 10.0} in held and 10.0 not in curve.grid
            assert len(held) == curve.refits + 1 and curve.sweep_ends == (GRID_END, REFIT_FAILED)


class TestStalls:
    """A side that a failed, stalled or capped refit decides gives no verdict."""

    def refits_that(self, monkeypatch, change):
        """Patch the profile's refits to return ``change(result, value)`` of each real refit of a
        model restricted to the profiled parameter at ``value``."""
        held = {}

        def restricted(model, values):
            (value,) = values.values()
            model = restrict(model, values)
            held[id(model)] = value
            return model

        def patched(model, dataset, start):
            return change(estimation.fit(model, dataset, start), held[id(model)])
        monkeypatch.setattr("identikit.profile.restrict", restricted)
        monkeypatch.setattr("identikit.profile.fit", patched)

    def test_failed_refits_make_the_side_inconclusive(self, monkeypatch):
        model, data, fit, _, _ = linear_case()

        def fail_above(result, value):
            if value > fit.theta[0]:
                raise EvaluationError("no output above the fit")
            return result

        self.refits_that(monkeypatch, fail_above)
        curve = ik.profile_parameter(model, data, fit, 0)
        assert curve.truncated and curve.sweep_ends == (LEVEL_SET, REFIT_FAILED)
        interval = curve.interval
        assert (interval.upper, interval.upper_open, interval.upper_end) == (fit.theta[0], True, REFIT_FAILED)
        assert curve.classification == CLASS_INCONCLUSIVE

    def test_a_flat_looking_curve_of_failed_refits_is_inconclusive(self, monkeypatch):
        # every refit fails, so the curve is the fit alone: no variation, but no verdict either
        model, data, fit, _, _ = linear_case()

        def fail(result, value):
            raise EvaluationError("no output")

        self.refits_that(monkeypatch, fail)
        curve = ik.profile_parameter(model, data, fit, 0)
        assert curve.grid.tolist() == [fit.theta[0]] and curve.total_variation == 0.0
        assert curve.sweep_ends == (REFIT_FAILED, REFIT_FAILED)
        assert curve.classification == CLASS_INCONCLUSIVE

    def test_unconverged_refit_past_the_level_is_inconclusive(self, monkeypatch):
        # a refit that stops early reports too high an objective: it may cross the level only seemingly
        model, data, fit, _, _ = linear_case()

        def stall_above(result, value):
            if value > fit.theta[0]:
                return EstimateResult(**{**vars(result), "objective": result.objective + 1.0, "converged": False,
                                         "reason": "max-iter"})
            return result

        self.refits_that(monkeypatch, stall_above)
        curve = ik.profile_parameter(model, data, fit, 0)
        assert not curve.truncated
        assert (curve.interval.upper_open, curve.interval.upper_end) == (False, UNCONVERGED)
        assert curve.classification == CLASS_INCONCLUSIVE

    def test_unconverged_refits_inside_the_level_set_decide_nothing(self, monkeypatch):
        model, data, fit, _, _ = linear_case()
        plain = ik.profile_parameter(model, data, fit, 0)
        band = (fit.theta[0], plain.interval.upper - 0.1 * (plain.interval.upper - fit.theta[0]))

        def stall_inside(result, value):
            if band[0] < value < band[1]:
                return EstimateResult(**{**vars(result), "converged": False, "reason": "max-iter"})
            return result

        self.refits_that(monkeypatch, stall_inside)
        curve = ik.profile_parameter(model, data, fit, 0)
        assert not curve.converged.all()
        assert curve.interval == plain.interval and curve.classification == CLASS_IDENTIFIABLE

    def test_side_out_of_refits_is_inconclusive(self):
        # a first step of 0.005 sds, tripled four times, is 0.6 sds out when the cap of 5 refits ends it
        model, data, fit, _, _ = linear_case()
        curve = ik.profile_parameter(model, data, fit, 0, points=5, span_sd=0.01)
        assert curve.sweep_ends == (REFIT_CAP, REFIT_CAP) and curve.refits == 10
        assert (curve.interval.lower_end, curve.interval.upper_end) == (REFIT_CAP, REFIT_CAP)
        assert curve.classification == CLASS_INCONCLUSIVE

    def test_a_failed_refit_inside_a_bracket_ends_its_refinement(self, monkeypatch):
        # every refit nearer the fit than one before it on its side is a refinement: each fails, so
        # each side keeps the bracket its sweep ended on, and its end is that bracket's chord
        model, data, fit, _, _ = linear_case()
        center, swept = fit.theta[0], []

        def fail_inside(result, value):
            if any((v > center) == (value > center) and abs(v - center) > abs(value - center) for v in swept):
                raise EvaluationError("no output inside the bracket")
            swept.append(value)
            return result

        self.refits_that(monkeypatch, fail_inside)
        curve = ik.profile_parameter(model, data, fit, 0)
        assert sorted(swept + [center]) == curve.grid.tolist()
        assert curve.sweep_ends == (LEVEL_SET, LEVEL_SET) and not curve.truncated
        target = curve.loglik_hat - drop_threshold(curve.level)
        grid, values, interval = curve.grid, curve.values, curve.interval
        for end, (inside, out) in ((interval.lower, (1, 0)), (interval.upper, (-2, -1))):
            assert min(values[inside] - target, target - values[out]) > ROOT_TOL  # not refined
            assert end == reference_crossing(grid[inside], values[inside], grid[out], values[out], target)
        assert curve.classification == CLASS_IDENTIFIABLE

    def test_open_side_of_an_explicit_grid_says_grid_end(self):
        model, data, fit, _, _ = linear_case()
        grid = fit.theta[0] + np.linspace(-0.1, 0.1, 5)
        curve = ik.profile_parameter(model, data, fit, 0, grid=grid)
        interval = curve.interval
        assert (interval.lower_end, interval.upper_end) == (GRID_END, GRID_END)
        assert (interval.lower, interval.upper) == (grid[0], grid[-1])
        assert curve.classification == CLASS_PRACTICAL


@pytest.mark.parametrize("points, target, fallback", [
    ((0.0, 0.0, 1.0, -1.0, 2.0, -2.0), -1.5, 1.25),  # qa == 0: collinear, the chord's root is the line's
    ((-1.0, -1.0, 0.0, 0.0, 1.0, -1.0), 0.5, 0.75),  # disc < 0: v = -x^2 never reaches 0.5
], ids=["collinear", "no real root"])
def test_quadratic_root_without_a_root_of_its_own_is_the_fallback(points, target, fallback):
    assert _quadratic_root(*points, target, fallback) == fallback


# The interval and classification as they were computed before a curve derived them:
# two mirrored crossing loops over a stored curve, with the level passed beside it.


def reference_interval(curve, level):
    target = float(np.max(curve.values)) - drop_threshold(level)
    peak = int(np.argmax(curve.values))
    grid, values = curve.grid, curve.values

    upper, upper_open = float(grid[-1]), True
    for k in range(peak + 1, grid.size):
        if values[k] < target:
            upper = reference_crossing(grid[k - 1], values[k - 1], grid[k], values[k], target)
            upper_open = False
            break
    lower, lower_open = float(grid[0]), True
    for k in range(peak - 1, -1, -1):
        if values[k] < target:
            lower = reference_crossing(grid[k + 1], values[k + 1], grid[k], values[k], target)
            lower_open = False
            break
    return ProfileInterval(lower, upper, lower_open, upper_open)


def reference_crossing(x_in, v_in, x_out, v_out, target):
    if v_out == v_in:
        return float(x_out)
    w = (v_in - target) / (v_in - v_out)
    return float(x_in + w * (x_out - x_in))


def reference_total_variation(values):
    return float(np.sum(np.abs(np.diff(values)))) if values.size > 1 else 0.0


def reference_classification(curve, level):
    interval = reference_interval(curve, level)
    if reference_total_variation(curve.values) < curve.flatness_tol:
        return CLASS_FLAT
    if interval.lower_open or interval.upper_open:
        return CLASS_PRACTICAL
    return CLASS_IDENTIFIABLE


@st.composite
def drawn_curves(draw):
    """Curves of 1-41 strictly increasing points whose values repeat a few levels
    often (equal neighbours, plateaus, tied maxima), sometimes sorted so that the
    peak sits at an end."""
    n = draw(st.integers(1, 41))
    finite = dict(allow_nan=False, allow_infinity=False)
    grid = sorted(draw(st.lists(st.floats(-100.0, 100.0, **finite), min_size=n, max_size=n, unique=True)))
    pool = draw(st.lists(st.floats(-10.0, 0.0, **finite), min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool) | st.floats(-10.0, 0.0, **finite), min_size=n, max_size=n))
    order = draw(st.sampled_from(["drawn", "rising", "falling"]))
    if order != "drawn":
        values = sorted(values, reverse=order == "falling")
    values = np.array(values) * draw(st.sampled_from([1e-9, 1.0, 100.0]))
    curve = make_curve(grid, values, level=draw(st.sampled_from([0.5, 0.9, 0.95, 0.99]) | st.floats(0.01, 0.99)))
    return ProfileCurve(**{**vars(curve), "flatness_tol": draw(st.sampled_from([1e-6, 1e-3, 1.0]))})


def interval_bits(interval):
    return interval.lower.hex(), interval.upper.hex(), interval.lower_open, interval.upper_open


def curve_features(curve) -> set:
    values = curve.values
    peak = int(np.argmax(values))
    features = {curve.classification, "single" if values.size == 1 else "several"}
    if np.any(values[1:] == values[:-1]):
        features.add("equal neighbours")
    if np.sum(values == values.max()) > 1:
        features.add("tied maximum")
    if values.size > 2 and peak in (0, values.size - 1):
        features.add("peak first" if peak == 0 else "peak last")
    return features


def test_derived_verdicts_match_the_reference():
    """A curve's interval, classification and total variation equal those of the
    stored-verdict code, over draws that reach every edge case named below."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_curves())
    def check(curve):
        assert interval_bits(curve.interval) == interval_bits(reference_interval(curve, curve.level))
        assert curve.classification == reference_classification(curve, curve.level)
        assert curve.total_variation == reference_total_variation(curve.values)
        seen.update(curve_features(curve))

    check()
    assert seen >= {"single", "several", "equal neighbours", "tied maximum", "peak first", "peak last",
                    CLASS_FLAT, CLASS_PRACTICAL, CLASS_IDENTIFIABLE}
