"""Profile log-likelihood computation and curve-shape classification."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit.config import build_config
from identikit.estimation import log_likelihood
from identikit.profile import (
    CLASS_FLAT,
    CLASS_IDENTIFIABLE,
    CLASS_PRACTICAL,
    DEFAULT_SPAN_SD,
    ProfileCurve,
    ProfileInterval,
    _default_grid,
    drop_threshold,
)

ROOT = Path(__file__).parents[1]


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
        flatness_tol=1e-6, truncated=False,
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
                theta = model.space.draw_feasible(lambda: rng.uniform(model.space.lower, model.space.upper))
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
        broken = ik.EstimateResult(
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


def level_set_run(full, center):
    """Slice bounds of ``full`` that the stop rule keeps: from the grid point
    nearest ``center`` each side runs to its first value more than the drop
    below both the fit's log-likelihood and the highest value so far, the
    upper side first."""
    values, drop = full.values, drop_threshold(full.level)
    start = int(np.argmin(np.abs(full.grid - center)))
    seen = -np.inf

    def last(ks, end):
        nonlocal seen
        for k in ks:
            seen = max(seen, values[k])
            if values[k] < min(full.loglik_hat, seen) - drop:
                return k
        return end

    stop = last(range(start, values.size), values.size - 1) + 1
    return last(range(start - 1, -1, -1), 0), stop


CASES = {
    "logistic-ode": lambda: config_case("bench/configs/logistic_ode.json"),
    "biexp-all": lambda: config_case("configs/biexponential_all.json"),
    "linear": linear_case,
}


class TestLevelSetStop:
    """A default-grid sweep ends one refit past the level set; explicit grids are swept in full."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_default_grid_curve_is_a_run_of_the_full_sweep(self, name):
        model, data, fit, indices, points = CASES[name]()
        for i in indices:
            stopped = ik.profile_parameter(model, data, fit, i, points=points)
            grid = _default_grid(model, data, fit, i, points, DEFAULT_SPAN_SD)
            full = ik.profile_parameter(model, data, fit, i, grid=grid)
            assert full.grid.size == points and stopped.grid.size < points
            start = int(np.flatnonzero(full.grid == stopped.grid[0])[0])
            run = slice(start, start + stopped.grid.size)
            for field in ("grid", "values", "theta_opt", "converged"):
                assert getattr(full, field)[run].tobytes() == getattr(stopped, field).tobytes(), field
            assert stopped.interval == full.interval
            assert stopped.classification == full.classification == CLASS_IDENTIFIABLE
            assert not stopped.truncated and not full.truncated
            assert (run.start, run.stop) == level_set_run(full, fit.theta[i])

    def test_logistic_refit_count(self, monkeypatch):
        model, data, fit, indices, points = CASES["logistic-ode"]()
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return ik.fit(*args, **kwargs)

        monkeypatch.setattr("identikit.profile.fit", counting_fit)
        for i in indices:
            ik.profile_parameter(model, data, fit, i, points=points)
        assert len(calls) == 18
        calls.clear()
        for i in indices:
            grid = _default_grid(model, data, fit, i, points, DEFAULT_SPAN_SD)
            ik.profile_parameter(model, data, fit, i, grid=grid)
        assert len(calls) == 42


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
