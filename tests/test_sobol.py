"""Pick-freeze Sobol indices against analytic and quadrature oracles."""

import numpy as np
import pytest

import identikit as ik
from identikit.models import Design, Model, ParameterSpace
from identikit.sobol import Prior, screen_unidentifiable, sobol_indices


def algebraic_model(name, fn, lower, upper):
    space = ParameterSpace(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
    return Model(
        name=name,
        space=space,
        f=lambda times, ths: np.zeros((len(ths), len(times))) + np.reshape(fn(ths.T), (-1, 1)),
    )


ONE_TIME = Design(np.array([0.0]), 1.0)


class TestPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            Prior(("uniform",), np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            Prior(("log-uniform",), np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Prior(("triangular",), np.array([0.0]), np.array([1.0]))

    def test_log_uniform_sampling_range(self):
        prior = Prior(("log-uniform",), np.array([0.01]), np.array([100.0]))
        draws = prior.sample(2000, np.random.default_rng(0))
        assert draws.min() >= 0.01 and draws.max() <= 100.0
        # median of a log-uniform sits at the geometric mean of the bounds
        assert np.median(draws) == pytest.approx(1.0, rel=0.2)

    def test_containment_check(self):
        space = ParameterSpace(np.zeros(2), np.ones(2))
        assert Prior.uniform_box(space).contained_in(space)
        wide = Prior(("uniform",) * 2, np.zeros(2), np.full(2, 2.0))
        assert not wide.contained_in(space)


class TestSobolIndices:
    def test_additive_model_analytic(self):
        # y = t1 + t2 on U(0,1)^2: Var = 1/12 + 1/12, S_i = 0.5, S_Ti = S_i
        model = algebraic_model("additive", lambda th: th[0] + th[1], [0, 0], [1, 1])
        prior = Prior.uniform_box(model.space)
        report = sobol_indices(model, ONE_TIME, prior, 2**14, seed=0)
        np.testing.assert_allclose(report.first, 0.5, atol=0.02)
        np.testing.assert_allclose(report.total, 0.5, atol=0.02)
        assert not report.degenerate

    def test_constant_model_degenerate(self):
        model = algebraic_model("constant", lambda th: 3.0, [0, 0], [1, 1])
        report = sobol_indices(model, ONE_TIME, Prior.uniform_box(model.space), 2**10, seed=0)
        assert report.degenerate
        np.testing.assert_array_equal(report.first, 0.0)
        np.testing.assert_array_equal(report.total, 0.0)

    def test_product_model_pure_interaction(self):
        # y = t1 t2 on U(-1,1)^2: E(y|t_i) = 0 so S_i = 0, all variance is
        # interaction so S_Ti = 1
        model = algebraic_model("product", lambda th: th[0] * th[1], [-1, -1], [1, 1])
        prior = Prior.uniform_box(model.space)
        report = sobol_indices(model, ONE_TIME, prior, 2**14, seed=0)
        np.testing.assert_allclose(report.first, 0.0, atol=0.03)
        np.testing.assert_allclose(report.total, 1.0, atol=0.03)

    def test_additive_first_order_indices_sum_to_one(self):
        model = algebraic_model(
            "additive3", lambda th: th[0] + 2.0 * th[1] - 0.5 * th[2], [0, 0, 0], [1, 1, 1]
        )
        prior = Prior.uniform_box(model.space)
        report = sobol_indices(model, ONE_TIME, prior, 2**13, seed=1)
        total_se = np.sqrt(np.sum(report.first_se**2))
        assert abs(np.sum(report.first) - 1.0) <= 3 * total_se

    def test_quadrature_oracle_two_parameters(self):
        # 64x64 midpoint tensor grid as an independent conditional-variance
        # route on the biexponential output at t = 1
        model = ik.get_model("biexponential")
        design = Design(np.array([1.0]), 1.0)
        prior = Prior(("uniform",) * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        report = sobol_indices(model, design, prior, 2**14, seed=0)
        edges = np.linspace(0.5, 2.0, 64, endpoint=False) + (1.5 / 64) / 2
        F = np.exp(-edges[:, None]) + np.exp(-edges[None, :])
        var = F.var()
        quad_first = [F.mean(axis=1).var() / var, F.mean(axis=0).var() / var]
        np.testing.assert_allclose(report.first, quad_first, atol=0.02)

    def test_total_order_estimates_converge_in_n(self):
        # S_Ti at 2^12 and 2^16 agree within 0.02 (first-order converges
        # more slowly and is covered by the analytic checks above)
        for model, prior in [
            (
                ik.get_model("biexponential"),
                Prior(("uniform",) * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0])),
            ),
            (
                ik.get_model("reciprocal"),
                Prior(("uniform",), np.array([0.1]), np.array([1.0])),
            ),
        ]:
            design = Design(np.array([1.0]), 1.0)
            small = sobol_indices(model, design, prior, 2**12, seed=0, bootstrap=0)
            large = sobol_indices(model, design, prior, 2**16, seed=0, bootstrap=0)
            assert np.max(np.abs(small.total - large.total)) < 0.02

    def test_affine_output_invariance_shared_seed(self):
        base_fn = lambda th: th[0] + th[1]
        model = algebraic_model("base", base_fn, [0, 0], [1, 1])
        scaled = algebraic_model("scaled", lambda th: 3.0 * base_fn(th) - 1.0, [0, 0], [1, 1])
        prior = Prior.uniform_box(model.space)
        a = sobol_indices(model, ONE_TIME, prior, 2**12, seed=4)
        b = sobol_indices(scaled, ONE_TIME, prior, 2**12, seed=4)
        assert np.max(np.abs(a.first - b.first)) <= 2 * np.max(a.first_se)
        assert np.max(np.abs(a.total - b.total)) <= 2 * np.max(a.total_se)

    def test_sample_count_must_be_power_of_two(self):
        model = algebraic_model("additive", lambda th: th[0] + th[1], [0, 0], [1, 1])
        prior = Prior.uniform_box(model.space)
        with pytest.raises(ValueError):
            sobol_indices(model, ONE_TIME, prior, 1000, seed=0)
        with pytest.raises(ValueError):
            sobol_indices(model, ONE_TIME, prior, 512, seed=0)

    def test_prior_must_fit_the_space(self):
        model = algebraic_model("additive", lambda th: th[0] + th[1], [0, 0], [1, 1])
        wide = Prior(("uniform",) * 2, np.zeros(2), np.full(2, 2.0))
        with pytest.raises(ValueError):
            sobol_indices(model, ONE_TIME, wide, 2**10, seed=0)

    def test_failed_points_resampled_and_counted(self):
        # evaluation failures in part of the prior range are redrawn, not
        # propagated; the report logs how many redraws happened
        def fn(times, ths):
            rows = np.where(ths[:, :1] > 0.9, np.nan, ths[:, :1] + ths[:, 1:])
            return rows * np.ones(len(times))

        space = ParameterSpace(np.zeros(2), np.ones(2))
        model = Model("patchy", space, f=fn)
        report = sobol_indices(model, ONE_TIME, Prior.uniform_box(space), 2**10, seed=0)
        assert report.resampled > 0
        assert np.all(np.isfinite(report.first))

    def test_deterministic_in_seed(self):
        model = algebraic_model("additive", lambda th: th[0] + th[1], [0, 0], [1, 1])
        prior = Prior.uniform_box(model.space)
        a = sobol_indices(model, ONE_TIME, prior, 2**10, seed=9)
        b = sobol_indices(model, ONE_TIME, prior, 2**10, seed=9)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(a.first_se, b.first_se)

    def test_total_order_dominates_first_order_within_noise(self):
        # totals include interactions, so S_Ti >= S_i up to estimator noise
        cases = [
            (algebraic_model("additive", lambda th: th[0] + th[1], [0, 0], [1, 1]),
             Prior(("uniform",) * 2, np.zeros(2), np.ones(2))),
            (algebraic_model("product", lambda th: th[0] * th[1], [-1, -1], [1, 1]),
             Prior(("uniform",) * 2, -np.ones(2), np.ones(2))),
            (ik.get_model("biexponential"),
             Prior(("uniform",) * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0]))),
        ]
        for model, prior in cases:
            report = sobol_indices(model, ONE_TIME if model.name != "biexponential"
                                   else Design(np.array([1.0]), 1.0),
                                   prior, 2**12, seed=0)
            slack = 3.0 * np.sqrt(report.first_se**2 + report.total_se**2)
            assert np.all(report.total >= report.first - slack), model.name

    def test_per_time_breakdown_and_aggregate(self):
        # output variance differs per time; aggregate is the variance-weighted
        # mean of the per-time indices
        model = ik.get_model("biexponential")
        design = Design(np.array([0.5, 1.0, 2.0]), 1.0)
        prior = Prior(("uniform",) * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        report = sobol_indices(model, design, prior, 2**12, seed=0)
        assert report.per_time_first.shape == (3, 2)
        weights = report.variance / report.variance.sum()
        np.testing.assert_allclose(report.first, report.per_time_first.T @ weights, rtol=1e-12)


class TestScreen:
    def test_ignored_parameter_flagged(self):
        model = algebraic_model(
            "ignores-third", lambda th: th[0] + 2.0 * th[1], [0, 0, 0], [1, 1, 1]
        )
        prior = Prior.uniform_box(model.space)
        report = sobol_indices(model, ONE_TIME, prior, 2**12, seed=0)
        assert screen_unidentifiable(report) == [2]
        assert report.first[2] == 0.0 and report.total[2] == 0.0

    def test_zero_threshold_returns_nonpositive_only(self):
        model = algebraic_model(
            "ignores-third", lambda th: th[0] + 2.0 * th[1], [0, 0, 0], [1, 1, 1]
        )
        prior = Prior.uniform_box(model.space)
        report = sobol_indices(model, ONE_TIME, prior, 2**12, seed=0)
        flagged = screen_unidentifiable(report, threshold=0.0)
        assert all(report.first[i] <= 0 and report.total[i] <= 0 for i in flagged)
        assert 2 in flagged

    def test_redundant_exponential_negative_control(self):
        # every parameter moves the output somewhere in the prior range, so
        # the screen comes back empty even though the model is structurally
        # unidentifiable: nonzero indices never guarantee identifiability
        model = ik.get_model("redundant-exponential")
        design = Design(np.linspace(0.0, 3.0, 4), 1.0)
        prior = Prior(
            ("uniform",) * 3,
            np.array([0.5, -0.8, -1.0]),
            np.array([2.0, 0.8, 1.0]),
        )
        report = sobol_indices(model, design, prior, 2**12, seed=0)
        assert screen_unidentifiable(report) == []
        assert model.identifiability == "structurally-unidentifiable"
