"""Synthetic-data recovery trials, local and global."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import identikit as ik
from identikit.recovery import VERDICT_BAD, VERDICT_OK, _quantile
from identikit.sobol import Prior


class TestRecoverOnce:
    def test_linear_vanishing_noise_exact_recovery(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(6.0), 1e-12)
        trial = ik.recover_once(model, design, [1.0, 2.0], seed=0, n_starts=4)
        assert trial.success and trial.success_symmetry
        np.testing.assert_allclose(trial.theta_hat, [1.0, 2.0], atol=1e-6)

    def test_biexponential_swap_rescued_by_symmetry_flag(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 1e-10)
        trial = ik.recover_once(model, design, [2.0, 1.0], seed=3, n_starts=4)
        # this seed lands on the swapped optimum
        np.testing.assert_allclose(trial.theta_hat, [1.0, 2.0], atol=1e-6)
        assert not trial.success
        assert trial.success_symmetry

    def test_redundant_exponential_fits_data_but_not_parameters(self):
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.01)
        trial = ik.recover_once(model, design, [1.0, -0.5, 0.5], seed=0)
        assert not trial.success
        assert trial.objective < 1e-3          # the outputs match the data
        assert np.max(trial.rel_errors) > 1.0  # flat directions wander freely

    def test_trial_records_inputs(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.05)
        trial = ik.recover_once(model, design, [0.5], seed=17, n_starts=4)
        assert trial.seed == 17
        np.testing.assert_array_equal(trial.theta_true, [0.5])
        assert np.all(np.isfinite(trial.rel_errors))


    @pytest.mark.parametrize("argument, value", [("tolerance", -1), ("tolerance", float("nan")), ("n_starts", 0)])
    def test_own_rules_are_applied(self, argument, value):
        # tolerance -1 or NaN formerly scored this trial a failure without a word, and
        # n_starts 0 was rejected under multi_start_fit's name for it, k_starts
        model, design = ik.get_model("reciprocal"), ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        assert ik.recover_once(model, design, [0.5], seed=3).success
        with pytest.raises(ValueError, match=f"^{argument} must be "):
            ik.recover_once(model, design, [0.5], seed=3, **{argument: value})


class TestGlobalRecovery:
    def test_reciprocal_regime_flip(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        easy = ik.global_recovery(
            model, design, 12,
            prior=Prior(("uniform",), np.array([0.1]), np.array([1.0])), seed=42,
        )
        hard = ik.global_recovery(
            model, design, 12,
            prior=Prior(("uniform",), np.array([10.0]), np.array([100.0])), seed=42,
        )
        assert easy.success_rate >= 0.95 and easy.verdict == VERDICT_OK
        assert hard.success_rate <= 0.5 and hard.verdict == VERDICT_BAD

    def test_reproducible_bitwise(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        prior = Prior(("uniform",), np.array([0.1]), np.array([1.0]))
        a = ik.global_recovery(model, design, 6, prior=prior, seed=3)
        b = ik.global_recovery(model, design, 6, prior=prior, seed=3)
        assert a.success_rate == b.success_rate
        for ta, tb in zip(a.trials, b.trials):
            assert np.array_equal(ta.theta_true, tb.theta_true)
            assert np.array_equal(ta.theta_hat, tb.theta_hat)
            assert ta.objective == tb.objective

    def test_noise_monotonicity(self):
        # halving sigma must not lose more than the binomial allowance 2/sqrt(k)
        model = ik.get_model("reciprocal")
        k = 16
        prior = Prior(("uniform",), np.array([0.5]), np.array([5.0]))
        coarse = ik.global_recovery(
            model, ik.Design(np.linspace(1.0, 10.0, 10), 0.2), k, prior=prior, seed=8
        )
        fine = ik.global_recovery(
            model, ik.Design(np.linspace(1.0, 10.0, 10), 0.1), k, prior=prior, seed=8
        )
        assert fine.success_rate >= coarse.success_rate - 2.0 / np.sqrt(k)

    def test_flat_directions_have_unbounded_error_quantiles(self):
        # parameters in the information-matrix null space cannot be pinned
        # down: their worst-case recovery error exceeds 100%
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.01)
        prior = Prior(
            ("uniform",) * 3, np.array([0.5, -0.8, -1.0]), np.array([2.0, 0.8, 1.0])
        )
        report = ik.global_recovery(model, design, 8, prior=prior, seed=1)
        rep_fim = ik.fim_report(model, design, np.array([1.0, -0.5, 0.5]))
        null = rep_fim.eigenvectors[:, rep_fim.rank:]
        assert null.shape[1] == 1
        # the null direction mixes amplitude and offset; those coordinates blow up
        heavy = np.flatnonzero(np.abs(null[:, 0]) > 0.1)
        assert np.max(report.error_max[heavy]) > 1.0

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.integers(1, 4), more=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_a_shorter_run_is_a_prefix_bit_for_bit(self, k, more, seed):
        # trials gathered in input order from a pool, or stopped early by a sequential
        # look, are those of the full run only if each trial depends on its index alone
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)

        def fields(report):
            return [(t.seed, t.theta_true.tobytes(), t.theta_hat.tobytes(), t.objective,
                     t.rel_errors.tobytes(), t.success, t.success_symmetry, t.converged)
                    for t in report.trials]

        short = ik.global_recovery(model, design, k, seed=seed, n_starts=3)
        full = ik.global_recovery(model, design, k + more, seed=seed, n_starts=3)
        assert fields(short) == fields(full)[:k]

    def test_prior_outside_the_ordering_raises(self):
        model = ik.get_model("biexponential", ordered=True)  # rate1 > rate2
        design = ik.Design(np.linspace(0.25, 3.0, 6), 0.1)
        prior = Prior(("uniform",) * 2, np.array([0.01, 1.0]), np.array([0.1, 10.0]))
        with pytest.raises(RuntimeError, match=r"10000 draws: rate1 > rate2 never held"):
            ik.global_recovery(model, design, 1, prior=prior, seed=0, n_starts=2)

    def test_single_trial_report_well_formed(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 6), 0.1)
        prior = Prior(("uniform",) * 2, np.array([0.9, 0.9]), np.array([1.1, 1.1]))
        report = ik.global_recovery(model, design, 1, prior=prior, seed=0, n_starts=4)
        assert len(report.trials) == 1
        assert 0.0 <= report.success_rate <= 1.0
        assert np.all(report.error_p50 <= report.error_p90 + 1e-15)
        assert np.all(report.error_p90 <= report.error_max + 1e-15)
        assert report.verdict in ("practically-identifiable", "marginal",
                                  "not-practically-identifiable")

    def test_k_trials_validated(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([1.0]), 0.1)
        with pytest.raises(ValueError):
            ik.global_recovery(model, design, 0, seed=0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.integers(1, 120), p=st.integers(1, 3), decade=st.integers(-8, 7), data=st.data())
def test_quantile_equals_numpy_bitwise(m, p, decade, data):
    # error quantiles skip np.quantile, whose partition imports numpy.ma; ties, both signs and
    # subnormals included, but not -0.0, which no error is: sort and partition may place
    # -0.0 and 0.0 in either order
    entries = st.floats(-10.0, 10.0) | st.sampled_from([0.0, 1.0, 5e-324])
    errors = data.draw(arrays(np.float64, (m, p), elements=entries)) * 10.0**decade + 0.0
    for q in (0.5, 0.9, data.draw(st.floats(0.0, 1.0))):
        ours, theirs = _quantile(errors, q), np.quantile(errors, q, axis=0)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
