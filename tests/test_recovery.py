"""Synthetic-data recovery trials, local and global."""

import numpy as np
import pytest

import identikit as ik
from identikit.recovery import VERDICT_BAD, VERDICT_OK
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

    def test_csv_layout(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 5), 0.1)
        prior = Prior(("uniform",), np.array([0.2]), np.array([0.8]))
        report = ik.global_recovery(model, design, 3, prior=prior, seed=0, n_starts=4)
        header = report.csv_header(model.space.parameter_names())
        rows = report.csv_rows()
        assert header[0] == "trial" and header[-1] == "success"
        assert len(rows) == 3 and all(len(r) == len(header) for r in rows)
