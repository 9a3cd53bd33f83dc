"""Synthetic-data recovery trials, local and global."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import beta

import identikit as ik
from identikit import estimation, recovery
from identikit.config import build_config, load_raw
from identikit.estimation import NOT_RUN, RECUR_RTOL
from identikit.models import restrict
from identikit.recovery import (DATA_LIMITED, DEFAULT_TOLERANCE, LABELS, OPTIMISER_MISS, RECOVERED, SUCCESS_RATE_OK,
                                VERDICT_BAD, VERDICT_OK, _errors_and_success, _quantile, _starts_seed,
                                clopper_pearson, recover_once)
from identikit.sobol import Prior

ROOT = Path(__file__).resolve().parents[1]


class TestRecoverOnce:
    def test_linear_vanishing_noise_exact_recovery(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(6.0), 1e-12)
        trial = recover_once(model, design, [1.0, 2.0], seed=0, n_starts=4)
        assert trial.success
        np.testing.assert_allclose(trial.theta_hat, [1.0, 2.0], atol=1e-6)

    def test_biexponential_swap_rescued_by_symmetry_flag(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 1e-10)
        trial = recover_once(model, design, [2.0, 1.0], seed=3, n_starts=4)
        # this seed lands on the swapped optimum: reported as fitted, scored on the orbit
        np.testing.assert_allclose(trial.theta_hat, [1.0, 2.0], atol=1e-6)
        np.testing.assert_array_equal(trial.theta_true, [2.0, 1.0])
        assert trial.success and trial.label == RECOVERED
        assert np.max(trial.rel_errors) < 1e-6

    def test_redundant_exponential_fits_data_but_not_parameters(self):
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.01)
        trial = recover_once(model, design, [1.0, -0.5, 0.5], seed=0)
        assert not trial.success
        assert trial.objective < 1e-3          # the outputs match the data
        assert np.max(trial.rel_errors) > 1.0  # flat directions wander freely

    def test_trial_records_inputs(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.05)
        trial = recover_once(model, design, [0.5], seed=17, n_starts=4)
        assert trial.seed == 17
        np.testing.assert_array_equal(trial.theta_true, [0.5])
        assert np.all(np.isfinite(trial.rel_errors))


    @pytest.mark.parametrize("argument, value", [("tolerance", -1), ("tolerance", float("nan")), ("n_starts", 0)])
    def test_own_rules_are_applied(self, argument, value):
        # tolerance -1 or NaN formerly scored this trial a failure without a word, and
        # n_starts 0 was rejected under multi_start_fit's name for it, k_starts
        model, design = ik.get_model("reciprocal"), ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        assert recover_once(model, design, [0.5], seed=3).success
        with pytest.raises(ValueError, match=f"^{argument} must be "):
            recover_once(model, design, [0.5], seed=3, **{argument: value})


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
        # 12 of 12 cannot tell 0.95 from 0.8 (its interval reaches down to 0.735), the hard count can
        assert easy.success_interval == clopper_pearson(12, 12) and not easy.interval_in_band
        # reciprocal registers no symmetry: scored at the point, and the alias repeats the one rate
        assert not easy.up_to_symmetry and easy.symmetry_success_rate == easy.success_rate
        assert hard.success_interval[1] < 0.8 and hard.interval_in_band

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
                     t.rel_errors.tobytes(), t.success, t.converged)
                    for t in report.trials]

        short = ik.global_recovery(model, design, k, seed=seed, n_starts=3)
        full = ik.global_recovery(model, design, k + more, seed=seed, n_starts=3)
        assert fields(short) == fields(full)[:k]

    def test_prior_outside_the_ordering_raises(self):
        model = ik.get_model("biexponential", ordered=True)  # rate1 >= rate2
        design = ik.Design(np.linspace(0.25, 3.0, 6), 0.1)
        prior = Prior(("uniform",) * 2, np.array([0.01, 1.0]), np.array([0.1, 10.0]))
        with pytest.raises(RuntimeError, match=r"10000 draws: rate1 >= rate2 never held"):
            ik.global_recovery(model, design, 1, prior=prior, seed=0, n_starts=2)

    def test_single_trial_report_well_formed(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 6), 0.1)
        prior = Prior(("uniform",) * 2, np.array([0.9, 0.9]), np.array([1.1, 1.1]))
        report = ik.global_recovery(model, design, 1, prior=prior, seed=0, n_starts=4)
        assert len(report.trials) == 1
        assert 0.0 <= report.success_rate <= 1.0
        assert report.up_to_symmetry and report.symmetry_success_rate == report.success_rate
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


RATES = st.floats(0.01, 10.0) | st.sampled_from([0.01, 1.0, 10.0])  # the default box, with ties and its ends


class TestCanonical:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(truth=arrays(np.float64, 2, elements=RATES), estimate=arrays(np.float64, 2, elements=RATES),
           tolerance=st.sampled_from([DEFAULT_TOLERANCE, 0.5]))
    def test_scoring_is_the_same_for_every_member_of_the_swap_orbit(self, truth, estimate, tolerance):
        model = ik.get_model("biexponential")
        errors, success = _errors_and_success(model, truth, estimate, tolerance)
        for t in (truth, truth[::-1]):
            for e in (estimate, estimate[::-1]):
                other_errors, other_success = _errors_and_success(model, t, e, tolerance)
                assert other_errors.tobytes() == errors.tobytes() and other_success == success

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(theta=arrays(np.float64, 2, elements=RATES),
           times=arrays(np.float64, st.integers(1, 8), elements=st.floats(0.0, 50.0)))
    def test_canonical_is_an_idempotent_relabelling_that_keeps_f_bit_for_bit(self, theta, times):
        model = ik.get_model("biexponential")
        canonical = model.canonical(theta)
        assert canonical[0] >= canonical[1] and sorted(canonical.tolist()) == sorted(theta.tolist())
        assert model.canonical(canonical).tobytes() == canonical.tobytes()
        assert model.f(times, canonical[None]).tobytes() == model.f(times, theta[None]).tobytes()

    def test_only_a_relabelling_symmetry_registers_a_map(self):
        # redundant-exponential's scaling orbit is continuous, and a restricted model's free parameters need not
        # be closed under the relabelling; the ordered space is the image of the unordered model's map
        unordered, ordered = ik.get_model("biexponential"), ik.get_model("biexponential", ordered=True)
        swapped = np.array([1.0, 2.0])
        assert unordered.canonical(swapped).tolist() == ordered.canonical(swapped).tolist() == [2.0, 1.0]
        assert ordered.space.contains(ordered.canonical(swapped)) and not ordered.space.contains(swapped)
        assert restrict(ik.get_model("biexponential"), {0: 1.0}).canonical is None
        for name in ("linear", "redundant-exponential", "reciprocal", "logistic"):
            assert ik.get_model(name).canonical is None


def _exhaustive_best(model, design, theta_star, seed, n_starts):
    """recover_once's best fit with every start fitted: the lowest converged objective, else the lowest;
    and the number of converged starts."""
    dataset = ik.generate_data(model, design, theta_star, seed)
    results = ik.multi_start_fit(model, dataset, n_starts, _starts_seed(seed))
    converged = [r for r in results if r.converged]
    return (converged or results)[0], len(converged)


class TestStopRule:
    @pytest.mark.parametrize("n_starts", [1, 2, 3, 4, 5])
    def test_up_to_five_starts_is_the_exhaustive_best_bit_for_bit(self, n_starts):
        # RECUR_HITS is 5, so a trial of at most 5 starts fits every one of them
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 7), 0.05)
        for seed in range(4):
            trial = recover_once(model, design, [2.0, 1.0], seed=seed, n_starts=n_starts)
            best, converged = _exhaustive_best(model, design, [2.0, 1.0], seed, n_starts)
            assert trial.starts_fitted == n_starts and trial.converged_starts == converged
            assert trial.theta_hat.tobytes() == best.theta.tobytes() and trial.objective == best.objective
            assert (trial.reason, trial.iterations) == (best.reason, best.iterations)

    @pytest.mark.parametrize("path, fits, exhausted, interval, in_band", [
        ("configs/biexponential_all.json", 100, [], (0.057334, 0.436614), True),  # 4 of 20
        ("configs/reciprocal_recovery.json", 250, [], (0.928878, 1.0), False),     # 50 of 50
    ])
    def test_shipped_configs_lose_no_success_and_miss_nothing(self, monkeypatch, path, fits, exhausted, interval,
                                                              in_band):
        raw, _ = load_raw(ROOT / path)
        config = build_config(raw)

        def run():
            return ik.global_recovery(config.model, config.design, seed=config.seed, **config.recover)

        stopped = run()
        monkeypatch.setattr(recovery, "RECUR_HITS", None)
        exhaustive = run()
        k = len(stopped.trials)
        assert (stopped.starts_fitted, exhaustive.starts_fitted) == (fits, k * config.recover["n_starts"])
        assert [t.success for t in stopped.trials] == [t.success for t in exhaustive.trials]
        assert stopped.verdict == exhaustive.verdict
        assert np.round(stopped.success_interval, 6).tolist() == list(interval)
        assert stopped.interval_in_band == in_band
        # the trials that fit every start: none, since biexp-all's trial 3 lands on its bound (see below)
        assert [k for k, t in enumerate(stopped.trials) if t.starts_fitted == config.recover["n_starts"]] == exhausted
        for report in (stopped, exhaustive):
            assert report.labels[OPTIMISER_MISS] == 0 and sum(report.labels.values()) == k
            assert report.starts_fitted == sum(t.starts_fitted for t in report.trials)
            for t in report.trials:
                assert (t.label == RECOVERED) == t.success
        for a, b in zip(stopped.trials, exhaustive.trials):
            assert abs(a.objective - b.objective) <= RECUR_RTOL * b.objective

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), p=st.integers(1, 3), sd=st.floats(0.01, 1.0),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_linear_models_stop_at_the_exhaustive_optimum(self, n, p, sd, seed, data):
        # a linear model is convex: every converged start reaches the one optimum, and theta* is no better
        rng = np.random.default_rng([seed, 1])  # not the noise stream, which would put y in the span of X
        model = ik.get_model("linear", design_matrix=rng.normal(size=(p + n, p)))
        design = ik.Design(np.arange(float(p + n)), sd)  # more rows than p: S > 0 at the optimum
        theta_star = data.draw(arrays(np.float64, p, elements=st.floats(-5.0, 5.0)))
        trial = recover_once(model, design, theta_star, seed=seed, n_starts=16)
        best, _ = _exhaustive_best(model, design, theta_star, seed, 16)
        assert abs(trial.objective - best.objective) <= RECUR_RTOL * best.objective
        assert trial.label != OPTIMISER_MISS

    def test_a_trial_whose_fits_fail_is_an_optimiser_miss(self, monkeypatch):
        def failing_fit(model, dataset, start):
            raise ik.EvaluationError("model failed at the start")

        monkeypatch.setattr(estimation, "fit", failing_fit)
        model, design = ik.get_model("reciprocal"), ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
        for n_starts in (1, 3):  # nothing converges, so the stop rule never fires: every start is tried
            trial = recover_once(model, design, [0.5], seed=3, n_starts=n_starts)
            assert not trial.converged and trial.objective == np.inf
            assert (trial.label, trial.starts_fitted) == (OPTIMISER_MISS, n_starts)
            assert (trial.converged_starts, trial.reason, trial.iterations) == (0, NOT_RUN, 0)

    def test_labels_follow_the_objectives(self):
        # biexponential at a large noise: some trials miss the tolerance with the lower objective
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 7), 0.2)
        report = ik.global_recovery(model, design, 6, seed=1, n_starts=8)
        assert report.labels[DATA_LIMITED] > 0
        for t in report.trials:
            truth = ik.generate_data(model, design, t.theta_true, t.seed)
            miss = estimation.objective_at(model, truth, t.theta_true) < t.objective
            assert t.label == (RECOVERED if t.success else OPTIMISER_MISS if miss else DATA_LIMITED)
        assert list(report.labels) == list(LABELS)

    def test_a_fit_that_creeps_toward_a_bound_reaches_it(self):
        # biexp-all's trial 3 (seed 4233973465, truth (0.0626, 8.214)): before fits landed on a bound, every one
        # of its 16 starts converged with the larger rate between 9.9997 and 9.999999, short of the optimum on
        # the bound 10, at objectives 2.9e-6 apart, so the stop rule never fired and theta_hat's rate read 9.9999986
        raw, _ = load_raw(ROOT / "configs/biexponential_all.json")
        config = build_config(raw)
        trial = ik.global_recovery(config.model, config.design, 4, seed=config.seed, n_starts=16).trials[3]
        assert trial.seed == 4233973465 and np.round(trial.theta_true, 4).tolist() == [0.0626, 8.2141]
        assert config.model.space.upper.max() - trial.theta_hat.max() <= 1e-9
        assert trial.starts_fitted < 16


# n from 1 to 5,000: the small counts one by one, then the shipped ones (20, 50) and larger ones, whose
# tails clopper_pearson sums only near the mode; above 200 trials, every (n / 50)-th count and five at each end
@pytest.mark.parametrize("n", [*range(1, 22), 31, 50, 72, 100, 137, 199, 200, 2000, 5000])
def test_clopper_pearson_equals_scipy_beta_quantiles(n):
    k = np.arange(n + 1) if n <= 200 else np.unique(np.r_[0:n + 1:n // 50, 0:5, n - 4:n + 1])
    with np.errstate(invalid="ignore"):  # the end a 0 or n count pins: beta.ppf is NaN there
        lower = np.where(k == 0, 0.0, beta.ppf(0.025, k, n - k + 1))
        upper = np.where(k == n, 1.0, beta.ppf(0.975, k + 1, n - k))
    ours = np.array([clopper_pearson(int(j), n) for j in k])
    np.testing.assert_allclose(ours[:, 0], lower, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ours[:, 1], upper, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k, n, interval", [(19, 20, (0.751267, 0.998735)), (50, 50, (0.928878, 1.0)),
                                            (3, 20, (0.032071, 0.378927)), (0, 20, (0.0, 0.168433))])
def test_clopper_pearson_pinned(k, n, interval):
    assert np.round(clopper_pearson(k, n), 6).tolist() == list(interval)


def test_all_successes_settle_the_top_band_from_72_trials():
    assert clopper_pearson(71, 71)[0] < SUCCESS_RATE_OK <= clopper_pearson(72, 72)[0]
