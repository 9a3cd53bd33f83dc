"""Brute-force practical-identifiability checks via synthetic-data recovery.

Each trial generates a dataset at a known parameter, re-infers it with a
multi-start fit that stops once its best optimum has recurred, scores
per-parameter recovery error in the model's canonical coordinates, and labels
the trial by comparing S(theta_hat) with S(theta*).  A local check uses one
true parameter; the global check samples many true parameters from a prior
over the admissible set and aggregates success into a verdict, with the
Clopper-Pearson interval of the success count and whether that interval
settles the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .estimation import MULTI_START_RULES, multi_start_fit, objective_at
from .models import _POSITIVE, Design, Model, _checked, _integer, generate_data
from .sobol import Prior, prior_rule

DEFAULT_STARTS = 16
RECUR_HITS = 5  # a trial's multi-start stops once this many converged starts reach its best objective
DEFAULT_TOLERANCE = 0.1
ABS_FALLBACK_SCALE = 1e-6   # true values below this are scored absolutely
ABS_FALLBACK_TOL = 1e-3

VERDICT_OK = "practically-identifiable"
VERDICT_MARGINAL = "marginal"
VERDICT_BAD = "not-practically-identifiable"
SUCCESS_RATE_OK = 0.95
SUCCESS_RATE_MARGINAL = 0.8
CONFIDENCE = 0.95  # two-sided level of RecoveryReport.success_interval

RECOVERED = "recovered"            # success
DATA_LIMITED = "data-limited"      # S(theta_hat) <= S(theta*), yet theta_hat is outside the tolerance
OPTIMISER_MISS = "optimiser-miss"  # S(theta*) < S(theta_hat): the multi-start missed a lower objective
LABELS = (RECOVERED, DATA_LIMITED, OPTIMISER_MISS)


@dataclass(eq=False)
class RecoveryTrial:
    seed: int
    theta_true: np.ndarray    # as drawn
    theta_hat: np.ndarray     # as fitted
    objective: float
    rel_errors: np.ndarray    # canonical theta_hat against canonical theta_true; absolute where |true| < 1e-6
    success: bool
    converged: bool
    label: str                # one of LABELS
    starts_fitted: int        # the multi-start's fits, at most n_starts
    converged_starts: int     # of those fits, the converged ones
    reason: str               # the best start's EstimateResult.reason
    iterations: int           # and its iterations


@dataclass(eq=False)
class RecoveryReport:
    tolerance: float
    up_to_symmetry: bool      # scored up to the model's relabelling symmetry: it registers a canonical map
    success_rate: float
    symmetry_success_rate: float  # success_rate, for readers of the former second rate
    error_p50: np.ndarray
    error_p90: np.ndarray
    error_max: np.ndarray
    verdict: str
    success_interval: tuple[float, float]  # Clopper-Pearson, at CONFIDENCE, of the success count
    interval_in_band: bool    # the whole interval gives the verdict
    labels: dict[str, int]    # trials per label, in LABELS order
    starts_fitted: int        # over all trials
    trials: list[RecoveryTrial]


def _errors_and_success(model: Model, theta_true, theta_hat, tolerance):
    if model.canonical is not None:  # score the orbits: any member of either gives the same bytes
        theta_true, theta_hat = model.canonical(theta_true), model.canonical(theta_hat)
    diff = np.abs(theta_hat - theta_true)
    small = np.abs(theta_true) < ABS_FALLBACK_SCALE
    errors = np.where(small, diff, diff / np.maximum(np.abs(theta_true), ABS_FALLBACK_SCALE))
    ok = np.where(small, diff <= ABS_FALLBACK_TOL, errors <= tolerance)
    return errors, bool(np.all(ok))


def _quantile(errors: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(errors, q, axis=0)`` of finite (m, p) errors without -0.0, bit for bit: numpy's linear
    method on a sort, as ``np.quantile``'s partition calls ``np.unique``, which imports ``numpy.ma``."""
    s, index = np.sort(errors, axis=0), (errors.shape[0] - 1) * q
    below, above = (int(index), int(index) + 1) if index < errors.shape[0] - 1 else (-1, -1)  # -1: the last
    gamma, a, b = index - below, s[below], s[above]  # gamma from the row index, -1 included, as numpy's
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma  # numpy's lerp


def _verdict(success_rate: float) -> str:
    if success_rate >= SUCCESS_RATE_OK:
        return VERDICT_OK
    return VERDICT_MARGINAL if success_rate >= SUCCESS_RATE_MARGINAL else VERDICT_BAD


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """The two-sided Clopper-Pearson interval at ``CONFIDENCE`` of a binomial success probability (Clopper &
    Pearson 1934): each end is the p at which one tail of Binomial(``trials``, p) holds (1 - ``CONFIDENCE``) / 2,
    found by bisection to the last bit on the tail summed term by term, so that no ``scipy.special`` is imported."""
    alpha = (1.0 - CONFIDENCE) / 2.0
    lower = 0.0 if successes == 0 else _cdf_root(successes - 1, trials, 1.0 - alpha)  # P(X >= k) = alpha
    upper = 1.0 if successes == trials else _cdf_root(successes, trials, alpha)       # P(X <= k) = alpha
    return lower, upper


def _cdf_root(k: int, n: int, target: float) -> float:
    """The p in (0, 1) at which P(X <= k), X ~ Binomial(n, p), falls to ``target``, for 0 <= k < n.  The tail sums
    only its terms within e^-60 of the largest, all that can reach a float's last bit, so that a bisection step
    costs the few standard deviations of terms around the mode, not the whole tail."""
    flip = 2 * k > n  # sum the shorter tail: P(X <= k) = 1 - P(Y <= n - k - 1), Y ~ Binomial(n, 1 - p)
    last, combs = n - k - 1 if flip else k, {}  # combs[j]: the exact comb(n, j), built from a neighbour's, and its log

    def log_comb(j):
        if j not in combs:
            c = (combs[j - 1][0] * (n - j + 1) // j if j - 1 in combs
                 else combs[j + 1][0] * (j + 1) // (n - j) if j + 1 in combs else math.comb(n, j))
            combs[j] = c, math.log(c)
        return combs[j][1]

    def cdf(p: float) -> float:
        log_p, log_q = (math.log1p(-p), math.log(p)) if flip else (math.log(p), math.log1p(-p))
        top = min(last, int((n + 1) * (1.0 - p if flip else p)))  # the largest term: the mode, or the tail's end

        def term(j):
            return log_comb(j) + j * log_p + (n - j) * log_q

        floor = term(top) - 60.0  # the log terms fall away from the largest (log-concave), so stop at the floor
        sides = range(top, -1, -1), range(top + 1, last + 1)
        tail = math.fsum(math.exp(t) for side in sides for t in takewhile(lambda t: t >= floor, map(term, side)))
        return 1.0 - tail if flip else tail

    low, high = 0.0, 1.0  # cdf falls from 1 to 0 over [0, 1]
    while low < (mid := 0.5 * (low + high)) < high:
        if cdf(mid) > target:
            low = mid
        else:
            high = mid
    return mid


def _starts_seed(seed: int) -> int:
    # Partition the seed space: the data stream uses the trial seed itself.
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


# the rules of global_recovery's arguments (recover_once's n_starts and tolerance too); the prior's is prior_rule
RECOVERY_RULES = {"k_trials": _integer(1), "n_starts": MULTI_START_RULES["k_starts"], "tolerance": _POSITIVE}


def recover_once(
    model: Model,
    design: Design,
    theta_star,
    seed: int,
    n_starts: int = DEFAULT_STARTS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RecoveryTrial:
    """Generate data at theta_star, re-infer it, and score the recovery.

    ``n_starts`` is an integer >= 1 and ``tolerance`` positive; ValueError names a bad one.  The
    multi-start fits at most ``n_starts`` starts: it stops once ``RECUR_HITS`` converged starts
    reach its best objective (:func:`multi_start_fit`'s ``stop_after``), and ``starts_fitted`` says
    how many it fitted, ``converged_starts`` how many of those converged, and ``reason`` and
    ``iterations`` are the best start's.  ``rel_errors`` and ``success`` compare ``model.canonical`` of
    the estimate with that of theta_star when the model registers a canonical map, so a swap-equivalent
    optimum counts as recovered whichever member the multi-start returns; ``theta_true`` and ``theta_hat``
    stay as drawn and as fitted.  The label is ``recovered`` on success, else ``optimiser-miss`` when
    S(theta*), computed once as :func:`fit` computes S, is below S(theta_hat), else ``data-limited``.
    """
    n_starts, tolerance = _checked(RECOVERY_RULES, n_starts=n_starts, tolerance=tolerance)
    theta_star = model.space.require(theta_star)
    dataset = generate_data(model, design, theta_star, seed)
    results = multi_start_fit(model, dataset, n_starts, _starts_seed(seed), stop_after=RECUR_HITS)
    converged = [r for r in results if r.converged]
    best = converged[0] if converged else results[0]
    errors, success = _errors_and_success(model, theta_star, best.theta, tolerance)
    miss = objective_at(model, dataset, theta_star) < best.objective
    return RecoveryTrial(
        seed=int(seed),
        theta_true=theta_star,
        theta_hat=best.theta,
        objective=best.objective,
        rel_errors=errors,
        success=success,
        converged=bool(converged),
        label=RECOVERED if success else OPTIMISER_MISS if miss else DATA_LIMITED,
        starts_fitted=len(results),
        converged_starts=len(converged),
        reason=best.reason,
        iterations=best.iterations,
    )


def global_recovery(
    model: Model,
    design: Design,
    k_trials: int = 20,
    prior: Prior | None = None,
    seed: int = 0,
    n_starts: int = DEFAULT_STARTS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RecoveryReport:
    """Many recovery trials at true parameters sampled widely over the space.

    ``k_trials`` and ``n_starts`` are integers >= 1, ``tolerance`` is positive and ``prior``
    None (the uniform box) or a :class:`Prior` inside the box; ValueError names a bad one.
    Noise is regenerated per trial from partitioned seeds, so each trial
    emulates an independent experiment and the whole report is reproducible
    bit for bit from (model, design, k_trials, prior, seed).  Each true
    parameter is the first prior draw inside the space; a prior that puts
    none of ``MAX_DRAWS`` draws there raises RuntimeError
    (:meth:`ParameterSpace.draw_feasible`).  Each trial is :func:`recover_once`, whose multi-start
    stops early (``n_starts`` is a cap); ``labels`` counts the trials per label and
    ``starts_fitted`` the fits of all trials.  ``success_interval`` is :func:`clopper_pearson`'s
    interval of the success count, and ``interval_in_band`` says whether every rate in it gives
    the verdict of ``success_rate``, so whether the trials run suffice to settle that verdict.
    """
    k_trials, n_starts, tolerance = _checked(RECOVERY_RULES, k_trials=k_trials, n_starts=n_starts,
                                             tolerance=tolerance)
    (prior,) = _checked({"prior": prior_rule(model.space)}, prior=prior)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    truths = [model.space.draw_feasible(lambda: prior.sample(1, rng)[0]) for _ in range(k_trials)]
    trials = [
        recover_once(model, design, truth, int(np.random.SeedSequence([seed, 2, k]).generate_state(1)[0]),
                     n_starts=n_starts, tolerance=tolerance)
        for k, truth in enumerate(truths)
    ]

    errors = np.vstack([t.rel_errors for t in trials])
    success_rate = float(np.mean([t.success for t in trials]))
    lower, upper = clopper_pearson(sum(t.success for t in trials), k_trials)
    return RecoveryReport(
        tolerance=tolerance,
        up_to_symmetry=model.canonical is not None,
        success_rate=success_rate,
        symmetry_success_rate=success_rate,
        error_p50=_quantile(errors, 0.5),
        error_p90=_quantile(errors, 0.9),
        error_max=np.max(errors, axis=0),
        verdict=_verdict(success_rate),
        success_interval=(lower, upper),
        interval_in_band=_verdict(lower) == _verdict(upper),
        labels={label: sum(t.label == label for t in trials) for label in LABELS},
        starts_fitted=sum(t.starts_fitted for t in trials),
        trials=trials,
    )
