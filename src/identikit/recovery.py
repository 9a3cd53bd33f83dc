"""Brute-force practical-identifiability checks via synthetic-data recovery.

Each trial generates a dataset at a known parameter, re-infers it with a
multi-start fit, and scores per-parameter recovery error.  A local check uses
one true parameter; the global check samples many true parameters from a prior
over the admissible set and aggregates success into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import MULTI_START_RULES, multi_start_fit
from .models import _POSITIVE, Design, Model, _checked, _integer, generate_data
from .sobol import Prior, prior_rule

DEFAULT_STARTS = 16
DEFAULT_TOLERANCE = 0.1
ABS_FALLBACK_SCALE = 1e-6   # true values below this are scored absolutely
ABS_FALLBACK_TOL = 1e-3

VERDICT_OK = "practically-identifiable"
VERDICT_MARGINAL = "marginal"
VERDICT_BAD = "not-practically-identifiable"
SUCCESS_RATE_OK = 0.95
SUCCESS_RATE_MARGINAL = 0.8


@dataclass(frozen=True)
class RecoveryTrial:
    seed: int
    theta_true: np.ndarray
    theta_hat: np.ndarray
    objective: float
    rel_errors: np.ndarray    # absolute error where |true| < 1e-6
    success: bool
    success_symmetry: bool    # success against the orbit of theta_true
    converged: bool


@dataclass(frozen=True)
class RecoveryReport:
    tolerance: float
    success_rate: float
    symmetry_success_rate: float
    error_p50: np.ndarray
    error_p90: np.ndarray
    error_max: np.ndarray
    verdict: str
    trials: list[RecoveryTrial]


def _errors_and_success(theta_true, theta_hat, tolerance):
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
    symmetry-aware flag compares the estimate against the whole orbit of theta_star under the
    model's registered symmetries, so a swap-equivalent optimum still counts as recovered.
    """
    n_starts, tolerance = _checked(RECOVERY_RULES, n_starts=n_starts, tolerance=tolerance)
    theta_star = model.space.require(theta_star)
    dataset = generate_data(model, design, theta_star, seed)
    results = multi_start_fit(model, dataset, n_starts, _starts_seed(seed))
    converged = [r for r in results if r.converged]
    best = converged[0] if converged else results[0]
    errors, success = _errors_and_success(theta_star, best.theta, tolerance)
    aligned = theta_star if model.align_symmetry is None else model.align_symmetry(theta_star, best.theta)
    _, success_sym = _errors_and_success(aligned, best.theta, tolerance)
    return RecoveryTrial(
        seed=int(seed),
        theta_true=theta_star,
        theta_hat=best.theta,
        objective=best.objective,
        rel_errors=errors,
        success=success,
        success_symmetry=success or success_sym,
        converged=bool(converged),
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
    (:meth:`ParameterSpace.draw_feasible`).
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
    symmetry_rate = float(np.mean([t.success_symmetry for t in trials]))
    if success_rate >= SUCCESS_RATE_OK:
        verdict = VERDICT_OK
    elif success_rate >= SUCCESS_RATE_MARGINAL:
        verdict = VERDICT_MARGINAL
    else:
        verdict = VERDICT_BAD
    return RecoveryReport(
        tolerance=tolerance,
        success_rate=success_rate,
        symmetry_success_rate=symmetry_rate,
        error_p50=_quantile(errors, 0.5),
        error_p90=_quantile(errors, 0.9),
        error_max=np.max(errors, axis=0),
        verdict=verdict,
        trials=trials,
    )
