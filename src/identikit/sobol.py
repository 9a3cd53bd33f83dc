"""Variance-based global sensitivity: first-order and total-order indices.

Pick-freeze Monte Carlo on the noiseless model output: two independent sample
matrices A and B plus single-column substitutions A_B^(i).  First-order
indices use the variance-of-conditional estimator, total-order indices the
Jansen estimator.  Indices are computed per design time and aggregated by a
variance-weighted mean; negative estimates are reported raw together with
bootstrap standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Design, EvaluationError, Model, ParameterSpace, _checked, _is_integer, _rule, evaluate_batch

UNIFORM = "uniform"
LOG_UNIFORM = "log-uniform"

MIN_SAMPLES = 1 << 10
MAX_RESAMPLE_ROUNDS = 100
BOOTSTRAP_BLOCK = 32  # rounds of resample counts held at once: 1 MB at n = 4096


@dataclass(frozen=True)
class Prior:
    """Independent per-parameter distributions, uniform or log-uniform."""

    kinds: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if not (len(self.kinds) == lower.size == upper.size):
            raise ValueError("kinds and bounds must have equal length")
        if not np.all(lower < upper):
            raise ValueError("prior lower bounds must lie below upper bounds")
        for kind, lo in zip(self.kinds, lower):
            if kind not in (UNIFORM, LOG_UNIFORM):
                raise ValueError(f"unknown prior kind {kind!r}")
            if kind == LOG_UNIFORM and lo <= 0:
                raise ValueError("log-uniform bounds must be positive")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def uniform_box(cls, space: ParameterSpace) -> "Prior":
        return cls((UNIFORM,) * space.dimension, space.lower.copy(), space.upper.copy())

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contained_in(self, space: ParameterSpace) -> bool:
        return (
            self.dimension == space.dimension
            and bool(np.all(self.lower >= space.lower))
            and bool(np.all(self.upper <= space.upper))
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((n, self.dimension))
        out = np.empty_like(u)
        for j, kind in enumerate(self.kinds):
            if kind == UNIFORM:
                out[:, j] = self.lower[j] + u[:, j] * (self.upper[j] - self.lower[j])
            else:
                log_lo, log_hi = np.log(self.lower[j]), np.log(self.upper[j])
                out[:, j] = np.exp(log_lo + u[:, j] * (log_hi - log_lo))
        return out


def prior_rule(space: ParameterSpace):
    """The rule of a prior argument: None (the uniform box) or a :class:`Prior` inside the box."""
    is_prior = _rule(lambda prior: isinstance(prior, Prior), "must be None or a Prior")
    inside = _rule(lambda prior: prior.contained_in(space), "support is not contained in the parameter box")
    return lambda prior: Prior.uniform_box(space) if prior is None else inside(is_prior(prior))


@dataclass(frozen=True)
class SobolReport:
    first: np.ndarray             # aggregate S_i per parameter
    total: np.ndarray             # aggregate S_Ti per parameter
    first_se: np.ndarray
    total_se: np.ndarray
    variance: np.ndarray          # output variance per design time
    variance_total: float
    per_time_first: np.ndarray    # (n_times, p)
    per_time_total: np.ndarray
    n_samples: int
    degenerate: bool
    resampled: int


def _pick_freeze_estimates(fA, fB, fAB):
    """Per-time indices and aggregation weights from evaluated sample blocks.

    Outputs are centred on the pooled sample mean first; that removes the
    mean-leakage term from the first-order estimator and makes both indices
    exactly invariant to affine output rescaling under a shared seed.
    """
    var_t = np.var(fA, axis=0, ddof=1)          # (n,)
    center = 0.5 * (np.mean(fA, axis=0) + np.mean(fB, axis=0))
    fAc = fA - center
    fBc = fB - center
    p = fAB.shape[0]
    n = fA.shape[1]
    first = np.zeros((n, p))
    total = np.zeros((n, p))
    live = var_t > 0
    for i in range(p):
        num_first = np.mean(fBc * ((fAB[i] - center) - fAc), axis=0)
        num_total = np.mean((fAc - (fAB[i] - center)) ** 2, axis=0) / 2.0
        first[live, i] = num_first[live] / var_t[live]
        total[live, i] = num_total[live] / var_t[live]
    return first, total, var_t


def _pick_freeze_outputs(model: Model, design: Design, A: np.ndarray, B: np.ndarray):
    """Blocks fA, fB, fAB^(1..p), shape (p + 2, m, n_times), from one model call,
    and a mask of the rows whose outputs are all finite."""
    m, p = A.shape
    cross = np.where(np.eye(p, dtype=bool)[:, None, :], B, A)  # cross[i] is A_B^(i)
    values = evaluate_batch(model, design, np.concatenate([A, B, cross.reshape(-1, p)]))
    values = values.reshape(p + 2, m, design.size)
    return values, np.all(np.isfinite(values), axis=(0, 2))


def _bootstrap_se(f: np.ndarray, rounds: int, rng: np.random.Generator):
    """Bootstrap standard errors of the aggregate first- and total-order indices
    from the blocks ``f`` of :func:`_pick_freeze_outputs`, which it centres in place."""
    p, n = f.shape[0] - 2, f.shape[1]
    f -= 0.5 * (np.mean(f[0], axis=0) + np.mean(f[1], axis=0))
    diff = f[2:] - f[0]
    products = np.concatenate([f[1] * diff, diff * diff / 2.0, f[:1] * f[:1]])
    boot = np.empty((rounds, 2 * p))
    counts = np.empty((BOOTSTRAP_BLOCK, n))
    for start in range(0, rounds, BOOTSTRAP_BLOCK):
        w = counts[: min(BOOTSTRAP_BLOCK, rounds - start)]
        for row in w:
            row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        means, moments = np.matmul(w, f) / n, np.matmul(w, products) / n
        var_t = (moments[-1] - means[0] ** 2) * (n / (n - 1))
        # the round's own centre, relative to the full-sample one, in the first-order numerator
        moments[:p] -= 0.5 * (means[0] + means[1]) * (means[2:] - means[0])
        num = np.sum(np.where(var_t > 0, moments[:-1], 0.0), axis=2)
        weight_sum = np.sum(var_t, axis=1)
        boot[start : start + len(w)] = np.divide(num, weight_sum, out=np.zeros_like(num),
                                                 where=weight_sum > 0).T
    return np.split(np.std(boot, axis=0, ddof=1), 2)


def _aggregate(per_time, var_t):
    weight_sum = float(np.sum(var_t))
    if weight_sum <= 0:
        return np.zeros(per_time.shape[1])
    return per_time.T @ (var_t / weight_sum)


_N_SAMPLES = _rule(lambda n: _is_integer(n) and n >= MIN_SAMPLES and not n & (n - 1),
                   f"must be a power of two >= {MIN_SAMPLES}", int)
_BOOTSTRAP = _rule(lambda n: _is_integer(n) and (n == 0 or n >= 2), "must be 0 or an integer >= 2", int)
SOBOL_RULES = {"n_samples": _N_SAMPLES, "bootstrap": _BOOTSTRAP}  # and the prior's, prior_rule


def sobol_indices(
    model: Model,
    design: Design,
    prior: Prior | None = None,
    n_samples: int = 4096,
    seed: int = 0,
    bootstrap: int = 200,
) -> SobolReport:
    """Monte-Carlo Sobol indices of the noiseless output under the prior (default: the uniform box).

    ``prior`` must lie inside the box and ``n_samples`` be an integer power of two
    of at least 2^10; a bad argument raises ValueError naming it.  The n (p + 2) rows
    of A, B and A_B^(i) are evaluated in one model call.  Points with any
    non-finite output are redrawn from the prior (A row, then B row, in index
    order; the count is reported) and evaluated again in one call per round.

    The bootstrap runs ``bootstrap`` rounds, an integer: 0 for none, else at least 2.  It
    draws each round's n resample indices as the per-round estimator would,
    but turns them into resample counts: with the outputs centred once on the
    full-sample centre, every resampled mean is then a count-weighted mean,
    and one matrix product gives the means of BOOTSTRAP_BLOCK rounds.  This
    matches re-estimating on each resample up to rounding (about 1e-14
    relative).  Everything, bootstrap included, is deterministic in ``seed``.
    """
    n, bootstrap = _checked(SOBOL_RULES, n_samples=n_samples, bootstrap=bootstrap)
    (prior,) = _checked({"prior": prior_rule(model.space)}, prior=prior)

    p = prior.dimension
    ss = np.random.SeedSequence(seed)
    rng_samples, rng_boot = (np.random.default_rng(c) for c in ss.spawn(2))

    A = prior.sample(n, rng_samples)
    B = prior.sample(n, rng_samples)
    f, ok = _pick_freeze_outputs(model, design, A, B)
    pending = np.flatnonzero(~ok)
    resampled = 0
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > MAX_RESAMPLE_ROUNDS:
            raise EvaluationError(f"{pending.size} sample points keep failing to evaluate")
        for k in pending:
            A[k] = prior.sample(1, rng_samples)[0]
            B[k] = prior.sample(1, rng_samples)[0]
        resampled += pending.size
        f[:, pending], ok = _pick_freeze_outputs(model, design, A[pending], B[pending])
        pending = pending[~ok]

    per_first, per_total, var_t = _pick_freeze_estimates(f[0], f[1], f[2:])
    variance_total = float(np.sum(var_t))
    degenerate = variance_total <= 0
    first = _aggregate(per_first, var_t)
    total = _aggregate(per_total, var_t)

    first_se, total_se = np.zeros(p), np.zeros(p)
    if bootstrap > 0 and not degenerate:
        first_se, total_se = _bootstrap_se(f, bootstrap, rng_boot)

    return SobolReport(
        first=first, total=total, first_se=first_se, total_se=total_se,
        variance=var_t, variance_total=variance_total,
        per_time_first=per_first, per_time_total=per_total,
        n_samples=n, degenerate=degenerate, resampled=resampled,
    )


def screen_unidentifiable(report: SobolReport, threshold: float = 0.01) -> list[int]:
    """Parameters whose first and total indices both fall at or below threshold.

    Such parameters barely move the output anywhere in the prior range, so
    reliable estimation is unlikely.  The converse does not hold: nonzero
    indices suggest, but never guarantee, identifiability.
    """
    flagged = (report.first <= threshold) & (report.total <= threshold)
    return [int(i) for i in np.flatnonzero(flagged)]
