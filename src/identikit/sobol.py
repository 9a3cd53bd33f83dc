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
BOOTSTRAP_BLOCK = 16  # rounds of resample counts held at once: 512 KB at n = 4096


@dataclass(frozen=True, eq=False)
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


@dataclass(eq=False)
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


def _pick_freeze_estimates(f):
    """Per-time indices and aggregation weights from the blocks ``f`` of
    :func:`_pick_freeze_outputs`; the weights are the variances of the raw f_A.

    ``f`` is then centred in place on the pooled sample mean; that removes the
    mean-leakage term from the first-order estimator and makes both indices
    exactly invariant to affine output rescaling under a shared seed.  Each
    parameter's two numerators are formed in the same two scratch blocks.
    """
    var_t = np.var(f[0], axis=0, ddof=1)          # (n_times,)
    f -= 0.5 * (np.mean(f[0], axis=0) + np.mean(f[1], axis=0))
    p, n = f.shape[0] - 2, f.shape[2]
    first = np.zeros((n, p))
    total = np.zeros((n, p))
    live = var_t > 0
    diff, product = np.empty((2,) + f.shape[1:])
    for i in range(p):
        np.subtract(f[2 + i], f[0], out=diff)
        num_first = np.mean(np.multiply(f[1], diff, out=product), axis=0)
        num_total = np.mean(np.multiply(diff, diff, out=product), axis=0) / 2.0
        first[live, i] = num_first[live] / var_t[live]
        total[live, i] = num_total[live] / var_t[live]
    return first, total, var_t


def _pick_freeze_outputs(model: Model, design: Design, A: np.ndarray, B: np.ndarray):
    """Blocks fA, fB, fAB^(1..p), shape (p + 2, m, n_times), and a mask of the rows whose
    outputs are all finite.

    The model is called once per block of m rows (A, B, then each A_B^(i)), not once
    over all (p + 2) m, so the working set is the 8 (p + 2) m n_times bytes of the blocks
    and the model's temporaries over one block.  A model's rows must therefore not
    depend on the batch they come in, as :func:`~identikit.models.linear_model`'s do not.
    """
    m, p = A.shape
    values, ok = np.empty((p + 2, m, design.size)), np.ones(m, dtype=bool)
    for k in range(p + 2):
        thetas = (A, B)[k] if k < 2 else np.where(np.arange(p) == k - 2, B, A)  # A_B^(k - 2)
        values[k] = evaluate_batch(model, design, thetas)
        ok &= np.all(np.isfinite(values[k]), axis=1)
    return values, ok


def _bootstrap_se(f: np.ndarray, rounds: int, rng: np.random.Generator):
    """Bootstrap standard errors of the aggregate first- and total-order indices
    from the blocks ``f`` that :func:`_pick_freeze_estimates` centred.  Each block
    of rounds forms the 2p + 1 products again, one at a time in two scratch blocks."""
    p, n = f.shape[0] - 2, f.shape[1]
    diff, product = np.empty((2,) + f.shape[1:])
    boot = np.empty((rounds, 2 * p))
    counts = np.empty((BOOTSTRAP_BLOCK, n))
    for start in range(0, rounds, BOOTSTRAP_BLOCK):
        w = counts[: min(BOOTSTRAP_BLOCK, rounds - start)]
        for row in w:
            row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        means = np.matmul(w, f) / n
        # f1 * diff, then diff * diff / 2, per parameter, and f0 * f0 last
        moments = np.empty((2 * p + 1,) + means.shape[1:])
        for i in range(p):
            np.subtract(f[2 + i], f[0], out=diff)
            moments[i] = np.matmul(w, np.multiply(f[1], diff, out=product)) / n
            np.divide(np.multiply(diff, diff, out=diff), 2.0, out=diff)
            moments[p + i] = np.matmul(w, diff) / n
        moments[-1] = np.matmul(w, np.multiply(f[0], f[0], out=product)) / n
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
    of at least 2^10; a bad argument raises ValueError naming it.  The model is called
    once per block of n rows (A, B, then each A_B^(i)), not once over all (p + 2) n,
    so a model's rows must not depend on the batch they come in, as
    :func:`~identikit.models.linear_model`'s do not.  Points with any non-finite
    output are redrawn from the prior (A row, then B row, in index order; the
    count is reported) and evaluated again, block by block, each round.  With T
    design times the working set is 8 n T (p + 4) bytes of outputs, centred in
    place, and two scratch blocks for products, 8 n BOOTSTRAP_BLOCK bytes of
    resample counts, and the model's temporaries over one block of n rows.

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

    per_first, per_total, var_t = _pick_freeze_estimates(f)
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
