"""Profile log-likelihood curves and their identifiability classification.

For parameter i, each grid value of theta_i is held fixed while the remaining
parameters are re-optimized, warm-started from the neighbouring grid point and
sweeping outward from the fit in both directions (on the default grid, until
one refit past the likelihood level set).  Flat curves indicate
structural unidentifiability; likelihood-ratio intervals that run into the end
of the profiled range indicate poor practical identifiability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimation import EstimateResult, fit, log_likelihood, multi_start_fit
from .fim import IDENTIFIABLE, FimReport, chi2_quantile, combination_variance, fim_report
from .models import Dataset, EvaluationError, Model, OutOfBoundsError

FLATNESS_TOL = 1e-6

CLASS_IDENTIFIABLE = "identifiable"
CLASS_PRACTICAL = "practically-unidentifiable"
CLASS_FLAT = "structurally-unidentifiable-flat"

DEFAULT_GRID_POINTS = 41
DEFAULT_SPAN_SD = 5.0


@dataclass(frozen=True)
class ProfileInterval:
    """Likelihood-ratio interval; an open side ran into the end of the profiled range, not
    the admissible bound (on the default grid, the fit +/- ``span_sd`` FIM sds, clipped)."""

    lower: float
    upper: float
    lower_open: bool
    upper_open: bool


@dataclass(frozen=True)
class ProfileCurve:
    index: int
    grid: np.ndarray
    values: np.ndarray            # profile log-likelihood, -S/sigma^2 scale
    theta_opt: np.ndarray         # (m, p) optimum of the profiled-out parameters
    converged: np.ndarray
    loglik_hat: float
    level: float
    interval: ProfileInterval
    classification: str
    total_variation: float
    flatness_tol: float
    truncated: bool

    def csv_rows(self) -> list[list]:
        return [
            [float(g), float(v), int(c)]
            for g, v, c in zip(self.grid, self.values, self.converged)
        ]

    def to_dict(self, name: str) -> dict:
        """Summary block for the parameter called ``name``."""
        return {
            "parameter": name,
            "grid": self.grid,
            "profile_loglik": self.values,
            "converged": self.converged,
            "loglik_hat": self.loglik_hat,
            "level": self.level,
            "interval": self.interval,
            "classification": self.classification,
            "total_variation": self.total_variation,
            "truncated": self.truncated,
        }


def drop_threshold(level: float) -> float:
    """Log-likelihood drop defining the level set: chi2_1(level) / 2."""
    return chi2_quantile(level, 1) / 2.0


def _default_grid(model, dataset, fit_result, index, points, span_sd, report) -> np.ndarray:
    space = model.space
    lo, hi = space.lower[index], space.upper[index]
    center = float(fit_result.theta[index])
    if report is None:
        report = fim_report(model, dataset.design, fit_result.theta)
    if report.classification == IDENTIFIABLE:
        e = np.zeros(space.dimension)
        e[index] = 1.0
        sd = float(np.sqrt(combination_variance(report, e)))
        lo = max(lo, center - span_sd * sd)
        hi = min(hi, center + span_sd * sd)
    return np.linspace(lo, hi, points)


def profile_parameter(
    model: Model,
    dataset: Dataset,
    fit_result: EstimateResult,
    index: int,
    grid=None,
    points: int = DEFAULT_GRID_POINTS,
    span_sd: float = DEFAULT_SPAN_SD,
    level: float = 0.95,
    flatness_tol: float = FLATNESS_TOL,
    multistart: int = 0,
    seed: int = 0,
    report: FimReport | None = None,
) -> ProfileCurve:
    """Profile log-likelihood of parameter ``index``.

    The default grid spans the fit plus/minus ``span_sd`` information-matrix
    standard deviations (clipped to the admissible slice), falling back to the
    full slice when the information matrix is rank-deficient.  ``report``, if
    given, is that matrix: ``fim_report`` of the dataset's design at the fit,
    with the default rank tolerance.  ``multistart`` adds that many cold
    Latin-hypercube refits per grid point on top of the warm-started one.

    On the default grid each outward sweep ends one refit past the level set:
    at the first refit whose value lies more than :func:`drop_threshold`
    below both ``loglik_hat`` and the highest value so far.  The points it
    computes are those of the full sweep, bit for bit.  An explicit ``grid``
    must be strictly increasing, and is swept in full.  The curve, and its
    ``total_variation``, cover only the computed points.
    """
    space = model.space
    p = space.dimension
    if not 0 <= index < p:
        raise ValueError(f"parameter index {index} out of range for p={p}")
    drop = drop_threshold(level)  # rejects a level outside (0, 1) before any refit
    if not fit_result.converged:
        raise ValueError("profile requires a converged fit result")
    sigma = dataset.design.noise_sd
    loglik_hat = log_likelihood(fit_result.objective, sigma)
    if grid is None:
        grid = _default_grid(model, dataset, fit_result, index, points, span_sd, report)
    else:
        grid = np.asarray(grid, dtype=float)
        if not np.all(np.diff(grid) > 0):
            raise ValueError("profile grid must be strictly increasing")
        drop = np.inf  # an explicit grid is swept in full
    if np.any(grid < space.lower[index]) or np.any(grid > space.upper[index]):
        raise OutOfBoundsError("profile grid exits the admissible slice")

    m = grid.size
    values = np.full(m, -np.inf)
    theta_opt = np.tile(fit_result.theta, (m, 1))
    converged = np.zeros(m, dtype=bool)
    computed = np.zeros(m, dtype=bool)

    def refit(k: int, warm: np.ndarray) -> np.ndarray | None:
        fixed = {index: float(grid[k])}
        start = warm.copy()
        start[index] = grid[k]
        best = None
        try:
            if space.contains(start):
                best = fit(model, dataset, start, fixed)
        except EvaluationError:
            best = None
        if multistart > 0:
            point_seed = int(np.random.SeedSequence([seed, index, k]).generate_state(1)[0])
            for res in multi_start_fit(model, dataset, multistart, point_seed, fixed):
                if res.converged and (best is None or res.objective < best.objective):
                    best = res
        if best is None:
            return None
        values[k] = log_likelihood(best.objective, sigma)
        theta_opt[k] = best.theta
        converged[k] = best.converged
        computed[k] = True
        return best.theta

    def sweep(ks, warm) -> bool:
        """Refit along ``ks``, each from the last; True if a refit failed."""
        for k in ks:
            warm = refit(k, warm)
            if warm is None:
                return True
            if values[k] < min(loglik_hat, values.max()) - drop:
                return False
        return False

    start_index = int(np.argmin(np.abs(grid - fit_result.theta[index])))
    upper_failed = sweep(range(start_index, m), fit_result.theta)
    warm = theta_opt[start_index] if computed[start_index] else fit_result.theta
    lower_failed = sweep(range(start_index - 1, -1, -1), warm)
    truncated = upper_failed or lower_failed

    keep = computed
    grid, values = grid[keep], values[keep]
    theta_opt, converged = theta_opt[keep], converged[keep]
    if grid.size == 0:
        raise EvaluationError("every profile refit failed")

    total_variation = float(np.sum(np.abs(np.diff(values)))) if values.size > 1 else 0.0
    curve = ProfileCurve(
        index=index, grid=grid, values=values, theta_opt=theta_opt,
        converged=converged, loglik_hat=loglik_hat, level=level,
        interval=ProfileInterval(float(grid[0]), float(grid[-1]), True, True),
        classification="", total_variation=total_variation,
        flatness_tol=flatness_tol, truncated=truncated,
    )
    return replace(
        curve,
        interval=likelihood_interval(curve, level),
        classification=classify_profile(curve, level),
    )


def likelihood_interval(curve: ProfileCurve, level: float) -> ProfileInterval:
    """Likelihood-ratio interval from the curve, interpolating the crossings.

    A side with no crossing before the grid end is open: the interval is
    unbounded within the profiled range.
    """
    target = float(np.max(curve.values)) - drop_threshold(level)
    peak = int(np.argmax(curve.values))
    grid, values = curve.grid, curve.values

    upper, upper_open = float(grid[-1]), True
    for k in range(peak + 1, grid.size):
        if values[k] < target:
            upper = _crossing(grid[k - 1], values[k - 1], grid[k], values[k], target)
            upper_open = False
            break
    lower, lower_open = float(grid[0]), True
    for k in range(peak - 1, -1, -1):
        if values[k] < target:
            lower = _crossing(grid[k + 1], values[k + 1], grid[k], values[k], target)
            lower_open = False
            break
    return ProfileInterval(lower, upper, lower_open, upper_open)


def _crossing(x_in, v_in, x_out, v_out, target) -> float:
    if v_out == v_in:
        return float(x_out)
    w = (v_in - target) / (v_in - v_out)
    return float(x_in + w * (x_out - x_in))


def classify_profile(curve: ProfileCurve, level: float) -> str:
    """Curve-shape classification.

    Completely flat (total variation below ``curve.flatness_tol``) means a
    structurally unidentifiable direction; a likelihood-ratio interval that
    runs into the end of the profiled range on either side (see
    :class:`ProfileInterval`) means the parameter is practically
    unidentifiable at this design; otherwise a finite interval exists and the
    parameter is identifiable.
    """
    interval = likelihood_interval(curve, level)
    if curve.total_variation < curve.flatness_tol:
        return CLASS_FLAT
    if interval.lower_open or interval.upper_open:
        return CLASS_PRACTICAL
    return CLASS_IDENTIFIABLE
