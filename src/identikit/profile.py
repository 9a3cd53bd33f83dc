"""Profile log-likelihood curves and their identifiability classification.

For parameter i, each grid value of theta_i is held fixed while the remaining
parameters are re-optimized, warm-started from the neighbouring grid point and
sweeping outward from the fit in both directions (on the default grid, until
one refit past the likelihood level set).  Flat curves indicate
structural unidentifiability; likelihood-ratio intervals that run into the end
of the profiled range indicate poor practical identifiability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import EstimateResult, fit, latin_hypercube_starts, log_likelihood
from .fim import IDENTIFIABLE, chi2_quantile, combination_variance, fim_report
from .models import (_FRACTION, _POSITIVE, Dataset, EvaluationError, Model, OutOfBoundsError, ParameterSpace,
                     _checked, _increasing, _integer, _is_integer, _rule)

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
    """The computed points of a profile; its interval, classification and total variation derive from them."""

    index: int
    grid: np.ndarray
    values: np.ndarray            # profile log-likelihood, -S/sigma^2 scale
    theta_opt: np.ndarray         # (m, p) optimum of the profiled-out parameters
    converged: np.ndarray
    loglik_hat: float
    level: float
    flatness_tol: float
    truncated: bool

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.values))))

    @property
    def interval(self) -> ProfileInterval:
        """Likelihood-ratio interval at ``level``, interpolating the crossings.

        A side with no crossing before the grid end is open: the interval is
        unbounded within the profiled range.
        """
        target = float(np.max(self.values)) - drop_threshold(self.level)
        peak = int(np.argmax(self.values))
        upper, upper_open = _side(self.grid[peak:], self.values[peak:], target)
        lower, lower_open = _side(self.grid[peak::-1], self.values[peak::-1], target)
        return ProfileInterval(lower, upper, lower_open, upper_open)

    @property
    def classification(self) -> str:
        """Curve-shape classification.

        Completely flat (total variation below ``flatness_tol``) means a
        structurally unidentifiable direction; a likelihood-ratio interval that
        runs into the end of the profiled range on either side (see
        :class:`ProfileInterval`) means the parameter is practically
        unidentifiable at this design; otherwise a finite interval exists and
        the parameter is identifiable.
        """
        interval = self.interval
        if self.total_variation < self.flatness_tol:
            return CLASS_FLAT
        if interval.lower_open or interval.upper_open:
            return CLASS_PRACTICAL
        return CLASS_IDENTIFIABLE


def drop_threshold(level: float) -> float:
    """Log-likelihood drop defining the level set: chi2_1(level) / 2."""
    return chi2_quantile(level, 1) / 2.0


def _default_grid(model, dataset, fit_result, index, points, span_sd) -> np.ndarray:
    space = model.space
    lo, hi = space.lower[index], space.upper[index]
    center = float(fit_result.theta[index])
    report = fim_report(model, dataset.design, fit_result.theta)
    if report.classification == IDENTIFIABLE:
        sd = float(np.sqrt(combination_variance(report, np.eye(space.dimension)[index])))
        lo = max(lo, center - span_sd * sd)
        hi = min(hi, center + span_sd * sd)
    return np.linspace(lo, hi, points)


def profile_rules(space: ParameterSpace) -> dict:
    """The rule of each argument of :func:`profile_parameter` but the grid's (:func:`grid_rule`)."""
    in_range = _rule(lambda i: 0 <= i < space.dimension, "out of range")
    index = _rule(_is_integer, "must be an integer", lambda i: in_range(int(i)))
    return {"index": index, "points": _integer(3), "span_sd": _POSITIVE, "level": _FRACTION,
            "flatness_tol": _POSITIVE, "multistart": _integer(0)}


_GRID = _increasing(3, "must be a list of at least 3 numbers")


def grid_rule(space: ParameterSpace, index: int):
    """The rule of a grid for parameter ``index``: None (the default grid), or at least 3
    numbers, strictly increasing, inside the parameter's admissible slice."""
    lo, hi = space.lower[index], space.upper[index]

    def rule(value) -> np.ndarray | None:
        grid = None if value is None else _GRID(value)
        if grid is not None and (grid[0] < lo or grid[-1] > hi):
            raise OutOfBoundsError(f"exits the admissible slice [{lo:g}, {hi:g}] of parameter {index}")
        return grid
    return rule


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
) -> ProfileCurve:
    """Profile log-likelihood of parameter ``index``, an integer in [0, p).

    The default grid of ``points`` (an integer >= 3) spans the fit plus/minus
    ``span_sd`` (a positive number) information-matrix standard deviations
    (clipped to the admissible slice), falling back to the full slice when the
    information matrix is rank-deficient.  ``multistart`` (an integer >= 0)
    adds that many cold refits per grid point on top of the warm-started one,
    from Latin-hypercube starts with the profiled parameter set, skipping a
    start that then breaks an ordering.  ``level`` is in (0, 1) and
    ``flatness_tol`` positive; a bad argument raises ValueError naming it.

    On the default grid each outward sweep ends one refit past the level set:
    at the first refit whose value lies more than :func:`drop_threshold`
    below both ``loglik_hat`` and the highest value so far.  The points it
    computes are those of the full sweep, bit for bit.  An explicit ``grid``
    (see :func:`grid_rule`) is swept in full.  The curve holds only the
    computed points.
    """
    space = model.space
    index, points, span_sd, level, flatness_tol, multistart = _checked(profile_rules(space), index=index,
        points=points, span_sd=span_sd, level=level, flatness_tol=flatness_tol, multistart=multistart)
    (grid,) = _checked({"grid": grid_rule(space, index)}, grid=grid)
    drop = drop_threshold(level) if grid is None else np.inf  # an explicit grid is swept in full
    if not fit_result.converged:
        raise ValueError("profile requires a converged fit result")
    sigma = dataset.design.noise_sd
    loglik_hat = log_likelihood(fit_result.objective, sigma)
    if grid is None:
        grid = _default_grid(model, dataset, fit_result, index, points, span_sd)

    def refit(k: int, warm: np.ndarray) -> EstimateResult | None:
        """The warm refit, or a converged cold one with a lower objective; None if neither ran."""
        fixed = {index: float(grid[k])}

        def run(start) -> EstimateResult | None:
            start[index] = grid[k]
            try:
                return fit(model, dataset, start, fixed) if space.contains(start) else None
            except EvaluationError:
                return None

        best = run(warm.copy())
        if multistart > 0:
            point_seed = int(np.random.SeedSequence([seed, index, k]).generate_state(1)[0])
            for start in latin_hypercube_starts(model, multistart, point_seed):
                res = run(start)
                if res is not None and res.converged and (best is None or res.objective < best.objective):
                    best = res
        return best

    highest = -np.inf  # over both sides

    def sweep(ks, warm) -> tuple[list, bool]:
        """Rows (k, log-likelihood, refit) along ``ks``, each warm from the last; True if one failed."""
        nonlocal highest
        rows = []
        for k in ks:
            best = refit(k, warm)
            if best is None:
                return rows, True
            value = log_likelihood(best.objective, sigma)
            rows.append((k, value, best))
            highest = max(highest, value)
            if value < min(loglik_hat, highest) - drop:
                break
            warm = best.theta
        return rows, False

    start_index = int(np.argmin(np.abs(grid - fit_result.theta[index])))
    upper, upper_failed = sweep(range(start_index, grid.size), fit_result.theta)
    warm = upper[0][2].theta if upper else fit_result.theta
    lower, lower_failed = sweep(range(start_index - 1, -1, -1), warm)
    if not lower and not upper:
        raise EvaluationError("every profile refit failed")
    ks, values, refits = zip(*(lower[::-1] + upper))
    return ProfileCurve(
        index=index, grid=grid[list(ks)], values=np.array(values),
        theta_opt=np.array([r.theta for r in refits]),
        converged=np.array([r.converged for r in refits]),
        loglik_hat=loglik_hat, level=level, flatness_tol=flatness_tol,
        truncated=upper_failed or lower_failed,
    )


def _side(grid, values, target) -> tuple[float, bool]:
    """Interval end and openness on the side of the peak ``grid[0]`` that ``grid`` runs to."""
    for k in range(1, grid.size):
        if values[k] < target:
            return _crossing(grid[k - 1], values[k - 1], grid[k], values[k], target), False
    return float(grid[-1]), True


def _crossing(x_in, v_in, x_out, v_out, target) -> float:
    if v_out == v_in:
        return float(x_out)
    w = (v_in - target) / (v_in - v_out)
    return float(x_in + w * (x_out - x_in))
