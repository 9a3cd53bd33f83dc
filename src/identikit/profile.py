"""Profile log-likelihood curves and their identifiability classification.

For parameter i, theta_i is held at a sequence of values while the remaining
parameters are re-optimized.  The curve's first point is the fit itself, and
each side is swept outward from it (after Raue et al. 2009, Bioinformatics
25(15):1923):

- the first step is the spacing of a ``points``-point grid over the fit plus or
  minus ``span_sd`` information-matrix standard deviations, or over the
  admissible slice when that matrix is rank-deficient;
- each later step aims just past the likelihood level set (``OVERSHOOT`` times
  the drop) along the quadratic through the fit, where the curve is level, and
  the last point; it is at most ``GROWTH`` times the step before, so it grows
  geometrically while the curve stays flat, and at least that step over
  ``GROWTH``; it stops at the admissible bound;
- each refit fits the model restricted to the profiled value (:func:`restrict`),
  from the line through the last two optima clipped into that model's box;
- a side ends one refit past the level set, at the first value more than
  :func:`drop_threshold` below the fit's, or on the bound, a failed refit or
  its ``points``-th refit.

Each crossing is then refined by bracketed refits, quadratic interpolation
safeguarded by bisection as in Brent's method, until a point that brackets it
lies within ``ROOT_TOL`` of the level, so that the interval end, the chord
between the two, is a root to that tolerance.  An explicit grid goes through
the same loop with the next grid value as its next point, is swept in full and
is not refined.

Flat curves indicate structural unidentifiability; a likelihood-ratio
interval that runs into the admissible bound indicates poor practical
identifiability.  A side that a stall decides (see :class:`ProfileInterval`)
gives no verdict: the curve is ``inconclusive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimation import SMALL_GRADIENT, EstimateResult, fit, latin_hypercube_starts, log_likelihood, objective_at
from .fim import IDENTIFIABLE, chi2_quantile, combination_variance, fim_report
from .models import (_FRACTION, _POSITIVE, Dataset, EvaluationError, Model, OutOfBoundsError, ParameterSpace,
                     _checked, _increasing, _integer, _is_integer, _rule, restrict)

FLATNESS_TOL = 1e-6
ROOT_TOL = 1e-5     # log-likelihood units: how close a refined interval end lies to the level
GROWTH = 3.0        # the most a step grows, or shrinks, from the one before
OVERSHOOT = 1.05    # a step aims at this multiple of the drop, just past the level set

CLASS_IDENTIFIABLE = "identifiable"
CLASS_PRACTICAL = "practically-unidentifiable"
CLASS_FLAT = "structurally-unidentifiable-flat"
CLASS_INCONCLUSIVE = "inconclusive"

# How a side's sweep ended, and so how an open side ends (ProfileCurve.sweep_ends)
LEVEL_SET = "level-set"             # one refit past the level set
BOUND = "bound"                     # on the admissible bound
GRID_END = "grid-end"               # on the last value of an explicit grid
REFIT_FAILED = "refit-failed"       # a refit failed: it evaluated nowhere admissible
REFIT_CAP = "refit-cap"             # ``points`` refits on one side
# A closed side's end whose crossing point is a refit that did not converge
UNCONVERGED = "unconverged-refit"
STALLS = (REFIT_FAILED, REFIT_CAP, UNCONVERGED)

DEFAULT_GRID_POINTS = 41
DEFAULT_SPAN_SD = 5.0


@dataclass(frozen=True)
class ProfileInterval:
    """Likelihood-ratio interval.  ``lower_end`` and ``upper_end`` say how each side ends: at
    a crossing of the level set (``level-set``, or ``unconverged-refit`` when the refit past it
    did not converge), or, on an open side, how its sweep ended (``bound``, ``grid-end``,
    ``refit-failed`` or ``refit-cap``)."""

    lower: float
    upper: float
    lower_open: bool
    upper_open: bool
    lower_end: str = GRID_END
    upper_end: str = GRID_END


@dataclass(eq=False)
class ProfileCurve:
    """The computed points of a profile, the fit's among them, and how each side's sweep
    ended; its interval, classification, total variation and refit count derive from them."""

    index: int
    grid: np.ndarray
    values: np.ndarray            # profile log-likelihood, -S/sigma^2 scale
    theta_opt: np.ndarray         # (m, p) optimum of the profiled-out parameters
    converged: np.ndarray
    loglik_hat: float
    level: float
    flatness_tol: float
    sweep_ends: tuple[str, str] = (GRID_END, GRID_END)  # (lower, upper)

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.values))))

    @property
    def truncated(self) -> bool:
        """A side's sweep ended on a failed refit."""
        return REFIT_FAILED in self.sweep_ends

    @property
    def refits(self) -> int:
        """Points a refit computed: all but the fit's (each with ``multistart`` cold refits more)."""
        return self.grid.size - 1

    @property
    def interval(self) -> ProfileInterval:
        """Likelihood-ratio interval at ``level``, interpolating the crossings.

        A side with no crossing before its last point is open: the interval is
        unbounded within the profiled range.
        """
        drop, sides = drop_threshold(self.level), []
        for d, swept in zip((-1, 1), self.sweep_ends):
            target, walk, k = _bracket(self.values, d, drop)
            if k is None:
                sides.append((float(self.grid[walk[-1]]), True, swept))
            else:
                inside, out = walk[k - 1], walk[k]
                end = _chord(self.grid[inside], self.values[inside], self.grid[out], self.values[out], target)
                sides.append((end, False, LEVEL_SET if self.converged[out] else UNCONVERGED))
        (lower, lower_open, lower_end), (upper, upper_open, upper_end) = sides
        return ProfileInterval(lower, upper, lower_open, upper_open, lower_end, upper_end)

    @property
    def classification(self) -> str:
        """Curve-shape classification.

        A side that a stall decides (its end ``refit-failed``, ``refit-cap`` or
        ``unconverged-refit``) makes the curve inconclusive: a stalled
        optimizer is not a property of the model.  Otherwise completely flat
        (total variation below ``flatness_tol``) means a structurally
        unidentifiable direction; a likelihood-ratio interval that runs into
        the end of the profiled range on either side (see
        :class:`ProfileInterval`) means the parameter is practically
        unidentifiable at this design; and a finite interval that it is
        identifiable.
        """
        interval = self.interval
        if interval.lower_end in STALLS or interval.upper_end in STALLS:
            return CLASS_INCONCLUSIVE
        if self.total_variation < self.flatness_tol:
            return CLASS_FLAT
        if interval.lower_open or interval.upper_open:
            return CLASS_PRACTICAL
        return CLASS_IDENTIFIABLE


def drop_threshold(level: float) -> float:
    """Log-likelihood drop defining the level set: chi2_1(level) / 2."""
    return chi2_quantile(level, 1) / 2.0


def _first_step(model, dataset, fit_result, index, points, span_sd) -> float:
    """The spacing of ``points`` values over the fit +/- ``span_sd`` FIM sds, or over the slice."""
    space = model.space
    report = fim_report(model, dataset.design, fit_result.theta)
    if report.classification == IDENTIFIABLE:
        sd = float(np.sqrt(combination_variance(report, np.eye(space.dimension)[index])))
        return 2.0 * span_sd * sd / (points - 1)
    return float(space.upper[index] - space.lower[index]) / (points - 1)


def profile_rules(space: ParameterSpace) -> dict:
    """The rule of each argument of :func:`profile_parameter` but the grid's (:func:`grid_rule`)."""
    in_range = _rule(lambda i: 0 <= i < space.dimension, "out of range")
    index = _rule(_is_integer, "must be an integer", lambda i: in_range(int(i)))
    return {"index": index, "points": _integer(3), "span_sd": _POSITIVE, "level": _FRACTION,
            "flatness_tol": _POSITIVE, "multistart": _integer(0)}


_GRID = _increasing(3, "must be a list of at least 3 numbers")


def grid_rule(space: ParameterSpace, index: int):
    """The rule of a grid for parameter ``index``: None (the adaptive sweep), or at least 3
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
    """Profile log-likelihood of parameter ``index``, an integer in [0, p), by the module's sweep.

    ``points`` (an integer >= 3) and ``span_sd`` (a positive number) set the
    first step, and ``points`` caps the refits of each side, refinement
    included.  An explicit ``grid`` (see :func:`grid_rule`) is swept in full
    instead, from the fit outward.  ``multistart`` (an integer >= 0) adds
    that many cold refits per point on top of the warm-started one, from
    Latin-hypercube starts over the whole space, each clipped like the warm
    one.  ``level`` is in (0, 1) and ``flatness_tol`` positive; a bad
    argument raises ValueError naming it.  The curve holds only the computed
    points, each refit's optimum and start full-length.
    """
    space = model.space
    index, points, span_sd, level, flatness_tol, multistart = _checked(profile_rules(space), index=index,
        points=points, span_sd=span_sd, level=level, flatness_tol=flatness_tol, multistart=multistart)
    (grid,) = _checked({"grid": grid_rule(space, index)}, grid=grid)
    if not fit_result.converged:
        raise ValueError("profile requires a converged fit result")
    sigma = dataset.design.noise_sd
    loglik_hat = log_likelihood(fit_result.objective, sigma)
    center = float(fit_result.theta[index])
    lo, hi = float(space.lower[index]), float(space.upper[index])
    drop, cap = (drop_threshold(level), points) if grid is None else (np.inf, grid.size)  # a grid is swept in full
    first = _first_step(model, dataset, fit_result, index, points, span_sd) if grid is None else None
    rows = [(center, loglik_hat, fit_result)]  # (value of theta_i, log-likelihood, refit), in order of theta_i
    free = np.arange(space.dimension) != index
    count = 0  # refits so far: each one's multistart seed

    def refit(x: float, near, far) -> tuple | None:
        """The row at ``x``: the restricted model's fit from the line through the optima of rows ``far`` and
        ``near`` (``near``'s without ``far``), or a converged cold one's with a lower objective; None if none ran."""
        nonlocal count
        count += 1
        try:
            restricted = restrict(model, {index: x}) if free.any() else None
        except OutOfBoundsError:  # x leaves a member of an ordering one value, no interval
            return None

        def run(start) -> EstimateResult | None:
            try:
                if restricted is None:  # one parameter: the point itself, a converged fit of nothing
                    objective, point = objective_at(model, dataset, [x]), np.array([x])
                    sigma2 = 2.0 * objective / dataset.observations.size
                    return EstimateResult(point, objective, sigma2, True, 0, SMALL_GRADIENT, point)
                res = fit(restricted, dataset, np.clip(start[free], restricted.space.lower, restricted.space.upper))
            except EvaluationError:
                return None
            return replace(res, theta=np.concatenate((res.theta[:index], [x], res.theta[index:])),
                           start=np.concatenate((res.start[:index], [x], res.start[index:])))

        warm = near[2].theta
        if far is not None:
            warm = warm + (warm - far[2].theta) * ((x - near[0]) / (near[0] - far[0]))
        best = run(warm)
        if multistart > 0:
            point_seed = int(np.random.SeedSequence([seed, index, count]).generate_state(1)[0])
            for start in latin_hypercube_starts(model, multistart, point_seed):
                res = run(start)
                if res is not None and res.converged and (best is None or res.objective < best.objective):
                    best = res
        return None if best is None else (x, log_likelihood(best.objective, sigma), best)

    def next_value(d: int, side: list) -> float | None:
        """The next value of theta_i outward on side ``d`` (+1 up, -1 down), or None past the last."""
        x = side[-1][0]
        if grid is not None:
            ahead = grid[grid > x] if d > 0 else grid[grid < x][::-1]
            return float(ahead[0]) if ahead.size else None
        if x == (hi if d > 0 else lo):
            return None
        step = first
        if len(side) > 1:
            last = abs(x - side[-2][0])
            step = GROWTH * last
            fall = loglik_hat - side[-1][1]
            if fall > 0:  # along the quadratic through the fit (level there) and this point
                reach = abs(x - center) * (math.sqrt(OVERSHOOT * drop / fall) - 1.0)
                step = min(step, max(last / GROWTH, reach))
        return min(x + step, hi) if d > 0 else max(x - step, lo)

    def sweep(d: int) -> tuple[list, str]:
        """The rows of side ``d``, outward, each refit warm from the line through the two before; how it ended."""
        side = rows[:1]
        while len(side) <= cap:
            x = next_value(d, side)
            if x is None:
                return side[1:], BOUND if grid is None else GRID_END
            row = refit(x, side[-1], side[-2] if len(side) > 1 else None)
            if row is None:
                return side[1:], REFIT_FAILED
            side.append(row)
            if row[1] < loglik_hat - drop:
                return side[1:], LEVEL_SET
        return side[1:], REFIT_CAP

    upper, upper_end = sweep(1)
    lower, lower_end = sweep(-1)
    rows = lower[::-1] + rows + upper
    for d, budget in ((1, cap - len(upper)), (-1, cap - len(lower))):  # a grid's infinite drop: no crossing
        rows = _refine(rows, d, budget, drop, refit)
    xs, values, refits = zip(*rows)
    return ProfileCurve(
        index=index, grid=np.array(xs), values=np.array(values),
        theta_opt=np.array([r.theta for r in refits]),
        converged=np.array([r.converged for r in refits]),
        loglik_hat=loglik_hat, level=level, flatness_tol=flatness_tol,
        sweep_ends=(lower_end, upper_end),
    )


def _refine(rows: list, d: int, budget: int, drop: float, refit) -> list:
    """``rows`` with up to ``budget`` refits added inside the bracket of the crossing on side ``d``
    until a bracketing point lies within ``ROOT_TOL`` of the level: each at the root of the quadratic
    through the bracket and the next point inward (the chord's when there is none), or at the midpoint
    when that root leaves the bracket or moves more than half as far as the refinement two before
    (Brent's safeguard)."""
    moves = []  # how far each refinement moved from the bracket's end nearer the level
    while budget > 0:
        xs = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        target, walk, k = _bracket(values, d, drop)
        if k is None:
            return rows
        a, b = walk[k - 1], walk[k]
        xa, va, xb, vb = xs[a], values[a], xs[b], values[b]
        if va - target <= ROOT_TOL or target - vb <= ROOT_TOL or abs(xb - xa) <= 1e-12 * max(1.0, abs(xa)):
            return rows
        x = _chord(xa, va, xb, vb, target)
        if k > 1:
            c = walk[k - 2]
            x = _quadratic_root(xs[c], values[c], xa, va, xb, vb, target, x)
        nearer = xa if va - target < target - vb else xb
        moves = moves or [abs(xb - xa)] * 2
        if not min(xa, xb) < x < max(xa, xb) or abs(x - nearer) > moves[-2] / 2:
            x = 0.5 * (xa + xb)
        moves.append(abs(x - nearer))
        row = refit(float(x), rows[a], rows[b])
        if row is None:
            return rows
        budget -= 1
        at = max(a, b)  # the bracket is adjacent in ``rows``
        rows = rows[:at] + [row] + rows[at:]
    return rows


def _bracket(values: np.ndarray, d: int, drop: float) -> tuple[float, np.ndarray, int | None]:
    """On side ``d`` (+1 up, -1 down): the level, ``drop`` below the highest of ``values``; the walk of indices
    outward from the first highest; and the first position k >= 1 on it below the level (None if there is
    none), so that ``walk[k - 1]`` and ``walk[k]`` bracket the crossing of the level set."""
    target, peak = float(np.max(values)) - drop, int(np.argmax(values))
    walk = np.arange(peak, values.size) if d > 0 else np.arange(peak, -1, -1)
    below = np.flatnonzero(values[walk[1:]] < target)
    return target, walk, int(below[0]) + 1 if below.size else None


def _chord(x_in, v_in, x_out, v_out, target) -> float:
    """Where the chord from (``x_in``, ``v_in`` >= ``target``) to (``x_out``, ``v_out`` < ``target``) meets it."""
    w = (v_in - target) / (v_in - v_out)
    return float(x_in + w * (x_out - x_in))


def _quadratic_root(xc, vc, xa, va, xb, vb, target, fallback) -> float:
    """The root between ``xa`` and ``xb`` of the quadratic through the three points minus ``target``
    (the one nearer ``fallback`` if there are two), or ``fallback`` if there is none."""
    ab = (vb - va) / (xb - xa)
    qa = (ab - (va - vc) / (xa - xc)) / (xb - xc)  # v(xa + t) = va + ab t + qa t (t - (xb - xa))
    qb, qc = ab - qa * (xb - xa), va - target
    disc = qb * qb - 4.0 * qa * qc
    if qa == 0 or disc < 0:
        return fallback
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    inside = [xa + t for t in (q / qa, qc / q if q else 0.0) if 0 < t / (xb - xa) < 1]
    return min(inside, key=lambda x: abs(x - fallback), default=fallback)
