"""Least-squares parameter estimation.

Linear models get the closed-form orthogonal-decomposition solution; nonlinear
models get a bounded trust-region Levenberg-Marquardt solver with Coleman-Li
scaling (the affine scaling of scipy's ``trf``; Coleman & Li 1996, Branch,
Coleman & Li 1999), written in numpy for the few free parameters of a mask,
with Latin-hypercube multi-start.  Every fit ends with one of four reasons (see
:func:`fit`).  The objective throughout is S(theta) = 0.5 * ||y - f(theta)||^2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .models import Dataset, EvaluationError, Model, OutOfBoundsError, evaluate
from .sensitivity import (
    ANALYTIC, FD, FORWARD_ODE, forward_ode_solve, resolve_method, sensitivity_matrix,
)

SMALL_GRADIENT = "small-gradient"
SMALL_STEP = "small-step"
MAX_ITER = "max-iter"
BOUNDARY = "boundary"


class UnidentifiableDesignError(ValueError):
    """The normal equations are singular; carries a null-space direction."""

    def __init__(self, message: str, null_direction: np.ndarray):
        super().__init__(message)
        self.null_direction = null_direction


@dataclass(frozen=True)
class ParameterMask:
    """Which parameters are held fixed during a fit, and at what values."""

    fixed: np.ndarray   # bool per parameter
    values: np.ndarray  # used where fixed

    def __post_init__(self):
        fixed = np.asarray(self.fixed, dtype=bool)
        values = np.asarray(self.values, dtype=float)
        if fixed.shape != values.shape:
            raise ValueError("fixed flags and values must have equal length")
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "values", values)

    @classmethod
    def none(cls, p: int) -> "ParameterMask":
        return cls(np.zeros(p, dtype=bool), np.zeros(p))

    @classmethod
    def fixing(cls, p: int, assignments: dict[int, float]) -> "ParameterMask":
        fixed = np.zeros(p, dtype=bool)
        values = np.zeros(p)
        for i, v in assignments.items():
            fixed[i] = True
            values[i] = v
        return cls(fixed, values)

    @property
    def free_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.fixed)

    def pin(self, theta) -> np.ndarray:
        out = np.asarray(theta, dtype=float).copy()
        out[self.fixed] = self.values[self.fixed]
        return out


@dataclass
class FitOptions:
    gradient_tol: float = 1e-8
    step_tol: float = 1e-10
    max_iterations: int = 500  # residual evaluations
    jacobian_method: str = "auto"

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {n!r}")
        for name in ("gradient_tol", "step_tol"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
        if self.jacobian_method not in ("auto", ANALYTIC, FORWARD_ODE, FD):
            raise ValueError(f"unknown jacobian_method {self.jacobian_method!r}")


@dataclass(frozen=True)
class EstimateResult:
    theta: np.ndarray
    objective: float
    sigma2: float
    converged: bool
    iterations: int
    reason: str
    start: np.ndarray
    failure: str | None = None


def log_likelihood(objective: float, noise_sd: float) -> float:
    """Gaussian log-likelihood up to a constant: -S(theta) / sigma^2."""
    return -objective / noise_sd**2


def linear_least_squares(X, y) -> EstimateResult:
    """Closed-form solution of min 0.5 ||y - X theta||^2 by SVD.

    Raises :class:`UnidentifiableDesignError` with a null-space direction when
    X^T X is singular.  sigma^2 is estimated as 2 S / (n - p) when n > p.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    if y.size != n:
        raise ValueError("y length must match the row count of X")
    _, s, vt = np.linalg.svd(X, full_matrices=True)
    rank = int(np.sum(s > s[0] * n * np.finfo(float).eps)) if s.size and s[0] > 0 else 0
    if rank < p:
        direction = vt[-1]
        raise UnidentifiableDesignError(
            f"design matrix is rank-deficient (rank {rank} < {p}); "
            f"no information along {direction.tolist()}",
            null_direction=direction,
        )
    theta, *_ = np.linalg.lstsq(X, y, rcond=None)
    residual = y - X @ theta
    objective = 0.5 * float(residual @ residual)
    sigma2 = 2.0 * objective / (n - p) if n > p else float("nan")
    return EstimateResult(
        theta=theta,
        objective=objective,
        sigma2=sigma2,
        converged=True,
        iterations=0,
        reason=SMALL_GRADIENT,
        start=theta.copy(),
    )


def _solve_trust_region(fun, jac, x, lower, upper, gtol, xtol, max_nfev):
    """Bounded trust-region Levenberg-Marquardt for min 0.5 ||fun(x)||^2, dense, small n.

    Coleman-Li affine scaling (Coleman & Li 1996; Branch, Coleman & Li 1999): v_i is
    the distance from x_i to the bound that -g_i points at (1 if it points at none),
    D = diag(sqrt(v)), and the bounds being finite, C = diag(|g|) joins the model.
    The scaled subproblem min ||J D p + f||^2 + p'Cp subject to ||p|| <= delta is
    solved by one SVD and More's (1977) iteration for the LM parameter.  A step
    that would leave the box is cut to max(0.995, 1 - ||v g||_inf) of the
    way to the bound, and replaced by the model's minimiser along -D g (within the
    radius, cut the same way) if that one predicts more, so every point is strictly
    inside.  The start is moved 1e-10 (relative) off any bound it sits on, and the
    first radius is ||x0 / sqrt(v)||.  Radius update and stopping tests are trf's,
    and ``fun`` is called at most ``max_nfev`` times.  Returns (x, fun(x), status):
    status 1 is ||v g||_inf < gtol, 3 a step shorter than xtol (xtol + ||x||), and
    0 the budget spent.
    """
    x = np.clip(x, lower + 1e-10 * np.maximum(1.0, np.abs(lower)),
                upper - 1e-10 * np.maximum(1.0, np.abs(upper)))
    inside = np.nextafter(lower, upper), np.nextafter(upper, lower)
    f, J = fun(x), jac(x)
    nfev, status = 1, None
    cost, g = 0.5 * float(f @ f), J.T @ f

    def scaling(x, g):
        return np.where(g < 0, upper - x, np.where(g > 0, x - lower, 1.0))

    def to_bound(p):  # the multiple of p that reaches the first bound
        with np.errstate(divide="ignore"):
            return np.min(np.where(p > 0, (upper - x) / p, np.where(p < 0, (lower - x) / p, np.inf)))

    def model(p_h):  # the quadratic model's change along the scaled step p_h
        return 0.5 * (np.sum((J_h @ p_h) ** 2) + p_h @ (c * p_h)) + g_h @ p_h

    delta = float(np.linalg.norm(x / np.sqrt(scaling(x, g)))) or 1.0
    alpha = 0.0  # LM parameter, carried between subproblems
    while True:
        v = scaling(x, g)
        g_norm = float(np.max(np.abs(g * v)))
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            return x, f, status or 0
        d, c = np.sqrt(v), np.abs(g)
        J_h, g_h = J * d, d * g
        U, s, Vt = np.linalg.svd(np.vstack([J_h, np.diag(np.sqrt(c))]), full_matrices=False)
        suf = s * (U[: f.size].T @ f)
        full_rank = s[-1] > np.finfo(float).eps * f.size * s[0]
        gauss_newton = -Vt.T @ (suf / s**2) if full_rank else None
        back_off = max(0.995, 1.0 - g_norm)
        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            if gauss_newton is not None and np.linalg.norm(gauss_newton) <= delta:
                p_h, alpha = gauss_newton, 0.0
            else:
                alpha = _lm_parameter(suf, s, delta, alpha, full_rank)
                p_h = -Vt.T @ (suf / (s**2 + alpha))
                p_h *= delta / np.linalg.norm(p_h)
            cut = to_bound(d * p_h)
            if cut < 1.0:  # back off inside the box, or go along -g_h if the model prefers
                p_h = back_off * cut * p_h
                a_h = -g_h
                a_bound, a_radius = to_bound(d * a_h), delta / np.linalg.norm(a_h)
                reach = back_off * a_bound if a_bound < a_radius else a_radius
                curvature = model(a_h) - g_h @ a_h  # model(t a_h) = curvature t^2 - |g_h|^2 t
                t = min(reach, 0.5 * (g_h @ g_h) / curvature) if curvature > 0 else reach
                if model(t * a_h) < model(p_h):
                    p_h = t * a_h
            p = d * p_h
            x_new = np.clip(x + p, *inside)
            f_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(f_new @ f_new)
            reduction, predicted = cost - cost_new, -model(p_h)
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            step_h_norm = float(np.linalg.norm(p_h))
            new_delta = delta
            if ratio < 0.25:
                new_delta = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                new_delta = 2.0 * delta
            if np.linalg.norm(p) < xtol * (xtol + np.linalg.norm(x)):
                status = 3
                break
            alpha *= delta / new_delta
            delta = new_delta
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T @ f


def _lm_parameter(suf, s, delta, alpha, full_rank):
    """alpha with ||p(alpha)|| ~ delta for p(alpha) = -V (s uf / (s^2 + alpha)), by More's
    safeguarded Newton iteration on phi(alpha) = ||p(alpha)|| - delta, warm-started."""

    def phi(alpha):
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm

    upper = np.linalg.norm(suf) / delta
    lower = 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    for _ in range(10):
        if not lower <= alpha <= upper or alpha <= 0:
            alpha = max(0.001 * upper, np.sqrt(lower * upper))
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + delta) * ratio / delta
        if abs(value) < 0.01 * delta:
            break
    return alpha


def fit(
    model: Model,
    dataset: Dataset,
    start,
    mask: ParameterMask | None = None,
    options: FitOptions | None = None,
) -> EstimateResult:
    """Minimise S(theta) over the free parameters with a bounded trust-region solver.

    One :func:`_solve_trust_region` run on the free sub-vector: box bounds,
    residuals f(theta) - y stacked over replicates, and the model's own
    sensitivity route as the Jacobian.  On the forward-ODE route one
    integration of the augmented system gives both: a residual evaluation
    keeps its sensitivities for a Jacobian at the same point.
    ``max_iterations`` caps the residual evaluations, and ``iterations``
    counts Jacobians: one per accepted step, the start's included.  The run
    ends ``small-gradient`` when the gradient, scaled by the distance to the
    bound it points at, is below ``gradient_tol`` in max-norm (so optima on a
    bound end here); ``small-step`` on a step shorter than ``step_tol`` (step_tol
    + ||x||), or ``boundary`` if a free parameter is then within ``step_tol``
    (relative) of a bound; and ``max-iter`` with ``converged=False`` when the
    budget is spent.

    The solver cannot express ordering constraints: it runs over the box,
    evaluating without the ordering check, and if it ends outside them the
    best admissible point it visited is returned, not converged, as
    ``boundary``.  An evaluation failure mid-run returns the best admissible
    point so far, not converged, as ``max-iter`` with the message in
    ``failure``; one at the first evaluation is raised.
    """
    opts = options or FitOptions()
    space = model.space
    start = space.require(start)
    mask = mask or ParameterMask.none(start.size)
    theta = mask.pin(start)
    if not space.contains(theta):
        raise OutOfBoundsError("mask pins parameters outside the admissible set")
    free = mask.free_indices
    design = dataset.design
    y = dataset.observations.ravel()
    box = replace(model, space=replace(space, orderings=())) if space.orderings else model
    joint = resolve_method(model, opts.jacobian_method) == FORWARD_ODE
    best_theta, best_objective = None, np.inf
    jacobians = 0
    solved = None  # (point, sensitivities) of the last joint solve

    def at(x) -> np.ndarray:
        point = theta.copy()
        point[free] = x
        return point

    def residuals(x) -> np.ndarray:
        nonlocal best_theta, best_objective, solved
        point = at(x)
        if joint:
            outputs, V = forward_ode_solve(box, design, point)
            solved = (point, V)
        else:
            outputs = evaluate(model, design, point, check_bounds=False)
        r = np.repeat(outputs, design.replicates) - y
        objective = 0.5 * float(r @ r)
        if objective < best_objective and space.contains(point):
            best_theta, best_objective = point, objective
        return r

    def jacobian(x) -> np.ndarray:
        nonlocal jacobians
        jacobians += 1
        point = at(x)
        if solved is not None and solved[0].tobytes() == point.tobytes():
            V = solved[1]  # bit for bit the point of the last residual evaluation
        else:
            V = sensitivity_matrix(box, design, point, method=opts.jacobian_method).values
        return np.repeat(V, design.replicates, axis=0)[:, free]

    def result(theta, objective, converged, reason, failure=None):
        sigma2 = 2.0 * objective / (y.size - free.size) if y.size > free.size else float("nan")
        return EstimateResult(
            theta=theta.copy(), objective=float(objective), sigma2=float(sigma2),
            converged=converged, iterations=jacobians, reason=reason,
            start=start.copy(), failure=failure,
        )

    if free.size == 0:
        residuals(theta[free])
        return result(best_theta, best_objective, True, SMALL_GRADIENT)
    lower, upper = space.lower[free], space.upper[free]
    try:
        x, r, status = _solve_trust_region(
            residuals, jacobian, theta[free], lower, upper,
            opts.gradient_tol, opts.step_tol, opts.max_iterations,
        )
    except EvaluationError as exc:
        if best_theta is None:
            raise
        return result(best_theta, best_objective, False, MAX_ITER, failure=str(exc))
    theta_hat = at(x)
    if not space.contains(theta_hat):
        if best_theta is None:  # the start, nudged off a bound, already broke an ordering
            residuals(theta[free])
        return result(best_theta, best_objective, False, BOUNDARY)
    objective = 0.5 * float(r @ r)
    if status == 0:
        return result(theta_hat, objective, False, MAX_ITER)
    if status == 1:
        return result(theta_hat, objective, True, SMALL_GRADIENT)
    near = opts.step_tol * np.maximum(1.0, np.abs(np.concatenate([lower, upper])))
    on_bound = np.any(np.concatenate([x - lower, upper - x]) <= near)
    return result(theta_hat, objective, True, BOUNDARY if on_bound else SMALL_STEP)


def latin_hypercube_starts(
    model: Model, k_starts: int, seed: int, max_tries: int = 10_000
) -> np.ndarray:
    """Latin-hypercube start points over the admissible box.

    The hypercube comes from a child generator spawned from
    ``default_rng(seed)``; rows violating ordering constraints are replaced
    by uniform redraws from the parent, so every start is feasible.  The
    starts depend on numpy alone, not on scipy's ``QMCEngine`` seeding.
    """
    space = model.space
    rng = np.random.default_rng(seed)
    lhs = rng.spawn(1)[0]
    jitter = lhs.uniform(size=(k_starts, space.dimension))
    strata = np.column_stack([lhs.permutation(k_starts) for _ in range(space.dimension)])
    unit = (strata + 1 - jitter) / k_starts
    starts = space.lower + unit * (space.upper - space.lower)
    for k in range(k_starts):
        tries = 0
        while not space.contains(starts[k]):
            starts[k] = rng.uniform(space.lower, space.upper)
            tries += 1
            if tries > max_tries:
                raise RuntimeError("could not draw a feasible start point")
    return starts


def multi_start_fit(
    model: Model,
    dataset: Dataset,
    k_starts: int,
    seed: int,
    mask: ParameterMask | None = None,
    options: FitOptions | None = None,
) -> list[EstimateResult]:
    """Independent fits from dispersed starts, sorted by objective.

    Individual failures are flagged per start, never raised.
    """
    if k_starts < 1:
        raise ValueError("k_starts must be >= 1")
    starts = latin_hypercube_starts(model, k_starts, seed)
    if mask is not None:
        starts[:, mask.fixed] = mask.values[mask.fixed]

    def run(start):
        try:
            return fit(model, dataset, start, mask=mask, options=options)
        except EvaluationError as exc:
            return EstimateResult(
                theta=np.asarray(start, dtype=float), objective=float("inf"),
                sigma2=float("nan"), converged=False, iterations=0,
                reason=MAX_ITER, start=np.asarray(start, dtype=float), failure=str(exc),
            )

    return sorted((run(s) for s in starts), key=lambda r: r.objective)


def estimates_csv(results: list[EstimateResult], names) -> tuple[list[str], list[list]]:
    """Header and rows for a multi-start summary CSV.

    Results arrive sorted by objective, so ``start_index`` is the rank of the
    start after sorting.
    """
    header = ["start_index", "objective", "converged"] + [f"theta_{n}" for n in names]
    rows = [
        [k, float(r.objective), int(r.converged)] + [float(v) for v in r.theta]
        for k, r in enumerate(results)
    ]
    return header, rows


OBJECTIVE_CLUSTER_RTOL = 1e-4
PARAMETER_CLUSTER_RTOL = 1e-3


def cluster_optima(
    results: list[EstimateResult],
    objective_rtol: float = OBJECTIVE_CLUSTER_RTOL,
    parameter_rtol: float = PARAMETER_CLUSTER_RTOL,
) -> list[list[EstimateResult]]:
    """Group converged results into distinct optima.

    Two results belong together when both the objective and the parameter
    vector agree to the stated relative tolerances (with +1 guards so
    near-zero optima compare absolutely).
    """
    clusters: list[list[EstimateResult]] = []
    for res in sorted(results, key=lambda r: r.objective):
        if not res.converged:
            continue
        for cluster in clusters:
            rep = cluster[0]
            close_obj = abs(res.objective - rep.objective) <= objective_rtol * (1.0 + abs(rep.objective))
            scale = 1.0 + float(np.max(np.abs(rep.theta)))
            close_par = float(np.max(np.abs(res.theta - rep.theta))) <= parameter_rtol * scale
            if close_obj and close_par:
                cluster.append(res)
                break
        else:
            clusters.append([res])
    return clusters
