"""Least-squares parameter estimation.

Linear models get the closed-form orthogonal-decomposition solution; nonlinear
models get scipy's bounded trust-region reflective solver (Branch, Coleman & Li
1999) over the free parameters of a mask, with Latin-hypercube multi-start.
Every fit ends with one of four reasons (see :func:`fit`).  The objective
throughout is S(theta) = 0.5 * ||y - f(theta)||^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from .models import Dataset, EvaluationError, Model, OutOfBoundsError, evaluate
from .sensitivity import FORWARD_ODE, forward_ode_solve, resolve_method, sensitivity_matrix

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
    max_iterations: int = 500
    jacobian_method: str = "auto"


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


def fit(
    model: Model,
    dataset: Dataset,
    start,
    mask: ParameterMask | None = None,
    options: FitOptions | None = None,
) -> EstimateResult:
    """Minimise S(theta) over the free parameters with scipy's ``trf`` solver.

    One ``least_squares(method="trf")`` call on the free sub-vector: box
    bounds, residuals f(theta) - y stacked over replicates, and the model's
    own sensitivity route as the Jacobian.  On the forward-ODE route one
    integration of the augmented system gives both: a residual evaluation
    keeps its sensitivities for a Jacobian at the same point.
    ``gradient_tol``, ``step_tol`` and ``max_iterations`` are its ``gtol``,
    ``xtol`` and ``max_nfev``; ``ftol`` is off.  ``iterations`` is its
    ``njev``: one Jacobian per iteration, the start's included.  Status 1 is
    ``small-gradient`` (trf scales the gradient by the distance to the bound it
    points at, so optima on a bound end here), status 2-4 ``small-step``, or
    ``boundary`` with a bound active, and status 0 ``max-iter`` with
    ``converged=False``.

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
    try:
        sol = least_squares(
            residuals, theta[free], jac=jacobian, method="trf",
            bounds=(space.lower[free], space.upper[free]),
            gtol=opts.gradient_tol, xtol=opts.step_tol, ftol=None, max_nfev=opts.max_iterations,
        )
    except EvaluationError as exc:
        if best_theta is None:
            raise
        return result(best_theta, best_objective, False, MAX_ITER, failure=str(exc))
    theta_hat = at(sol.x)
    if not space.contains(theta_hat):
        if best_theta is None:  # the start, nudged off a bound, already broke an ordering
            residuals(theta[free])
        return result(best_theta, best_objective, False, BOUNDARY)
    objective = 0.5 * float(sol.fun @ sol.fun)
    if sol.status == 0:
        return result(theta_hat, objective, False, MAX_ITER)
    if sol.status == 1:
        return result(theta_hat, objective, True, SMALL_GRADIENT)
    return result(theta_hat, objective, True, BOUNDARY if np.any(sol.active_mask) else SMALL_STEP)


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
