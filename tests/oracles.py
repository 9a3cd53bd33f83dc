"""Oracles that only the tests use: the closed-form linear least-squares solution, a
cross-check of the finite-difference Jacobian against the model's other route, and the
exact profile interval ends of a one-parameter model by bisection."""

import numpy as np

from identikit.estimation import SMALL_GRADIENT, EstimateResult, log_likelihood
from identikit.models import evaluate
from identikit.sensitivity import fd_jacobian, forward_ode_jacobian, sensitivity_matrix


class UnidentifiableDesignError(ValueError):
    """The normal equations are singular; carries a null-space direction."""

    def __init__(self, message: str, null_direction: np.ndarray):
        super().__init__(message)
        self.null_direction = null_direction


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


def relative_difference(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Max-norm difference over max-norm of the reference, guarded against zero."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(candidate - reference)) / (np.max(np.abs(reference)) + 1e-12))


def cross_check(model, design, theta) -> float:
    """Relative disagreement between finite differences and the best other route.

    For ODE models compares against forward sensitivities, otherwise against
    the analytic Jacobian; raises if no second route exists.
    """
    fd = fd_jacobian(model, design, theta)
    if model.ode is not None:
        other = forward_ode_jacobian(model, design, theta)
    elif model.jacobian is not None:
        other = sensitivity_matrix(model, design, theta)
    else:
        raise ValueError(f"model {model.name} has only the finite-difference route")
    return relative_difference(fd.values, other.values)


def one_parameter_end(model, dataset, inside: float, outside: float, target: float) -> float | None:
    """The root of v(x) - ``target`` between ``inside`` (v >= target) and ``outside`` by bisection,
    or None if v(outside) >= target too, where v is the log-likelihood of the one-parameter
    ``model``: its profile, since no parameter is left to refit.  Bisects until the bracket
    stops shrinking in floating point."""
    y = dataset.observations.ravel()
    replicates = dataset.design.replicates

    def v(x: float) -> float:
        outputs = evaluate(model, dataset.design, [x])
        r = (np.repeat(outputs, replicates) if replicates > 1 else outputs) - y
        return log_likelihood(0.5 * float(r @ r), dataset.design.noise_sd)

    if v(inside) < target:
        raise ValueError("inside lies below the level")
    if v(outside) >= target:
        return None
    while (middle := 0.5 * (inside + outside)) not in (inside, outside):
        if v(middle) >= target:
            inside = middle
        else:
            outside = middle
    return inside
