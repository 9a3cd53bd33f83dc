"""Sensitivity matrices: output derivatives with respect to the parameters.

Three routes are available and cross-validated against each other: central
finite differences, forward sensitivity ODEs (for ODE models), and analytic
Jacobians where a model registers one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Design, EvaluationError, Model, all_finite, evaluate, evaluate_batch

FD = "finite-difference"
FORWARD_ODE = "forward-ode"
ANALYTIC = "analytic"


@dataclass(frozen=True, eq=False)
class SensitivityMatrix:
    """n-by-p Jacobian of the design outputs with respect to the parameters.

    ``one_sided`` lists columns where a central step would have left the
    admissible set and a one-sided difference was used instead.
    """

    values: np.ndarray
    theta: np.ndarray
    method: str
    one_sided: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", _matrix(self.values))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))


def _matrix(values) -> np.ndarray:
    """``values`` as floats; ValueError unless 2-D, EvaluationError unless finite (``fit``'s check too)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("sensitivity matrix must be 2-D")
    if not all_finite(values):
        raise EvaluationError("sensitivity matrix has non-finite entries")
    return values


def default_step(theta) -> np.ndarray:
    """h_j = cbrt(machine eps) * max(|theta_j|, 1), the standard central-difference scale."""
    theta = np.asarray(theta, dtype=float)
    return np.cbrt(np.finfo(float).eps) * np.maximum(np.abs(theta), 1.0)


def fd_jacobian(model: Model, design: Design, theta) -> SensitivityMatrix:
    """Central-difference Jacobian, all perturbed points evaluated in one batch.

    Columns whose +/- h step would exit the admissible set fall back to a
    one-sided difference against theta itself and are flagged.
    """
    theta = model.space.require(theta)
    h = default_step(theta)
    p = theta.size
    step = np.eye(p, dtype=bool)  # row j moves parameter j
    up, dn = np.where(step, theta + h, theta), np.where(step, theta - h, theta)
    up_ok = np.array([model.space.contains(x) for x in up], dtype=bool)
    dn_ok = np.array([model.space.contains(x) for x in dn], dtype=bool)
    stuck = np.flatnonzero(~(up_ok | dn_ok))
    if stuck.size:
        raise EvaluationError(f"cannot difference parameter {stuck[0]}: both steps leave the admissible set")
    central = up_ok & dn_ok
    one_sided = np.flatnonzero(~central)
    k = int(np.count_nonzero(central))
    sides = np.where(up_ok[:, None], up, dn)[one_sided]
    values = evaluate_batch(model, design, np.concatenate([up[central], dn[central], sides]))
    cols = np.empty((design.size, p))
    cols[:, central] = ((values[:k] - values[k : 2 * k]) / (2 * h[central, None])).T
    if one_sided.size:
        sign = np.where(up_ok, 1.0, -1.0)[one_sided, None]
        base = evaluate(model, design, theta)
        cols[:, one_sided] = (sign * (values[2 * k :] - base) / h[one_sided, None]).T
    return SensitivityMatrix(cols, theta, FD, tuple(one_sided.tolist()))


def forward_ode_solve(model: Model, design: Design, theta) -> tuple[np.ndarray, np.ndarray]:
    """Outputs (n,) and sensitivities (n, p) from one integration of ``ode.augmented``
    by LSODA, through :meth:`OdeSystem.integrate` (scipy's compiled binding, at most
    500 steps per output interval); a restricted model's keeps the free columns of the full system's.

    Raises :class:`EvaluationError` if it fails or any value is non-finite, and
    :class:`ValueError` if a design time is negative.
    """
    if model.ode is None:
        raise ValueError(f"model {model.name} has no ODE sensitivity system")
    theta, ode, times = model.space.require(theta), model.ode, design.time_points
    full, columns = ode.restriction or (np.asarray, slice(None))  # a restricted model's: the full system
    point = full(theta)
    x0 = np.asarray(ode.initial(point), dtype=float)
    s0 = np.asarray(ode.initial_jac(point), dtype=float)  # (d, p)
    z = ode.integrate(ode.augmented, np.concatenate([x0, s0.ravel()]), times, point)
    outputs, sens = z[:, 0], z[:, x0.size : x0.size + point.size][:, columns]  # output = first state
    bad = ~(np.isfinite(outputs) & np.all(np.isfinite(sens), axis=1))
    if np.any(bad):
        raise EvaluationError(f"model {model.name} non-finite at t={times[bad].tolist()}")
    return outputs, sens


def forward_ode_jacobian(model: Model, design: Design, theta) -> SensitivityMatrix:
    """Integrate state and sensitivity equations s' = (dg/dx) s + dg/dtheta jointly."""
    _, sens = forward_ode_solve(model, design, theta)
    return SensitivityMatrix(sens, np.asarray(theta, dtype=float), FORWARD_ODE)


def resolve_method(model: Model) -> str:
    """The model's own route: analytic if registered, else forward-ODE, else FD."""
    if model.jacobian is not None:
        return ANALYTIC
    return FORWARD_ODE if model.ode is not None else FD


def sensitivity_matrix(model: Model, design: Design, theta) -> SensitivityMatrix:
    """Jacobian by the model's own route; see :func:`resolve_method`."""
    method = resolve_method(model)
    if method == ANALYTIC:
        theta = model.space.require(theta)
        return SensitivityMatrix(model.jacobian(design.time_points, theta), theta, ANALYTIC)
    if method == FORWARD_ODE:
        return forward_ode_jacobian(model, design, theta)
    return fd_jacobian(model, design, theta)
