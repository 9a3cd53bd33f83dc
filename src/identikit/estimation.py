"""Least-squares parameter estimation.

:func:`fit` runs every model, linear ones included, through a bounded
trust-region Levenberg-Marquardt solver with Coleman-Li scaling (the affine
scaling of scipy's ``trf``; Coleman & Li 1996, Branch, Coleman & Li 1999),
written in numpy for the few free parameters, with Latin-hypercube
multi-start.  Every fit ends with one of four reasons (see :func:`fit`).  The
objective throughout is S(theta) = 0.5 * ||y - f(theta)||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .models import Dataset, EvaluationError, Model, OutOfBoundsError, _checked, _integer, _outputs
from .sensitivity import ANALYTIC, FORWARD_ODE, _matrix, forward_ode_solve, resolve_method, sensitivity_matrix

SMALL_GRADIENT = "small-gradient"
SMALL_STEP = "small-step"
MAX_ITER = "max-iter"
BOUNDARY = "boundary"
NOT_RUN = "not-run"  # a multi-start start that was never fitted; see multi_start_fit
GRADIENT_TOL = 1e-8
STEP_TOL = 1e-10
MAX_EVALUATIONS = 500  # residual evaluations per fit
_EPS = np.finfo(float).eps
_SVD = getattr(_umath_linalg, "svd_s", None) or _umath_linalg.svd_n_s  # see _svd


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


def _norm(a) -> np.float64:  # np.linalg.norm of a contiguous 1-D float array: its sqrt(a.dot(a))
    return np.float64(math.sqrt(a.dot(a)))


def _svd_failed(error, flag):
    raise LinAlgError("SVD did not converge")


def _svd(a):
    """np.linalg.svd(a, full_matrices=False) of a tall float a: the gufunc it calls, ``svd_s`` on numpy
    >= 2 and ``svd_n_s`` on 1.26 (private to numpy, see README "Dependencies"), in its errstate."""
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _SVD(a, signature="d->ddd")


def _clip(value: float, low: float, high: float) -> float:  # np.clip's: NaN passes, a tie gives the bound
    value = value if value > low or value != value else low
    return value if value < high or value != value else high


def _divide(a: float, b: float) -> float:  # numpy's: a zero divisor gives inf or NaN (with its warning)
    return a / b if b else float(np.divide(a, b))


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

    With so few parameters numpy's per-call cost outweighs the arithmetic, so p-vector
    elementwise work runs on Python floats, the same IEEE operations, and array work
    calls array methods (``a.sum()``) and the SVD gufunc (:func:`_svd`), not the ``np.*``
    wrappers.  Two traps move the last digits: ``a.sum()`` (pairwise) and ``a.dot(a)``
    (BLAS, as in ``np.linalg.norm``) round differently, and so does ``J.T @ f`` on a
    C-contiguous J against the F-contiguous copy that ``fit``'s ``[:, free]`` makes.
    A run with one free parameter goes to :func:`_solve_one`, the same loop on floats.
    """
    if x.size == 1:
        return _solve_one(fun, jac, x, lower, upper, gtol, xtol, max_nfev)
    lo, hi = lower.tolist(), upper.tolist()
    x = np.array([_clip(xi, l + 1e-10 * max(1.0, abs(l)), u - 1e-10 * max(1.0, abs(u)))
                  for xi, l, u in zip(x.tolist(), lo, hi)])
    inside = [(math.nextafter(l, u), math.nextafter(u, l)) for l, u in zip(lo, hi)]
    f, J = fun(x), jac(x)
    n, k, nfev, status = f.size, x.size, 1, None
    cost, g = 0.5 * float(f @ f), J.T @ f
    augmented = np.zeros((n + k, k))  # [J D; sqrt(C)], refilled for each step's SVD
    diagonal = augmented.reshape(-1)[n * k :: k + 1]  # a view of the diagonal of sqrt(C)

    def scaling(x, g):
        return [u - xi if gi < 0 else xi - l if gi > 0 else 1.0
                for xi, gi, l, u in zip(x.tolist(), g.tolist(), lo, hi)]

    def to_bound(p):  # the multiple of p that reaches the first bound
        return min([(u - xi) / pi if pi > 0 else (l - xi) / pi if pi < 0 else math.inf
                    for xi, pi, l, u in zip(x.tolist(), p.tolist(), lo, hi)])

    def model(p_h):  # the quadratic model's change along the scaled step p_h
        return 0.5 * (((J_h @ p_h) ** 2).sum() + p_h @ (c * p_h)) + g_h @ p_h

    delta = float(_norm(x / np.sqrt(scaling(x, g)))) or 1.0
    alpha = 0.0  # LM parameter, carried between subproblems
    while True:
        v = scaling(x, g)
        scaled = [abs(gi * vi) for gi, vi in zip(g.tolist(), v)]
        g_norm = math.nan if any(a != a for a in scaled) else max(scaled)  # np.max keeps NaN
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            return x, f, status or 0
        d, c = np.sqrt(v), np.abs(g)
        J_h, g_h = J * d, d * g
        augmented[:n], diagonal[:] = J_h, np.sqrt(c)
        U, s, Vt = _svd(augmented)
        suf = s * (U[:n].T @ f)
        full_rank = s[-1] > _EPS * n * s[0]
        gauss_newton = -Vt.T @ (suf / s**2) if full_rank else None
        back_off = max(0.995, 1.0 - g_norm)
        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            if gauss_newton is not None and _norm(gauss_newton) <= delta:
                p_h, alpha = gauss_newton, 0.0
            else:
                alpha = _lm_parameter(suf, s, delta, alpha, full_rank)
                p_h = -Vt.T @ (suf / (s**2 + alpha))
                p_h *= delta / _norm(p_h)
            cut = to_bound(d * p_h)
            if cut < 1.0:  # back off inside the box, or go along -g_h if the model prefers
                p_h = back_off * cut * p_h
                a_h = -g_h
                a_bound, a_radius = to_bound(d * a_h), delta / _norm(a_h)
                reach = back_off * a_bound if a_bound < a_radius else a_radius
                curvature = model(a_h) - g_h @ a_h  # model(t a_h) = curvature t^2 - |g_h|^2 t
                t = min(reach, 0.5 * (g_h @ g_h) / curvature) if curvature > 0 else reach
                if model(t * a_h) < model(p_h):
                    p_h = t * a_h
            p = d * p_h
            x_new = np.array([_clip(xi, *bounds) for xi, bounds in zip((x + p).tolist(), inside)])
            f_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(f_new @ f_new)
            reduction, predicted = cost - cost_new, -model(p_h)
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            step_h_norm = float(_norm(p_h))
            new_delta = delta
            if ratio < 0.25:
                new_delta = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                new_delta = 2.0 * delta
            if _norm(p) < xtol * (xtol + _norm(x)):
                status = 3
                break
            alpha *= delta / new_delta
            delta = new_delta
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T @ f


def _solve_one(fun, jac, x, lower, upper, gtol, xtol, max_nfev):
    """:func:`_solve_trust_region` for one free parameter: the same IEEE operations in the
    same order, on Python floats.  Every product over the parameter axis has a single term,
    so it rounds once, as the float operation does.  Numpy stays where it decides the
    rounding: the SVD of the (n+1)x1 matrix, the n-row products ``J.T @ f``, ``U[:n].T @ f``
    and ``f @ f``, the model's pairwise sum and :func:`_lm_parameter`.  A norm is
    sqrt(a * a), numpy's dot, which overflows where abs(a) would not and is 0 below about
    1e-162, so a division by a norm goes through :func:`_divide`; ``0.0 - vt * q`` is
    ``-Vt.T @ q``, whose sum starts at +0, so a zero step is +0.  No other divisor can be 0:
    x stays strictly inside the box (``fit``'s Jacobian rejects a point outside), so v > 0,
    and a full-rank s^2 >= |g| > 0 while |g v| >= gtol.
    """
    (l,), (u,) = lower.tolist(), upper.tolist()
    x = _clip(x.item(), l + 1e-10 * max(1.0, abs(l)), u - 1e-10 * max(1.0, abs(u)))
    inside = math.nextafter(l, u), math.nextafter(u, l)
    x_array = np.array([x])
    f, J = fun(x_array), jac(x_array)
    n, nfev, status = f.size, 1, None
    cost, g = 0.5 * float(f @ f), (J.T @ f).item()
    augmented = np.zeros((n + 1, 1))  # [J d; sqrt(c)], refilled for each step's SVD
    J_h = augmented[:n, 0]
    rank_tol = float(_EPS * n)

    def scaling(x, g):
        return u - x if g < 0 else x - l if g > 0 else 1.0

    def to_bound(p):  # the multiple of p that reaches the bound
        return (u - x) / p if p > 0 else (l - x) / p if p < 0 else math.inf

    def model(p_h):  # the quadratic model's change along the scaled step p_h
        return 0.5 * (float(((J_h * p_h) ** 2).sum()) + p_h * (c * p_h)) + g_h * p_h

    q = x / math.sqrt(scaling(x, g))
    delta = math.sqrt(q * q) or 1.0
    alpha = 0.0  # LM parameter, carried between subproblems
    while True:
        v = scaling(x, g)
        g_norm = abs(g * v)
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            return x_array, f, status or 0
        d, c = math.sqrt(v), abs(g)
        g_h = d * g
        np.multiply(J[:, 0], d, out=J_h)
        augmented[n, 0] = math.sqrt(c)
        U, s, Vt = _svd(augmented)
        s0, vt = s.item(), Vt.item()
        suf = s0 * (U[:n].T @ f).item()
        full_rank = s0 > rank_tol * s0
        gauss_newton = 0.0 - vt * (suf / (s0 * s0)) if full_rank else None
        back_off = max(0.995, 1.0 - g_norm)
        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            if gauss_newton is not None and math.sqrt(gauss_newton * gauss_newton) <= delta:
                p_h, alpha = gauss_newton, 0.0
            else:
                alpha = _lm_parameter(np.array([suf]), s, delta, alpha, full_rank)
                p_h = 0.0 - vt * float(suf / (s0 * s0 + alpha))  # alpha is numpy's float
                p_h *= _divide(delta, math.sqrt(p_h * p_h))
            cut = to_bound(d * p_h)
            if cut < 1.0:  # back off inside the box, or go along -g_h if the model prefers
                p_h = back_off * cut * p_h
                a_h = -g_h
                a_bound, a_radius = to_bound(d * a_h), _divide(delta, math.sqrt(a_h * a_h))
                reach = back_off * a_bound if a_bound < a_radius else a_radius
                curvature = model(a_h) - g_h * a_h  # model(t a_h) = curvature t^2 - |g_h|^2 t
                t = min(reach, 0.5 * (g_h * g_h) / curvature) if curvature > 0 else reach
                if model(t * a_h) < model(p_h):
                    p_h = t * a_h
            p = d * p_h
            x_new = _clip(x + p, *inside)
            new_array = np.array([x_new])
            f_new = fun(new_array)
            nfev += 1
            cost_new = 0.5 * float(f_new @ f_new)
            reduction, predicted = cost - cost_new, -model(p_h)
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            step_h_norm = math.sqrt(p_h * p_h)
            new_delta = delta
            if ratio < 0.25:
                new_delta = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                new_delta = 2.0 * delta
            if math.sqrt(p * p) < xtol * (xtol + math.sqrt(x * x)):
                status = 3
                break
            alpha *= delta / new_delta
            delta = new_delta
        if reduction > 0:
            x, x_array, f, cost = x_new, new_array, f_new, cost_new
            J = jac(x_array)
            g = (J.T @ f).item()


def _lm_parameter(suf, s, delta, alpha, full_rank):
    """alpha with ||p(alpha)|| ~ delta for p(alpha) = -V (s uf / (s^2 + alpha)), by More's
    safeguarded Newton iteration on phi(alpha) = ||p(alpha)|| - delta, warm-started."""

    def phi(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -(suf**2 / denom**3).sum() / p_norm

    upper = _norm(suf) / delta
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


def _held(fixed: dict[int, float] | None, p: int) -> dict[int, float]:
    """``fixed`` or {}; raises ValueError naming a key that is not an int index in [0, p)."""
    fixed = fixed or {}
    for key in fixed:
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or not 0 <= key < p:
            raise ValueError(f"fixed key {key!r} is not a parameter index in [0, {p})")
    return fixed


def fit(
    model: Model,
    dataset: Dataset,
    start,
    fixed: dict[int, float] | None = None,
) -> EstimateResult:
    """Minimise S(theta) by a bounded trust-region solver, each ``fixed`` index held at its value.

    One :func:`_solve_trust_region` run on the free sub-vector: box bounds,
    residuals f(theta) - y stacked over replicates, and the model's own
    sensitivity route as the Jacobian.  It calls the model's ``f``, and its analytic ``jacobian``,
    itself, with the checks and messages of :func:`evaluate` and :class:`SensitivityMatrix` (each
    Jacobian point in the box); on the forward-ODE route one integration of the augmented system
    gives both, and a residual evaluation keeps its sensitivities for a Jacobian at the same point.
    A fit that holds nothing runs its solver directly on the parameter vector, with its Jacobian in
    the F-contiguous layout of a ``[:, free]`` copy, so the bytes are the same.  A ``fixed`` key
    that is not an int index in [0, p) raises ValueError.
    ``MAX_EVALUATIONS`` caps the residual evaluations, and ``iterations``
    counts Jacobians: one per accepted step, the start's included.  The run
    ends ``small-gradient`` when the gradient, scaled by the distance to the
    bound it points at, is below ``GRADIENT_TOL`` in max-norm (so optima on a
    bound end here); ``small-step`` on a step shorter than ``STEP_TOL`` (STEP_TOL
    + ||x||), or ``boundary`` if a free parameter is then within ``STEP_TOL``
    (relative) of a bound; and ``max-iter`` with ``converged=False`` when the
    budget is spent.

    The solver cannot express ordering constraints: it runs over the box,
    evaluating without the ordering check, and if it ends outside them the
    best admissible point it visited is returned, not converged, as
    ``boundary``.  An evaluation failure mid-run returns the best admissible
    point so far, not converged, as ``max-iter`` with the message in
    ``failure``; one at the first evaluation is raised.
    """
    space = model.space
    start = space.require(start)
    theta, fixed = start.copy(), _held(fixed, start.size)
    if fixed:
        theta[list(fixed)] = list(fixed.values())
        if not space.contains(theta):
            raise OutOfBoundsError("fixed parameters lie outside the admissible set")
    free = np.array([i for i in range(start.size) if i not in fixed], dtype=np.intp)
    design = dataset.design
    y = dataset.observations.ravel()
    box = replace(model, space=replace(space, orderings=())) if space.orderings else model
    route = resolve_method(model)
    best_theta, best_objective = None, np.inf
    jacobians = 0
    solved = None  # (point, sensitivities) of the last joint solve

    def at(x) -> np.ndarray:  # the point at the solver's iterate x: x itself if nothing is held
        if not fixed:
            return x
        point = theta.copy()
        point[free] = x
        return point

    def residuals(x) -> np.ndarray:
        nonlocal best_theta, best_objective, solved
        point = at(x)
        if route == FORWARD_ODE:
            outputs, V = forward_ode_solve(box, design, point)
            solved = (point, V)
        else:
            outputs = _outputs(model, design, point)
        r = (np.repeat(outputs, design.replicates) if design.replicates > 1 else outputs) - y
        objective = 0.5 * float(r @ r)
        # kept without orderings too: the solver's clip passes NaN, and a NaN point
        # can improve the objective of a model that is finite at NaN
        if objective < best_objective and space.contains(point):
            best_theta, best_objective = point, objective
        return r

    def jacobian(x) -> np.ndarray:
        nonlocal jacobians
        jacobians += 1
        point = at(x)
        if solved is not None and solved[0].tobytes() == point.tobytes():
            V = solved[1]  # bit for bit the point of the last residual evaluation
        elif route == ANALYTIC:  # sensitivity_matrix's checks, without its SensitivityMatrix
            V = _matrix(model.jacobian(design.time_points, box.space.require(point)))
        else:
            V = sensitivity_matrix(box, design, point).values
        V = np.repeat(V, design.replicates, axis=0) if design.replicates > 1 else V
        return V[:, free] if fixed else np.asfortranarray(V)  # the same bytes and layout either way

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
    x0, lower, upper = theta, space.lower, space.upper
    if fixed:
        x0, lower, upper = theta[free], lower[free], upper[free]
    try:
        x, r, status = _solve_trust_region(
            residuals, jacobian, x0, lower, upper, GRADIENT_TOL, STEP_TOL, MAX_EVALUATIONS,
        )
    except EvaluationError as exc:
        if best_theta is None:
            raise
        return result(best_theta, best_objective, False, MAX_ITER, failure=str(exc))
    theta_hat = at(x)
    if not space.contains(theta_hat):
        if best_theta is None:  # the start, nudged off a bound, already broke an ordering
            residuals(x0)
        return result(best_theta, best_objective, False, BOUNDARY)
    objective = 0.5 * float(r @ r)
    if status == 0:
        return result(theta_hat, objective, False, MAX_ITER)
    if status == 1:
        return result(theta_hat, objective, True, SMALL_GRADIENT)
    near = STEP_TOL * np.maximum(1.0, np.abs(np.concatenate([lower, upper])))
    on_bound = np.any(np.concatenate([x - lower, upper - x]) <= near)
    return result(theta_hat, objective, True, BOUNDARY if on_bound else SMALL_STEP)


MULTI_START_RULES = {"k_starts": _integer(1)}


def latin_hypercube_starts(model: Model, k_starts: int, seed: int) -> np.ndarray:
    """``k_starts`` (an integer >= 1) Latin-hypercube start points over the admissible box.

    The hypercube comes from a child generator spawned from
    ``default_rng(seed)``; rows violating ordering constraints are replaced
    by uniform redraws from the parent (:meth:`ParameterSpace.draw_feasible`),
    so every start is feasible.  The starts depend on numpy alone, not on
    scipy's ``QMCEngine`` seeding.
    """
    (k_starts,) = _checked(MULTI_START_RULES, k_starts=k_starts)
    space = model.space
    rng = np.random.default_rng(seed)
    lhs = rng.spawn(1)[0]
    jitter = lhs.uniform(size=(k_starts, space.dimension))
    strata = np.column_stack([lhs.permutation(k_starts) for _ in range(space.dimension)])
    unit = (strata + 1 - jitter) / k_starts
    starts = space.lower + unit * (space.upper - space.lower)
    for k in range(k_starts):
        if not space.contains(starts[k]):
            starts[k] = space.draw_feasible(lambda: rng.uniform(space.lower, space.upper))
    return starts


def multi_start_fit(model: Model, dataset: Dataset, k_starts: int, seed: int) -> list[EstimateResult]:
    """Independent fits from ``k_starts`` (an integer >= 1) Latin-hypercube starts, sorted by objective.

    Individual failures are flagged per start, never raised: a start whose first
    evaluation fails is not run, and is flagged ``not-run`` with the message in ``failure``.
    """
    (k_starts,) = _checked(MULTI_START_RULES, k_starts=k_starts)

    def run(start):
        try:
            return fit(model, dataset, start)
        except EvaluationError as exc:
            return EstimateResult(theta=start, objective=math.inf, sigma2=math.nan, converged=False,
                                  iterations=0, reason=NOT_RUN, start=start, failure=str(exc))

    return sorted((run(s) for s in latin_hypercube_starts(model, k_starts, seed)), key=lambda r: r.objective)


OBJECTIVE_CLUSTER_RTOL = 1e-4
PARAMETER_CLUSTER_RTOL = 1e-3


def cluster_optima(results: list[EstimateResult]) -> list[list[EstimateResult]]:
    """Group converged results into distinct optima.

    Two results belong together when both the objective and the parameter
    vector agree to ``OBJECTIVE_CLUSTER_RTOL`` and ``PARAMETER_CLUSTER_RTOL``
    (relative, with +1 guards so near-zero optima compare absolutely).
    """
    clusters: list[list[EstimateResult]] = []
    for res in sorted(results, key=lambda r: r.objective):
        if not res.converged:
            continue
        for cluster in clusters:
            rep = cluster[0]
            close_obj = abs(res.objective - rep.objective) <= OBJECTIVE_CLUSTER_RTOL * (1.0 + abs(rep.objective))
            scale = 1.0 + float(np.max(np.abs(rep.theta)))
            close_par = float(np.max(np.abs(res.theta - rep.theta))) <= PARAMETER_CLUSTER_RTOL * scale
            if close_obj and close_par:
                cluster.append(res)
                break
        else:
            clusters.append([res])
    return clusters
