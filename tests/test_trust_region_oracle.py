"""Bitwise oracle for the trust-region kernel behind :func:`identikit.fit`.

The reference below is the solver and the residual/Jacobian set-up as they
stood before the kernel was rewritten to make fewer numpy calls, copied
verbatim (only the parameter mask, since replaced by ``fit``'s ``fixed``, and the
route and budget options, since replaced by the model's own route and the
module's constants, are spelled out).  The
rewrite must do the same floating-point operations, so on every draw
:func:`identikit.fit` must hand its solver the same points, in the same order,
and get back the same bytes and status as the reference does.

The draws are derandomised by ``hypothesis`` so that a failure reproduces
exactly.
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit import estimation
from identikit.models import evaluate
from identikit.estimation import GRADIENT_TOL, STEP_TOL
from identikit.sensitivity import FORWARD_ODE, forward_ode_solve, resolve_method, sensitivity_matrix

ORACLE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the reference: the solver as it was, verbatim
# ---------------------------------------------------------------------------


def reference_solve_trust_region(fun, jac, x, lower, upper, gtol, xtol, max_nfev):
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
                alpha = reference_lm_parameter(suf, s, delta, alpha, full_rank)
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


def reference_lm_parameter(suf, s, delta, alpha, full_rank):
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


def reference_problem(model, dataset, start, fixed):
    """The residuals, Jacobian, start and box that ``fit`` handed the reference solver."""
    space = model.space
    start = space.require(start)
    pinned = np.isin(np.arange(start.size), list(fixed or {}))  # the mask's flags
    theta = start.copy()
    theta[pinned] = [fixed[i] for i in np.flatnonzero(pinned)]
    free = np.flatnonzero(~pinned)
    design = dataset.design
    y = dataset.observations.ravel()
    box = replace(model, space=replace(space, orderings=())) if space.orderings else model
    joint = resolve_method(model) == FORWARD_ODE
    solved = None

    def at(x):
        point = theta.copy()
        point[free] = x
        return point

    def residuals(x):
        nonlocal solved
        point = at(x)
        if joint:
            outputs, V = forward_ode_solve(box, design, point)
            solved = (point, V)
        else:
            outputs = evaluate(model, design, point, check_bounds=False)
        return np.repeat(outputs, design.replicates) - y

    def jacobian(x):
        point = at(x)
        if solved is not None and solved[0].tobytes() == point.tobytes():
            V = solved[1]
        else:
            V = sensitivity_matrix(box, design, point).values
        return np.repeat(V, design.replicates, axis=0)[:, free]

    return residuals, jacobian, theta[free], space.lower[free], space.upper[free]


# ---------------------------------------------------------------------------
# recording both sides
# ---------------------------------------------------------------------------


def recorded(fun, jac, calls):
    """fun and jac that log ("fun" | "jac", point bytes) in call order."""

    def logged_fun(x):
        calls.append(("fun", x.tobytes()))
        return fun(x)

    def logged_jac(x):
        calls.append(("jac", x.tobytes()))
        return jac(x)

    return logged_fun, logged_jac


def run(solver, fun, jac, x0, lower, upper, budget):
    """The solver's (x, f, status) and a record of it: (x bytes, f bytes, status) and
    the calls, or the evaluation error and the calls up to it."""
    calls = []
    logged_fun, logged_jac = recorded(fun, jac, calls)
    try:
        out = solver(logged_fun, logged_jac, x0, lower, upper, GRADIENT_TOL, STEP_TOL, budget)
    except ik.EvaluationError as exc:
        return exc, (("raised", str(exc)), calls)
    x, f, status = out
    return out, ((x.tobytes(), f.tobytes(), status), calls)


def kernel_runs_of_fit(model, dataset, start, fixed, budget):
    """The record of every solver run inside ``ik.fit`` with ``budget`` evaluations, as
    :func:`run` gives it, and the fit."""
    runs = []
    kernel = estimation._solve_trust_region

    def spy(fun, jac, x0, lower, upper, gtol, xtol, max_nfev):
        assert (gtol, xtol, max_nfev) == (GRADIENT_TOL, STEP_TOL, budget)
        out, record = run(kernel, fun, jac, x0, lower, upper, budget)
        runs.append(record)
        if isinstance(out, ik.EvaluationError):
            raise out
        return out

    with mock.patch.object(estimation, "_solve_trust_region", spy), \
            mock.patch.object(estimation, "MAX_EVALUATIONS", budget):
        try:
            result = ik.fit(model, dataset, start, fixed)
        except ik.EvaluationError as exc:
            result = exc
    return runs, result


# ---------------------------------------------------------------------------
# the draws
# ---------------------------------------------------------------------------

MODELS = {
    "linear": (ik.get_model("linear"), [0.0, 1.0, 2.0, 3.0]),
    "biexponential": (ik.get_model("biexponential"), [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
    "biexponential-ordered": (ik.get_model("biexponential", ordered=True), [0.25, 0.5, 1.0, 2.0, 3.0]),
    "redundant-exponential": (ik.get_model("redundant-exponential"), [0.0, 0.6, 1.2, 1.8, 2.4, 3.0]),
    "reciprocal": (ik.get_model("reciprocal"), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    "logistic": (ik.get_model("logistic"), [0.5, 1.0, 2.0, 4.0, 6.0, 10.0]),
}


@st.composite
def problems(draw):
    """A model, a data set on it, a start (each entry interior or on a bound), an
    optional profiled parameter held fixed, and a full or a 1-3 evaluation budget."""
    name = draw(st.sampled_from(sorted(MODELS)))
    model, times = MODELS[name]
    space = model.space
    p = space.dimension
    width = space.upper - space.lower
    fractions = st.lists(st.floats(0.02, 0.98), min_size=p, max_size=p)
    theta_true = space.lower + np.array(draw(fractions)) * width
    if space.orderings:
        theta_true = np.sort(theta_true)[::-1]
    assume(space.contains(theta_true))
    replicates = draw(st.sampled_from([1, 1, 2]))
    design = ik.Design(np.array(times), draw(st.sampled_from([0.01, 0.05])), replicates)
    dataset = ik.generate_data(model, design, theta_true,
                               seed=draw(st.integers(0, 2**16)))
    where = st.sampled_from(["interior", "interior", "lower", "upper"])
    start = space.lower + np.array(draw(fractions)) * width
    for i in range(p):
        side = draw(where)
        if side != "interior":
            start[i] = getattr(space, side)[i]
    assume(space.contains(start))
    fixed = None
    if p > 1 and draw(st.booleans()):
        index = draw(st.integers(0, p - 1))
        fixed = {index: float(start[index])}
    budget = draw(st.sampled_from([1, 2, 3, 500, 500, 500]))
    return name, model, dataset, start, fixed, budget


@ORACLE_SETTINGS
@given(problem=problems())
def test_fit_drives_its_solver_bit_for_bit_as_the_reference(problem):
    name, model, dataset, start, fixed, budget = problem
    runs, result = kernel_runs_of_fit(model, dataset, start, fixed, budget)
    if isinstance(result, ik.EvaluationError) and not runs:
        return  # raised at the first evaluation, before the solver ran
    assert len(runs) == 1, name
    new, new_calls = runs[0]
    fun, jac, x0, lower, upper = reference_problem(model, dataset, start, fixed)
    _, (expected, expected_calls) = run(reference_solve_trust_region, fun, jac, x0, lower, upper, budget)
    assert new_calls == expected_calls, name
    assert new == expected, name
    assert len([c for c in new_calls if c[0] == "fun"]) <= budget
    if fixed is None and not isinstance(result, ik.EvaluationError):
        with mock.patch.object(estimation, "MAX_EVALUATIONS", budget):
            masked = ik.fit(model, dataset, start, fixed={})
        for field in ("theta", "objective", "sigma2", "converged", "iterations", "reason", "start"):
            assert np.asarray(getattr(result, field)).tobytes() == np.asarray(getattr(masked, field)).tobytes()


def test_every_case_is_drawn():
    """The draws above reach every model, a fixed parameter, two replicates, a start
    on a bound and each short budget."""
    seen = set()

    @ORACLE_SETTINGS
    @given(problem=problems())
    def collect(problem):
        name, model, dataset, start, fixed, budget = problem
        space = model.space
        seen.add(name)
        seen.add("mask" if fixed is not None else "no mask")
        seen.add(f"replicates {dataset.design.replicates}")
        seen.add(f"budget {budget}")
        if np.any((start == space.lower) | (start == space.upper)):
            seen.add("on a bound")

    collect()
    assert set(MODELS) | {"mask", "no mask", "replicates 1", "replicates 2", "on a bound",
                          "budget 1", "budget 2", "budget 3", "budget 500"} <= seen


def test_repeated_multi_start_is_bitwise_equal_around_a_fit_of_another_size():
    """No state outlives a solver run: a fit with another parameter count in between
    leaves a repeated multi-start fit equal byte for byte."""
    biexp, times = MODELS["biexponential"]
    data = ik.generate_data(biexp, ik.Design(np.array(times), 0.05), [2.0, 1.0], seed=11)
    redundant, times3 = MODELS["redundant-exponential"]
    data3 = ik.generate_data(redundant, ik.Design(np.array(times3), 0.05), [1.0, -0.5, 0.5], seed=11)

    def fields(results):
        return [(r.theta.tobytes(), r.start.tobytes(), r.objective, r.sigma2, r.converged,
                 r.iterations, r.reason) for r in results]

    first = fields(ik.multi_start_fit(biexp, data, 6, seed=3))
    ik.fit(redundant, data3, [2.0, 0.3, -1.0])
    ik.fit(MODELS["reciprocal"][0], ik.generate_data(
        MODELS["reciprocal"][0], ik.Design(np.arange(1.0, 7.0), 0.1, 2), [0.5], seed=1), [40.0])
    assert fields(ik.multi_start_fit(biexp, data, 6, seed=3)) == first


def test_norm_and_clip_helpers_are_numpys_bit_for_bit():
    """The kernel's scalar stand-ins equal numpy's own results, bits and type: a norm
    summed any other way than numpy's dot, or a clip with other tie or NaN rules, fails."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a = rng.normal(size=rng.integers(1, 15)) * 10.0 ** rng.integers(-8, 8)
        expected, got = np.linalg.norm(a), estimation._norm(a)
        assert type(got) is type(expected) and got.tobytes() == expected.tobytes()
    bounds = [-0.0, 0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, 5e-324, -5e-324]
    for value, low, high in itertools.product(bounds + [np.nan], bounds, bounds):
        expected = np.clip(np.array([value]), np.array([low]), np.array([high]))
        assert np.array([estimation._clip(value, low, high)]).tobytes() == expected.tobytes()
