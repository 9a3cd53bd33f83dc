"""Bitwise oracle for the trust-region kernel behind :func:`identikit.estimation.fit`.

The reference below is the solver and the residual/Jacobian set-up as they
stood before the kernel was rewritten to make fewer numpy calls, copied
verbatim (only the parameter mask, since replaced by the model that
:func:`identikit.models.restrict` makes, and the route and budget options, since
replaced by the model's own route and the module's constants, are spelled
out).  It has since gained the rule that, at a stop, lands a coordinate that
creeps toward a bound on that bound.  The rewrite
must do the same floating-point operations, so on every draw
:func:`identikit.estimation.fit` must hand its solver the same points, in the
same order, and get back the same bytes and status as the reference does.  A fit
that holds a parameter fits the restricted model, and the reference's mask then
runs over that model's box, where an ordering with a held member is a bound.  On
a space with orderings both run over the box, from a start anywhere in it.

``hypothesis`` draws the problems from one explicit seed with its example
database off, so that a failure reproduces exactly and the coverage test reads
the very draws the bitwise test runs.
"""

import inspect
import itertools
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import identikit as ik
from identikit import estimation
from identikit.estimation import GRADIENT_TOL, STEP_TOL, fit
from identikit.models import _outputs, restrict
from identikit.sensitivity import FORWARD_ODE, forward_ode_solve, resolve_method, sensitivity_matrix


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
        if status is not None:  # land the first coordinate that creeps toward a bound, if S falls
            for i in range(x.size):
                target = inside[1][i] if g[i] < 0 else inside[0][i]
                if not abs(g[i]) >= gtol or x[i] == target or nfev == max_nfev:
                    continue
                x_new = x.copy()
                x_new[i] = target
                f_new = fun(x_new)
                nfev += 1
                cost_new = 0.5 * float(f_new @ f_new)
                if cost_new < cost:
                    x, f, cost, status = x_new, f_new, cost_new, None
                    J = jac(x)
                    g = J.T @ f
                    break
            if status is None:
                continue
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
    """The residuals, Jacobian, start and box that ``fit`` hands the reference solver; with ``fixed``,
    the box is the restricted model's."""
    space = model.space
    box = replace(model, space=replace(space, orderings=())) if space.orderings else model
    start = box.space.require(start)
    pinned = np.isin(np.arange(start.size), list(fixed or {}))  # the mask's flags
    theta = start.copy()
    theta[pinned] = [fixed[i] for i in np.flatnonzero(pinned)]
    free = np.flatnonzero(~pinned)
    design = dataset.design
    y = dataset.observations.ravel()
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
            outputs = _outputs(model, design, point)
        return np.repeat(outputs, design.replicates) - y

    def jacobian(x):
        point = at(x)
        if solved is not None and solved[0].tobytes() == point.tobytes():
            V = solved[1]
        else:
            V = sensitivity_matrix(box, design, point).values
        return np.repeat(V, design.replicates, axis=0)[:, free]

    bounds = restrict(model, fixed).space if fixed else space
    return residuals, jacobian, theta[free], bounds.lower, bounds.upper


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
    """The record of every solver run inside ``fit`` with ``budget`` evaluations, as
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
            if fixed:
                result = fit(restrict(model, fixed), dataset, np.delete(start, list(fixed)))
            else:
                result = fit(model, dataset, start)
        except ik.EvaluationError as exc:
            result = exc
    return runs, result


BRANCHES = {  # a line of each branch of estimation._solve_one, by name
    "Gauss-Newton step": "p_h, alpha = gauss_newton, 0.0",
    "LM step": "alpha = _lm_parameter(",
    "cut at the bound": "p_h = back_off * cut * p_h",
    "landing on a bound": "x, x_array, f, cost, status = inside[g < 0]",
}
LANDING = {"landing on a bound": "x, f, cost, status = x_new, f_new, cost_new, None"}  # of _solve_trust_region


def branches_taken(call, kernel=None, branches=BRANCHES):
    """The names of the ``branches`` of ``kernel`` (``estimation._solve_one`` by default) that
    ``call()`` runs, by tracing the lines that run in it."""
    kernel = kernel or estimation._solve_one
    lines, first = inspect.getsourcelines(kernel)
    where = {first + i: name for i, line in enumerate(lines)
             for name, text in branches.items() if text in line}
    assert sorted(where.values()) == sorted(branches)
    code, taken = kernel.__code__, set()

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in where:
            taken.add(where[frame.f_lineno])
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return taken


# ---------------------------------------------------------------------------
# the draws
# ---------------------------------------------------------------------------

MODELS = {
    "linear": (ik.get_model("linear"), [0.0, 1.0, 2.0, 3.0]),
    "biexponential": (ik.get_model("biexponential"), [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
    "biexponential-ordered": (ik.get_model("biexponential", ordered=True), [0.25, 0.5, 1.0, 2.0, 3.0]),
    "redundant-exponential": (ik.get_model("redundant-exponential"), [0.0, 0.6, 1.2, 1.8, 2.4, 3.0]),
    "reciprocal": (ik.get_model("reciprocal"), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    # steep: Gauss-Newton's last steps can fall below STEP_TOL while the gradient is not small
    "reciprocal-steep": (ik.get_model("reciprocal", bounds=(1e-5, 1e-3)), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    "logistic": (ik.get_model("logistic"), [0.5, 1.0, 2.0, 4.0, 6.0, 10.0]),
}


@st.composite
def problems(draw):
    """A model, a truth and a data set on it, a start (each entry of truth and start
    interior or on a bound), an optional profiled parameter held fixed, and a full or a
    1-3 evaluation budget.  A truth on a bound puts the optimum outside the box for about
    half the noise draws, so some fits end on the bound."""
    name = draw(st.sampled_from(sorted(MODELS)))
    model, times = MODELS[name]
    space = model.space
    p = space.dimension
    width = space.upper - space.lower
    fractions = st.lists(st.floats(0.02, 0.98), min_size=p, max_size=p)
    where = st.sampled_from(["interior", "interior", "lower", "upper"])

    def point():
        theta = space.lower + np.array(draw(fractions)) * width
        for i in range(p):
            side = draw(where)
            if side != "interior":
                theta[i] = getattr(space, side)[i]
        return theta

    theta_true = point()
    if space.orderings:
        theta_true = np.sort(theta_true)[::-1]
    assume(space.contains(theta_true))
    replicates = draw(st.sampled_from([1, 1, 2]))
    design = ik.Design(np.array(times), draw(st.sampled_from([0.01, 0.05])), replicates)
    dataset = ik.generate_data(model, design, theta_true,
                               seed=draw(st.integers(0, 2**16)))
    start = point()  # anywhere in the box, as fit takes it on an ordered space too
    fixed = None
    if p > 1 and draw(st.booleans()):
        index = draw(st.integers(0, p - 1))
        fixed = {index: float(start[index])}
        assume(space.contains(start) and leaves_room(model, fixed))
    budget = draw(st.sampled_from([1, 2, 3, 500, 500, 500]))
    return name, model, dataset, start, fixed, budget


def leaves_room(model, fixed):
    """Whether ``restrict(model, fixed)`` leaves each free parameter an interval: a tie on a bound
    is admissible, but holding one member of an ordering there leaves the other a single value."""
    try:
        restrict(model, fixed)
    except ik.OutOfBoundsError:
        return False
    return True


def make_problem(name, truth, data_seed, noise_sd, start, fixed=None, budget=500, replicates=1):
    """One problem as :func:`problems` draws it."""
    model, times = MODELS[name]
    design = ik.Design(np.array(times), noise_sd, replicates)
    dataset = ik.generate_data(model, design, np.array(truth), seed=data_seed)
    return name, model, dataset, np.array(start), fixed, budget


# one explicit seed and no example database, so the draws stay put when a test's source
# changes; test_every_case_is_drawn reads these very draws.  The examples are cases that
# some seeds do not draw: a one-parameter stop on a short step, a one-parameter landing on
# a bound, a held rate on the ordered space, and an ordered fit with nothing held.
@seed(1)
@settings(max_examples=200, deadline=None, database=None)
@given(problem=problems())
@example(problem=make_problem("reciprocal-steep", [2.98e-05], 0, 0.01, [2.98e-05], budget=3, replicates=2))
@example(problem=make_problem("reciprocal", [0.01], 0, 0.05, [3.0]))
@example(problem=make_problem("biexponential-ordered", [9.646094736297545, 0.01], 15046, 0.05,
                              [5.005, 0.2843227947538589], fixed={0: 5.005}, budget=3))
@example(problem=make_problem("biexponential-ordered", [2.0, 1.0], 11, 0.05, [5.0, 0.5]))
def test_fit_drives_its_solver_bit_for_bit_as_the_reference(problem):
    check_fit_against_the_reference(problem)


def check_fit_against_the_reference(problem):
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


def test_every_case_is_drawn():
    """The draws above reach every model, a fixed parameter, two replicates, a start
    on a bound and each short budget, fits with nothing held and fits with a held
    parameter on spaces with and without orderings, and with one free parameter (the
    solver's float path) both kinds of step and every status.

    They never reach that path's cut of a step that would leave the box.  In one
    dimension the scaled Gauss-Newton step -v g / (v J'J + |g|) is shorter than the
    distance v to the bound it heads for, and the LM step is shorter still, so only
    rounding can make the cut, and its error in g is at most about eps |J| |f|.  That
    must exceed v |J|^2 while |v g| <= v |J| |f| stays above GRADIENT_TOL, which takes
    a residual sum of squares |f|^2 above GRADIENT_TOL / eps, about 5e7.  The next test
    builds such problems.
    """
    drawn, seen, one_free = [], set(), []
    # the bitwise test's own run of its draws, each recorded instead of checked
    with mock.patch.object(sys.modules[__name__], "check_fit_against_the_reference", drawn.append):
        test_fit_drives_its_solver_bit_for_bit_as_the_reference()
    for problem in drawn:
        name, model, dataset, start, fixed, budget = problem
        space = model.space
        seen.add(name)
        seen.add("mask" if fixed is not None else "no mask")
        seen.add(("held" if fixed else "nothing held", "ordered" if space.orderings else "unordered"))
        seen.add(f"replicates {dataset.design.replicates}")
        seen.add(f"budget {budget}")
        if np.any((start == space.lower) | (start == space.upper)):
            seen.add("on a bound")
        if space.dimension - len(fixed or {}) == 1:
            one_free.append(problem)

    for _, model, dataset, start, fixed, budget in one_free:
        runs = []
        taken = branches_taken(lambda: runs.extend(kernel_runs_of_fit(model, dataset, start, fixed, budget)[0]))
        seen |= {f"one free: {branch}" for branch in taken}
        if runs and runs[0][0][0] != "raised":
            seen.add(f"one free: status {runs[0][0][2]}")
    assert set(MODELS) | {"mask", "no mask", "replicates 1", "replicates 2", "on a bound",
                          "budget 1", "budget 2", "budget 3", "budget 500"} <= seen
    assert set(itertools.product(["held", "nothing held"], ["ordered", "unordered"])) <= seen
    assert {"one free: status 0", "one free: status 1", "one free: status 3",
            "one free: Gauss-Newton step", "one free: LM step", "one free: landing on a bound"} <= seen


def test_one_free_parameter_cut_at_the_bound_is_bit_for_bit():
    """The float path's cut at the bound on problems built to reach it: a sensitivity far
    below the residuals, whose sum J'f cancels, in a wide box.  Both kernels must make
    the same calls and return the same bytes, and the cut must run."""
    rng = np.random.default_rng(1)
    taken = set()
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=n) * 10.0 ** rng.uniform(-25, -5)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(3, 8)
        width = 10.0 ** rng.uniform(0, 12)
        lower, upper = np.array([-width]), np.array([width * rng.uniform(0.1, 1.0)])
        x0 = np.array([rng.uniform(lower[0], upper[0])])

        def fun(x):
            return a * x[0] - y

        def jac(x):
            return a[:, None].copy()

        records = []
        taken |= branches_taken(lambda: records.append(
            run(estimation._solve_trust_region, fun, jac, x0, lower, upper, 50)[1]))
        assert records[0] == run(reference_solve_trust_region, fun, jac, x0, lower, upper, 50)[1]
    assert "cut at the bound" in taken


def test_landings_on_a_bound_are_bit_for_bit():
    """Fits to data whose larger rate lies on the bound 10, with both rates free, with the other held and on
    the ordered space: both kernels make the same calls and return the same bytes, and both kernels land a
    rate on the bound (which the random draws above do not always reach with more than one free parameter)."""
    rng = np.random.default_rng(3)
    taken = set()
    for seed in range(12):
        for name, fixed in (("biexponential", None), ("biexponential", {1: 1.0}), ("biexponential-ordered", None)):
            model, times = MODELS[name]
            dataset = ik.generate_data(model, ik.Design(np.array(times), 0.05), [10.0, 1.0], seed=seed)
            start = np.array([rng.uniform(2.0, 9.0), rng.uniform(0.1, 1.9)])
            runs = []
            taken |= branches_taken(lambda: runs.extend(kernel_runs_of_fit(model, dataset, start, fixed, 500)[0]))
            taken |= {f"{len(start) - len(fixed or {})} free: {branch}" for branch in branches_taken(
                lambda: kernel_runs_of_fit(model, dataset, start, fixed, 500), estimation._solve_trust_region,
                LANDING)}
            fun, jac, x0, lower, upper = reference_problem(model, dataset, start, fixed)
            assert runs == [run(reference_solve_trust_region, fun, jac, x0, lower, upper, 500)[1]]
    assert {"landing on a bound", "2 free: landing on a bound"} <= taken


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
    fit(redundant, data3, [2.0, 0.3, -1.0])
    fit(MODELS["reciprocal"][0], ik.generate_data(
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
