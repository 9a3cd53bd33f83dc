"""Closed-form and trust-region least squares, fixed parameters, multi-start."""

import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

import identikit as ik
from identikit import estimation
from identikit.models import _outputs
from identikit.sensitivity import resolve_method
from oracles import UnidentifiableDesignError, linear_least_squares


def make_linear(n=10, seed=4):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    model = ik.get_model("linear", design_matrix=X)
    design = ik.Design(np.arange(float(n)), 0.5)
    return X, model, design


class TestLinearLeastSquares:
    def test_identity(self):
        res = linear_least_squares(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(res.theta, [3.0, 4.0])
        assert res.converged

    def test_identical_columns_unidentifiable(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(UnidentifiableDesignError) as err:
            linear_least_squares(X, np.array([1.0, 2.0, 3.0]))
        direction = err.value.null_direction
        np.testing.assert_allclose(np.abs(direction), np.sqrt(0.5), rtol=1e-10)

    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 2))
        theta_star = np.array([1.0, 2.0])
        res = linear_least_squares(X, X @ theta_star)
        np.testing.assert_allclose(res.theta, theta_star, atol=1e-10)

    def test_sigma2_uses_dof_correction(self):
        # average of 2 S / (n - p) over replicate datasets estimates sigma^2
        X, model, design = make_linear()
        sigma = 0.5
        estimates = []
        for seed in range(1000):
            ds = ik.generate_data(model, design, [1.0, 2.0], seed=seed)
            estimates.append(linear_least_squares(X, ds.observations[:, 0]).sigma2)
        assert np.mean(estimates) == pytest.approx(sigma**2, rel=0.05)


class TestFit:
    def test_reciprocal_noiseless_recovery(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.05)
        data = ik.Dataset(design, ik.evaluate(model, design, [0.5])[:, None])
        res = ik.fit(model, data, [2.0])
        assert res.converged
        assert res.theta[0] == pytest.approx(0.5, abs=1e-6)

    def test_biexponential_converges_to_swapped_optimum(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        y = ik.evaluate(model, design, [2.0, 1.0])
        data = ik.Dataset(design, y[:, None])
        res = ik.fit(model, data, [0.9, 2.2])
        np.testing.assert_allclose(res.theta, [1.0, 2.0], atol=1e-6)
        swapped = ik.fit(model, data, [2.2, 0.9])
        assert abs(res.objective - swapped.objective) < 1e-8

    def test_mask_fixes_parameters(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        y = ik.evaluate(model, design, [2.0, 1.0])
        data = ik.Dataset(design, y[:, None])
        res = ik.fit(model, data, [0.5, 5.0], fixed={1: 1.0})
        assert res.theta[1] == 1.0
        assert res.theta[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("key", [-1, 2, 5, True, 1.0, "1"])
    def test_malformed_fixed_key_is_rejected_by_name(self, key):
        # -1 used to be dropped without a word, so both rates were fitted
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        data = ik.Dataset(design, ik.evaluate(model, design, [2.0, 1.0])[:, None])
        message = f"fixed key {re.escape(repr(key))} is not a parameter index in \\[0, 2\\)"
        with pytest.raises(ValueError, match=message):
            ik.fit(model, data, [0.5, 5.0], fixed={key: 1.0})

    def test_numpy_integer_fixed_key_is_an_index(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=1)
        a = ik.fit(model, data, [0.5, 5.0], fixed={np.int64(1): 1.0})
        b = ik.fit(model, data, [0.5, 5.0], fixed={1: 1.0})
        assert a.theta.tobytes() == b.theta.tobytes() and a.theta[1] == 1.0

    def test_fixed_value_outside_the_box_rejected(self):
        model = ik.get_model("biexponential")  # box [0.01, 10]^2
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=1)
        with pytest.raises(ik.OutOfBoundsError, match="fixed parameters"):
            ik.fit(model, data, [0.5, 5.0], fixed={1: 20.0})

    def test_all_fixed_mask_returns_objective_at_point(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.linspace(1.0, 10.0, 10), 0.05)
        data = ik.generate_data(model, design, [0.5], seed=1)
        res = ik.fit(model, data, [0.5], fixed={0: 0.7})
        assert res.converged and res.iterations == 0
        assert res.theta[0] == 0.7

    def test_start_outside_space_rejected(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([1.0]), 0.1)
        data = ik.generate_data(model, design, [1.0], seed=0)
        with pytest.raises(ik.OutOfBoundsError):
            ik.fit(model, data, [-3.0])

    def test_objective_never_exceeds_start(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.1)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            start = rng.uniform(0.05, 9.0, size=2)
            res = ik.fit(model, data, start)
            start_obj = 0.5 * np.sum(
                (data.observations[:, 0] - ik.evaluate(model, design, start)) ** 2
            )
            assert res.objective <= start_obj + 1e-12

    def test_gradient_small_at_interior_convergence(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.1)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=3)
        res = ik.fit(model, data, [3.0, 0.5])
        assert res.converged
        V = ik.sensitivity_matrix(model, design, res.theta).values
        residual = data.observations[:, 0] - ik.evaluate(model, design, res.theta)
        grad = V.T @ residual
        y_norm = np.max(np.abs(data.observations))
        assert np.max(np.abs(grad)) <= 1e-6 * (1.0 + y_norm)

    def test_agrees_with_closed_form_on_linear_models(self):
        X, model, design = make_linear()
        data = ik.generate_data(model, design, [1.0, 2.0], seed=5)
        closed = linear_least_squares(X, data.observations[:, 0])
        iterative = ik.fit(model, data, [0.0, 0.0])
        np.testing.assert_allclose(iterative.theta, closed.theta, atol=1e-8)

    def test_sigma2_reported(self):
        X, model, design = make_linear()
        data = ik.generate_data(model, design, [1.0, 2.0], seed=6)
        res = ik.fit(model, data, [0.0, 0.0])
        assert res.sigma2 == pytest.approx(2 * res.objective / (design.size - 2))


def objective_at(model, data, theta):
    residual = data.observations[:, 0] - _outputs(model, data.design, np.asarray(theta, dtype=float))
    return 0.5 * float(residual @ residual)


@st.composite
def solver_matrices(draw):
    """An (n + k) x k float matrix as the solver builds it for k = 1..3: n rows of J D over k
    diagonal rows; sometimes with a zero column, two equal columns, or all zeros."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    entries = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300, 1e300])
    a = np.zeros((n + k, k))
    a[:n] = np.reshape([draw(entries) for _ in range(n * k)], (n, k))
    a[n:][np.diag_indices(k)] = [abs(draw(entries)) for _ in range(k)]
    kind = draw(st.sampled_from(["full", "full", "zero column", "equal columns", "zeros"]))
    j = draw(st.integers(0, k - 1))
    if kind == "zero column":
        a[:, j] = 0.0
    elif kind == "equal columns":
        a[:, j] = a[:, 0]
    elif kind == "zeros":
        a[:] = 0.0
    return a


class TestSvdBinding:
    """The solver calls numpy's reduced-SVD gufunc directly; it must be the one that
    ``np.linalg.svd(a, full_matrices=False)`` calls, with the same bits out and the same error."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(a=solver_matrices())
    def test_equals_np_linalg_svd_bitwise(self, a):
        for ours, theirs in zip(estimation._svd(a), np.linalg.svd(a, full_matrices=False)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.strides == theirs.strides and ours.tobytes() == theirs.tobytes()

    def test_is_the_gufunc_np_linalg_svd_dispatches_to(self, monkeypatch):
        name, calls = estimation._SVD.__name__, []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return estimation._SVD(*args, **kwargs)

        assert getattr(_umath_linalg, name) is estimation._SVD
        monkeypatch.setattr(_umath_linalg, name, spy)
        np.linalg.svd(np.ones((5, 2)), full_matrices=False)
        assert calls == [(5, 2)]

    def test_nan_raises_lin_alg_error_and_inf_gives_the_same_nans(self):
        a = np.ones((5, 2))
        a[1, 0] = np.nan
        for svd in (estimation._svd, lambda a: np.linalg.svd(a, full_matrices=False)):
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                svd(a)
        a[1, 0] = np.inf  # LAPACK converges to NaNs, with no error and no warning
        ours, theirs = estimation._svd(a), np.linalg.svd(a, full_matrices=False)
        assert np.isnan(ours[1]).all() and [x.tobytes() for x in ours] == [x.tobytes() for x in theirs]


def ramp_problem():
    """f(t) = theta * t on [0, 10], non-finite above theta = 2; data from theta = 5."""

    def f(times, thetas):
        return np.where(thetas <= 2.0, times * thetas, np.nan)

    model = ik.Model(
        name="ramp", space=ik.ParameterSpace(np.array([0.0]), np.array([10.0])),
        f=f, jacobian=lambda times, theta: times[:, None],
    )
    design = ik.Design(np.linspace(1.0, 4.0, 4), 0.1)
    return model, ik.Dataset(design, (5.0 * design.time_points)[:, None])


class TestFitTermination:
    def test_exhausted_budget_is_max_iter(self, monkeypatch):
        X, model, design = make_linear()
        data = ik.Dataset(design, (X @ [20.0, 1.0])[:, None])
        monkeypatch.setattr(ik.estimation, "MAX_EVALUATIONS", 3)
        res = ik.fit(model, data, [0.0, 0.0])
        assert not res.converged and res.reason == "max-iter"
        assert res.iterations <= 3

    def test_iterations_count_jacobians(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.1)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=3)
        calls = []
        counted = replace(model, jacobian=lambda *a: calls.append(1) or model.jacobian(*a))
        res = estimation.fit(counted, data, [3.0, 0.5])
        assert res.iterations == len(calls) > 1

    # the second start sits on a bound; the solver nudges both coefficients to 1e-10,
    # which already breaks the ordering, so the start is the only admissible point
    @pytest.mark.parametrize("start", [[2.0, 0.0], [1e-11, 0.0]])
    def test_optimum_past_an_ordering_returns_best_admissible_point(self, start):
        X, model, design = make_linear()
        space = ik.ParameterSpace(np.zeros(2), np.full(2, 10.0), orderings=((0, 1),))
        ordered = replace(model, space=space)
        data = ik.Dataset(design, (X @ [1.0, 3.0])[:, None])
        res = ik.fit(ordered, data, start)
        assert not res.converged and res.reason == "boundary"
        assert space.contains(res.theta)
        assert res.objective == pytest.approx(objective_at(model, data, res.theta), rel=1e-12)
        assert res.objective <= objective_at(model, data, start)

    def test_optimum_on_a_bound_is_reached_not_stalled_beside_it(self):
        # the best point has rate2 on its upper bound; a step cut short at that bound
        # also stops rate1 unless the cut is weighed against a step along the gradient
        model = ik.get_model("biexponential")
        design = ik.Design(np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), 0.05)
        data = ik.generate_data(model, design, [6.0, 9.0], seed=11)
        res = ik.fit(model, data, [6.0, 9.25])
        pinned = ik.fit(model, data, res.theta, fixed={1: 10.0})
        assert res.converged and res.reason == "small-gradient"
        assert res.theta[1] == pytest.approx(10.0, abs=1e-9)
        assert res.objective <= pinned.objective * (1.0 + 1e-9)

    def test_evaluation_failure_returns_best_point_so_far(self):
        model, data = ramp_problem()
        with pytest.raises(ik.EvaluationError) as expected:
            ik.evaluate(model, data.design, [3.0])
        res = ik.fit(model, data, [0.5])
        assert not res.converged and res.reason == "max-iter"
        assert res.failure == str(expected.value) == "model ramp non-finite at t=[1.0, 2.0, 3.0, 4.0]"
        assert 0.5 < res.theta[0] <= 2.0
        assert res.objective == pytest.approx(objective_at(model, data, res.theta), rel=1e-12)

    def test_evaluation_failure_at_the_start_is_raised(self):
        model, data = ramp_problem()
        with pytest.raises(ik.EvaluationError):
            ik.fit(model, data, [3.0])


class TestSolverHandOff:
    """What ``fit`` hands its solver, on both of its paths: the parameter vector itself
    when nothing is held, the free sub-vector otherwise."""

    CASES = {  # model, truth, start, fixed
        "nothing held, one parameter": (ik.get_model("reciprocal"), [0.5], [2.0], None),
        "nothing held, two parameters": (ik.get_model("biexponential"), [2.0, 1.0], [0.9, 2.2], None),
        "nothing held, ordered": (ik.get_model("biexponential", ordered=True), [2.0, 1.0], [2.2, 0.9], {}),
        "one held, one free": (ik.get_model("biexponential"), [2.0, 1.0], [0.5, 5.0], {1: 1.0}),
        "one held, two free": (ik.get_model("redundant-exponential"), [1.0, -0.5, 0.5],
                               [2.0, 0.3, -1.0], {1: -0.5}),
    }

    @pytest.fixture(params=sorted(CASES))
    def spied_fit(self, request, monkeypatch):
        """The case's fit at 1 and 2 replicates, with counts of the model's own ``f`` and
        ``jacobian`` calls, the solver's calls and the reported iterations, and the layout
        of each Jacobian the solver got."""
        model, truth, start, fixed = self.CASES[request.param]
        assert resolve_method(model) == "analytic"
        counts = {"f": 0, "jacobian": 0, "fun": 0, "jac": 0, "iterations": 0}
        layouts = []

        def counted(name):
            def call(*args, _original=getattr(model, name)):
                counts[name] += 1
                return _original(*args)

            return call

        spied = replace(model, f=counted("f"), jacobian=counted("jacobian"))
        solve = estimation._solve_trust_region

        def spy(fun, jac, *args):
            def counted_fun(x):
                counts["fun"] += 1
                return fun(x)

            def counted_jac(x):
                counts["jac"] += 1
                J = jac(x)
                layouts.append(J.flags.f_contiguous)
                return J

            return solve(counted_fun, counted_jac, *args)

        monkeypatch.setattr(estimation, "_solve_trust_region", spy)
        for replicates in (1, 2):
            design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05, replicates)
            data = ik.generate_data(model, design, truth, seed=3)
            counts["iterations"] += ik.fit(spied, data, start, fixed).iterations
        return counts, layouts

    def test_one_evaluation_per_residual_and_one_sensitivity_per_jacobian(self, spied_fit):
        # fit calls the model's f and analytic Jacobian itself, once per solver call
        counts, _ = spied_fit
        assert counts["fun"] > 2 and counts["jac"] > 2
        assert counts["f"] == counts["fun"]
        assert counts["jacobian"] == counts["jac"] == counts["iterations"]

    def test_every_jacobian_is_f_contiguous(self, spied_fit):
        # J.T @ f rounds differently on a C-contiguous J (see _solve_trust_region)
        _, layouts = spied_fit
        assert layouts and all(layouts)


class TestDirectModelCalls:
    """``fit`` calls the model's ``f`` and analytic Jacobian itself, with the checks of
    ``evaluate`` and ``SensitivityMatrix``: each failure raises or is reported as they word it
    (a non-finite output mid-run: ``TestFitTermination``)."""

    @staticmethod
    def ramp(f=lambda times, thetas: times * thetas, **callables):
        """``ramp_problem`` with the given callables, its ``f`` finite everywhere by default."""
        model, data = ramp_problem()
        return replace(model, f=f, **callables), data

    def test_wrong_output_shape_is_raised(self):
        model, data = self.ramp(f=lambda times, thetas: times[None, 1:] * thetas)
        with pytest.raises(ik.EvaluationError) as expected:
            ik.evaluate(model, data.design, [0.5])
        with pytest.raises(ik.EvaluationError) as err:
            ik.fit(model, data, [0.5])
        assert str(err.value) == str(expected.value) == "model ramp returned shape (1, 3)"

    def test_non_finite_jacobian_mid_run_is_reported(self):
        model, data = self.ramp(jacobian=lambda times, theta: times[:, None] * (1.0 if theta[0] <= 2.0 else np.nan))
        with pytest.raises(ik.EvaluationError) as expected:
            ik.sensitivity_matrix(model, data.design, [3.0])
        res = ik.fit(model, data, [0.5])
        assert not res.converged and res.reason == "max-iter" and res.theta[0] > 0.5
        assert res.failure == str(expected.value) == "sensitivity matrix has non-finite entries"
        assert res.objective == pytest.approx(objective_at(model, data, res.theta), rel=1e-12)

    def test_one_dimensional_jacobian_is_raised(self):
        model, data = self.ramp(jacobian=lambda times, theta: times * theta[0])
        with pytest.raises(ValueError) as expected:
            ik.sensitivity_matrix(model, data.design, [0.5])
        with pytest.raises(ValueError) as err:
            ik.fit(model, data, [0.5])
        assert type(err.value) is type(expected.value) is ValueError
        assert str(err.value) == str(expected.value) == "sensitivity matrix must be 2-D"

    # the solver's clip lets NaN through; the Jacobian's box check rejects it, orderings aside
    @pytest.mark.parametrize("name, ordered", [("reciprocal", False), ("biexponential", True)])
    def test_nan_jacobian_point_is_out_of_bounds(self, monkeypatch, name, ordered):
        model, design = ik.get_model(name, **({"ordered": True} if ordered else {})), ramp_problem()[1].design
        box = replace(model, space=replace(model.space, orderings=()))
        nan = np.full(model.space.dimension, np.nan)
        with pytest.raises(ik.OutOfBoundsError) as expected:
            ik.sensitivity_matrix(box, design, nan)
        monkeypatch.setattr(estimation, "_solve_trust_region", lambda fun, jac, x, *args: jac(nan))
        truth = model.space.lower + np.arange(model.space.dimension, 0, -1)  # ordered, if it must be
        with pytest.raises(ik.OutOfBoundsError) as err:
            ik.fit(model, ik.generate_data(model, design, truth, seed=0), truth)
        assert str(err.value) == str(expected.value) and "orderings []" in str(err.value)


def decay_problem():
    """x' = -k x, x(0) = x0 as an ODE model whose augmented system is NaN above k = 1
    (after t = 0); noiseless data from (k, x0) = (2, 1)."""

    def augmented(t, z, theta):
        k = theta[0]
        x, s_k, s_x0 = z
        if k > 1.0 and t > 0.0:  # from t = 0 on: test_nan_from_the_start_fails_fast
            return np.full(3, np.nan)
        return np.array([-k * x, -k * s_k - x, -k * s_x0])

    ode = ik.OdeSystem(
        rhs=lambda t, x, theta: -theta[0] * x, augmented=augmented,
        initial=lambda theta: np.array([theta[1]]), initial_jac=lambda theta: np.array([[0.0, 1.0]]),
    )
    model = ik.Model(
        name="decay", space=ik.ParameterSpace(np.array([0.1, 0.1]), np.array([5.0, 5.0])),
        f=lambda times, thetas: thetas[:, 1:] * np.exp(-thetas[:, :1] * times), ode=ode,
    )
    design = ik.Design(np.linspace(0.5, 3.0, 6), 0.05)
    return model, ik.Dataset(design, np.exp(-2.0 * design.time_points)[:, None])


class TestForwardOdeRoute:
    """Fits of ODE models without an analytic Jacobian take residuals and
    Jacobian from one augmented integration per point."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from identikit import sensitivity

        counts = {"plain": 0, "augmented": 0, "fd": 0}
        integrate, fd_jacobian = ik.OdeSystem.integrate, sensitivity.fd_jacobian

        def counted_integrate(ode, fun, *args):
            counts["augmented" if fun is ode.augmented else "plain"] += 1
            return integrate(ode, fun, *args)

        def counted_fd(*args, **kwargs):
            counts["fd"] += 1
            return fd_jacobian(*args, **kwargs)

        monkeypatch.setattr(ik.OdeSystem, "integrate", counted_integrate)
        monkeypatch.setattr(sensitivity, "fd_jacobian", counted_fd)
        return counts

    @pytest.fixture
    def solver_runs(self, monkeypatch):
        from identikit import estimation

        runs = []
        solve = estimation._solve_trust_region

        def recorded(fun, jac, *args):
            run = SimpleNamespace(nfev=0, njev=0)
            runs.append(run)

            def counted_fun(x):
                run.nfev += 1
                return fun(x)

            def counted_jac(x):
                run.njev += 1
                return jac(x)

            return solve(counted_fun, counted_jac, *args)

        monkeypatch.setattr(estimation, "_solve_trust_region", recorded)
        return runs

    @staticmethod
    def logistic_data():
        model = ik.get_model("logistic")
        design = ik.Design(np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0]), 0.02)
        return model, ik.generate_data(model, design, [1.0, 2.0, 0.1], seed=11)

    def test_one_augmented_integration_per_residual(self, solves, solver_runs):
        model, data = self.logistic_data()
        solves["plain"] = 0  # generating the data integrated the state alone
        res = ik.fit(model, data, [2.0, 3.0, 0.5])
        (run,) = solver_runs
        assert res.converged and res.iterations == run.njev > 1
        assert solves["plain"] == 0
        assert 0 < solves["augmented"] <= run.nfev

    def test_finite_difference_option_keeps_the_plain_route(self, solves, solver_runs):
        # without its sensitivity system the model's own route is finite differences
        model, data = self.logistic_data()
        solves["plain"] = 0
        res = ik.fit(replace(model, ode=None), data, [2.0, 3.0, 0.5])
        (run,) = solver_runs
        assert res.converged
        assert solves["augmented"] == 0
        assert solves["fd"] == res.iterations == run.njev
        assert solves["plain"] >= run.nfev

    def test_failure_mid_run_returns_best_point_so_far(self):
        model, data = decay_problem()
        res = ik.fit(model, data, [0.5, 1.0])
        assert not res.converged and res.reason == "max-iter"
        assert res.failure
        assert 0.5 < res.theta[0] <= 1.0
        assert res.objective == pytest.approx(objective_at(model, data, res.theta), rel=1e-8)

    def test_failure_at_the_start_is_raised(self):
        model, data = decay_problem()
        with pytest.raises(ik.EvaluationError):
            ik.fit(model, data, [1.5, 1.0])

    def test_nan_from_the_start_fails_fast(self):
        # a right-hand side that is NaN at t = 0 once sent the integrator into an endless
        # loop, so the checks run in a child process that a timeout can stop
        probe = textwrap.dedent("""
            import numpy as np
            import identikit as ik
            from identikit.sensitivity import forward_ode_solve

            def rhs(t, x, theta):
                return np.full(1, np.nan) if theta[0] > 1.0 else -theta[0] * x

            def augmented(t, z, theta):
                k = theta[0]
                return np.full(3, np.nan) if k > 1.0 else np.array([-k * z[0], -k * z[1] - z[0], -k * z[2]])

            ode = ik.OdeSystem(rhs=rhs, augmented=augmented, initial=lambda theta: np.array([theta[1]]),
                               initial_jac=lambda theta: np.array([[0.0, 1.0]]))
            space = ik.ParameterSpace(np.array([0.1, 0.1]), np.array([5.0, 5.0]))
            model = ik.Model(name="decay", space=space, f=ode.outputs, ode=ode)
            design = ik.Design(np.linspace(0.5, 3.0, 6), 0.05)
            for call in (forward_ode_solve, ik.evaluate):
                try:
                    call(model, design, [1.5, 1.0])
                except ik.EvaluationError:
                    continue
                raise AssertionError(f"{call.__name__} did not raise")
            res = ik.fit(model, ik.Dataset(design, np.exp(-2.0 * design.time_points)[:, None]), [0.5, 1.0])
            assert res.reason == "max-iter" and res.failure, res
            print("ok")
        """)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n" and proc.stderr == ""


class TestMultiStart:
    def test_unimodal_problem_one_cluster(self):
        # linear model fitted through the nonlinear route is linear in disguise
        _, model, design = make_linear()
        data = ik.generate_data(model, design, [1.0, 2.0], seed=7)
        results = ik.multi_start_fit(model, data, 8, seed=0)
        assert [r.converged for r in results] == [True] * 8
        assert len(ik.cluster_optima(results)) == 1
        objectives = [r.objective for r in results]
        assert objectives == sorted(objectives)

    def test_biexponential_two_permutation_clusters(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        y = ik.evaluate(model, design, [2.0, 1.0])
        data = ik.Dataset(design, y[:, None])
        results = ik.multi_start_fit(model, data, 32, seed=0)
        clusters = ik.cluster_optima(results)
        assert len(clusters) == 2
        reps = sorted(c[0].theta.round(4).tolist() for c in clusters)
        assert reps == [[1.0, 2.0], [2.0, 1.0]]
        assert abs(clusters[0][0].objective - clusters[1][0].objective) < 1e-8

    def test_restricted_space_one_cluster(self):
        model = ik.get_model("biexponential", ordered=True)
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        unordered = ik.get_model("biexponential")
        y = ik.evaluate(unordered, design, [2.0, 1.0])
        data = ik.Dataset(design, y[:, None])
        results = ik.multi_start_fit(model, data, 32, seed=0)
        clusters = ik.cluster_optima(results)
        assert len(clusters) == 1
        np.testing.assert_allclose(clusters[0][0].theta, [2.0, 1.0], atol=1e-4)

    def test_start_whose_first_evaluation_fails_is_not_run(self):
        # the ramp is non-finite above theta = 2: such a start is never fitted, while a
        # start below it is fitted and ends max-iter at the first failure mid-run
        model, data = ramp_problem()
        results = ik.multi_start_fit(model, data, 8, 0)
        unrun = [r for r in results if r.start[0] > 2.0]
        assert unrun and len(unrun) < len(results), "the seed must give starts on both sides of 2"
        for r in results:
            if r.start[0] > 2.0:
                assert r.reason == "not-run" and not r.converged and r.iterations == 0
                assert r.objective == float("inf") and "non-finite" in r.failure
            else:
                assert r.reason == "max-iter" and r.iterations > 0 and r.objective < float("inf")

    def test_starts_feasible_and_deterministic(self):
        model = ik.get_model("biexponential", ordered=True)
        a = ik.latin_hypercube_starts(model, 16, seed=3)
        b = ik.latin_hypercube_starts(model, 16, seed=3)
        assert np.array_equal(a, b)
        assert all(model.space.contains(s) for s in a)

    @pytest.mark.parametrize("k_starts", [-1, 0, 2.5, True, "4"])
    def test_starts_take_the_multi_start_rule(self, k_starts):
        # -1 formerly failed inside numpy ("negative dimensions") and 2.5 with a TypeError
        with pytest.raises(ValueError, match="^k_starts must be an integer >= 1$"):
            ik.latin_hypercube_starts(ik.get_model("biexponential"), k_starts, seed=0)

    def test_thread_count_invariance(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.1)
        data = ik.generate_data(model, design, [2.0, 1.0], seed=1)
        first = ik.multi_start_fit(model, data, 8, seed=4)
        second = ik.multi_start_fit(model, data, 8, seed=4)
        for a, b in zip(first, second):
            assert np.array_equal(a.theta, b.theta)
            assert a.objective == b.objective

    def test_k_starts_validated(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([1.0]), 0.1)
        data = ik.generate_data(model, design, [1.0], seed=0)
        with pytest.raises(ValueError):
            ik.multi_start_fit(model, data, 0, seed=0)
