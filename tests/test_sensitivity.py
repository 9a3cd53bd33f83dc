"""Finite-difference, forward-ODE, and analytic sensitivity routes."""

import importlib.machinery
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import odeint

import identikit as ik
from oracles import cross_check, relative_difference

LOGISTIC_TIMES = np.array(json.loads(
    (Path(__file__).parents[1] / "bench" / "configs" / "logistic_ode.json").read_text()
)["design"]["times"], dtype=float)


def interior_points(space, count, seed, inset=0.05):
    rng = np.random.default_rng(seed)
    span = space.upper - space.lower
    pts = []
    while len(pts) < count:
        theta = space.lower + (inset + (1 - 2 * inset) * rng.random(space.dimension)) * span
        if space.contains(theta):
            pts.append(theta)
    return pts


def fd_columns_reference(model, design, theta):
    """The finite-difference Jacobian column by column, one evaluation per point."""
    theta = np.asarray(theta, dtype=float)
    h = ik.sensitivity.default_step(theta)
    cols, one_sided, base = [], [], None
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h[j]
        dn[j] -= h[j]
        up_ok, dn_ok = model.space.contains(up), model.space.contains(dn)
        if up_ok and dn_ok:
            cols.append((ik.evaluate(model, design, up) - ik.evaluate(model, design, dn)) / (2 * h[j]))
        else:
            base = ik.evaluate(model, design, theta) if base is None else base
            side, sign = (up, 1.0) if up_ok else (dn, -1.0)
            cols.append(sign * (ik.evaluate(model, design, side) - base) / h[j])
            one_sided.append(j)
    return np.column_stack(cols), tuple(one_sided)


class TestFdJacobian:
    def test_reciprocal_derivative(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([1.0]), 0.1)
        fd = ik.fd_jacobian(model, design, [2.0])
        assert abs(fd.values[0, 0] - (-0.25)) < 1e-6
        assert fd.method == "finite-difference"

    def test_linear_jacobian_is_design_matrix(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0) ** 2 / 10])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(6.0), 0.1)
        fd = ik.fd_jacobian(model, design, [0.5, -1.0, 2.0])
        np.testing.assert_allclose(fd.values, X, rtol=0, atol=1e-9)

    def test_biexponential_equal_columns_at_symmetric_point(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.25, 3.0, 6), 0.1)
        fd = ik.fd_jacobian(model, design, [1.0, 1.0])
        np.testing.assert_allclose(fd.values[:, 0], fd.values[:, 1], atol=1e-8)

    def test_matches_analytic_on_all_builtins(self):
        # every registered analytic Jacobian, 20 random interior points each
        for model in ik.builtin_registry():
            if model.jacobian is None:
                continue
            times = np.arange(4.0) if model.name == "linear" else np.linspace(0.1, 3.0, 6)
            design = ik.Design(times, 0.1)
            for theta in interior_points(model.space, 20, seed=7):
                fd = ik.fd_jacobian(model, design, theta)
                analytic = ik.sensitivity_matrix(model, design, theta)
                assert analytic.method == "analytic"
                assert relative_difference(fd.values, analytic.values) < 1e-5

    def test_one_sided_fallback_at_boundary(self):
        model = ik.get_model("biexponential")  # box [0.01, 10]^2
        design = ik.Design(np.array([0.5, 1.0]), 0.1)
        fd = ik.fd_jacobian(model, design, [0.01, 5.0])
        assert fd.one_sided == (0,)
        analytic = ik.sensitivity_matrix(model, design, [0.01, 5.0])
        assert analytic.method == "analytic"
        assert relative_difference(fd.values, analytic.values) < 1e-4

    @pytest.mark.parametrize("model", ik.builtin_registry() + [ik.biexponential_model(ordered=True)],
                             ids=lambda m: f"{m.name}-{len(m.space.orderings)}")
    def test_batched_columns_match_column_by_column(self, model):
        # interior points, box corners (every column one-sided), the boundary
        # case above, and a point just inside an ordering
        times = np.arange(4.0) if model.name == "linear" else np.array([0.5, 1.0, 2.0, 3.0])
        design = ik.Design(times, 0.1)
        lo, hi = model.space.lower, model.space.upper
        mixed = np.where(np.arange(lo.size) == 0, lo, hi)
        points = interior_points(model.space, 3, seed=1) + [lo, hi, mixed]
        if model.name == "biexponential":
            points += [np.array([0.01, 5.0]), np.array([1.0 + 1e-7, 1.0])]
        for theta in points:
            if not model.space.contains(theta):
                continue
            fd = ik.fd_jacobian(model, design, theta)
            values, one_sided = fd_columns_reference(model, design, theta)
            assert np.array_equal(fd.values, values), theta
            assert fd.one_sided == one_sided, theta

    def test_central_difference_error_is_second_order(self, monkeypatch):
        # halving h cuts the error ~4x while truncation dominates round-off
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([1.0]), 0.1)
        exact = -0.25
        err = {}
        for h in (2e-3, 1e-3):
            monkeypatch.setattr(ik.sensitivity, "default_step", lambda t, hh=h: np.full(1, hh))
            err[h] = abs(ik.fd_jacobian(model, design, [2.0]).values[0, 0] - exact)
        ratio = err[2e-3] / err[1e-3]
        assert 3.9 < ratio < 4.1


class TestForwardOde:
    def setup_method(self):
        self.model = ik.get_model("logistic")
        self.design = ik.Design(np.linspace(0.5, 5.0, 8), 0.1)

    def test_agrees_with_finite_differences(self):
        # finite differences are the oracle for the augmented-ODE route
        for theta in interior_points(self.model.space, 10, seed=11):
            fd = ik.fd_jacobian(self.model, self.design, theta)
            fo = ik.forward_ode_jacobian(self.model, self.design, theta)
            assert relative_difference(fd.values, fo.values) < 1e-4

    def test_initial_state_sensitivity_at_t0(self):
        design = ik.Design(np.array([0.0]), 0.1)
        fo = ik.forward_ode_jacobian(self.model, design, [1.0, 2.0, 0.5])
        np.testing.assert_allclose(fo.values[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_solve_gives_the_jacobian_and_the_outputs(self):
        for theta in interior_points(self.model.space, 20, seed=11):
            outputs, sens = ik.forward_ode_solve(self.model, self.design, theta)
            assert sens.tobytes() == ik.forward_ode_jacobian(self.model, self.design, theta).values.tobytes()
            assert relative_difference(outputs, ik.evaluate(self.model, self.design, theta)) <= 1e-9

    def test_augmented_matches_the_generic_formula_bitwise(self):
        # the explicit partials, combined as (dg/dx) @ s + dg/dtheta on arrays
        def reference(t, z, theta):
            x, s = z[:1], z[1:].reshape(1, 3)
            dgdx = np.array([[theta[0] * (1.0 - 2.0 * x[0] / theta[1])]])
            dgdtheta = np.array([[x[0] * (1.0 - x[0] / theta[1]), theta[0] * x[0] ** 2 / theta[1] ** 2, 0.0]])
            dx = np.array([theta[0] * x[0] * (1.0 - x[0] / theta[1])])
            return np.concatenate([dx, (dgdx @ s + dgdtheta).ravel()])

        generic = replace(self.model, ode=replace(self.model.ode, augmented=reference))
        for theta in interior_points(self.model.space, 20, seed=5):
            own = ik.forward_ode_jacobian(self.model, self.design, theta).values
            assert own.tobytes() == ik.forward_ode_jacobian(generic, self.design, theta).values.tobytes()

    def test_rhs_matches_an_array_returning_rhs_bitwise(self):
        # the plain-state route: the built-in rhs returns a list, this one an array of numpy scalars
        def reference(t, x, theta):
            return np.array([theta[0] * x[0] * (1.0 - x[0] / theta[1])])

        ode = replace(self.model.ode, rhs=reference)
        generic = replace(self.model, f=ode.outputs, ode=ode)
        for theta in interior_points(self.model.space, 20, seed=5):
            own = ik.evaluate(self.model, self.design, theta)
            assert own.tobytes() == ik.evaluate(generic, self.design, theta).tobytes()

    def test_requires_ode_partials(self):
        model = ik.get_model("reciprocal")
        with pytest.raises(ValueError):
            ik.forward_ode_jacobian(model, self.design, [1.0])

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError):
            ik.Design(np.array([]), 0.1)


def logistic_closed_form(theta, times):
    """x(t) = K x0 e^{rt} / (K + x0 (e^{rt} - 1)); complex theta gives complex-step derivatives."""
    r, k, x0 = theta
    growth = np.exp(r * times)
    return k * x0 * growth / (k + x0 * (growth - 1.0))


def logistic_points():
    space = ik.get_model("logistic").space
    return st.tuples(*(st.floats(lo, hi) for lo, hi in zip(space.lower, space.upper))).map(np.array)


def stiff_tracking_system():
    """x' = theta (cos t - x): tracking cos t at theta = 1e8 to t = 1000 takes LSODA
    more than its 500 steps."""
    return ik.OdeSystem(
        rhs=lambda t, x, theta: theta[0] * (np.cos(t) - x),
        augmented=lambda t, z, theta: np.array([
            theta[0] * (np.cos(t) - z[0]), -theta[0] * z[1] + (np.cos(t) - z[0])
        ]),
        initial=lambda theta: np.array([0.0]),
        initial_jac=lambda theta: np.array([[0.0]]),
    )


class TestLsoda:
    """Both ODE routes integrate with LSODA; accuracy and failures are checked here."""

    model = ik.get_model("logistic")
    design = ik.Design(LOGISTIC_TIMES, 0.02)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(logistic_points())
    def test_outputs_match_the_closed_form(self, theta):
        exact = logistic_closed_form(theta, LOGISTIC_TIMES)
        assert relative_difference(ik.evaluate(self.model, self.design, theta), exact) <= 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(logistic_points())
    def test_sensitivities_match_complex_step(self, theta):
        step = 1e-30
        exact = np.column_stack([
            logistic_closed_form(theta + 1j * step * e, LOGISTIC_TIMES).imag / step for e in np.eye(3)
        ])
        _, sens = ik.forward_ode_solve(self.model, self.design, theta)
        assert relative_difference(sens, exact) <= 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(logistic_points())
    def test_integrate_equals_public_odeint_bitwise(self, theta):
        ode, grid = self.model.ode, np.concatenate(([0.0], LOGISTIC_TIMES))
        x0 = ode.initial(theta)
        z0 = np.concatenate([x0, ode.initial_jac(theta).ravel()])
        for fun, start in ((ode.rhs, x0), (ode.augmented, z0)):
            ours = ode.integrate(fun, start, LOGISTIC_TIMES, theta)
            public = odeint(fun, start, grid, args=(theta,), tfirst=True, rtol=ode.rtol, atol=ode.atol)
            assert ours.tobytes() == public[1:].tobytes()

    def test_excess_work_message_equals_public_odeint(self):
        ode, theta = stiff_tracking_system(), np.array([1e8])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            odeint(ode.rhs, [0.0], [0.0, 1000.0], args=(theta,), tfirst=True, rtol=ode.rtol, atol=ode.atol)
        [public] = caught
        with pytest.raises(ik.EvaluationError) as ours:
            ode.integrate(ode.rhs, np.array([0.0]), np.array([1000.0]), theta)
        assert str(ours.value) == f"LSODA failed: {public.message}"

    @pytest.mark.parametrize("times", [[-1.0, 0.5, 1.0], [-1e-9], [0.5, 0.5], [1.0, 0.5]])
    def test_integrate_rejects_negative_or_unsorted_times(self, times):
        ode, theta = self.model.ode, np.array([1.0, 2.0, 0.1])
        with pytest.raises(ValueError, match="times must be (>= 0 for an ODE model|strictly increasing)"):
            ode.integrate(ode.rhs, ode.initial(theta), np.array(times), theta)

    def test_missing_lsoda_extension_is_an_import_error_naming_the_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        ik.models._scipy_extension.cache_clear()
        try:
            with pytest.raises(ImportError, match=r"integrate[/\\]_odepack with the suffixes \.missing"):
                ik.models._scipy_extension("integrate", "_odepack")
        finally:
            ik.models._scipy_extension.cache_clear()

    def test_excess_work_is_an_evaluation_error_without_warnings(self):
        ode = stiff_tracking_system()
        space = ik.ParameterSpace(np.array([1e7]), np.array([1e9]))
        model = ik.Model(name="stiff", space=space, f=ode.outputs, ode=ode)
        design = ik.Design(np.array([1000.0]), 0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ik.EvaluationError, match="Excess work done"):
                ik.forward_ode_solve(model, design, [1e8])
            with pytest.raises(ik.EvaluationError):
                ik.evaluate(model, design, [1e8])
            assert np.isnan(ik.models.evaluate_batch(model, design, [[1e8]])).all()
        assert caught == []


class TestDispatcher:
    def test_auto_prefers_analytic(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.array([1.0]), 0.1)
        assert ik.sensitivity_matrix(model, design, [2.0, 1.0]).method == "analytic"

    def test_auto_uses_forward_ode_for_ode_models(self):
        model = ik.get_model("logistic")
        design = ik.Design(np.array([1.0]), 0.1)
        assert ik.sensitivity_matrix(model, design, [1.0, 1.0, 0.5]).method == "forward-ode"

    def test_cross_check_logistic(self):
        model = ik.get_model("logistic")
        design = ik.Design(np.linspace(0.5, 4.0, 6), 0.1)
        assert cross_check(model, design, [1.0, 2.0, 0.2]) < 1e-4


class TestAnalyticJacobians:
    """The built-in Jacobians give the values and the C-contiguous layout of the
    ``np.column_stack`` of their columns, so ``fit``'s ``[:, free]`` copy and the FIM's
    ``V.T @ V`` see the same bits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), data=st.data())
    def test_equal_the_column_stack_formulas_bitwise(self, n, data):
        times = np.sort(np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n,
                                                    unique=True))))

        def redundant(t, th):
            e = np.exp(th[1] * t + th[2])
            return np.column_stack([e, th[0] * t * e, th[0] * e])

        def biexponential(t, th):
            return np.column_stack([-t * np.exp(-th[0] * t), -t * np.exp(-th[1] * t)])

        for name, formula in (("biexponential", biexponential), ("redundant-exponential", redundant)):
            space = ik.get_model(name).space
            theta = np.array([data.draw(st.floats(lo, hi)) for lo, hi in zip(space.lower, space.upper)])
            ours, theirs = ik.get_model(name).jacobian(times, theta), formula(times, theta)
            assert ours.flags.c_contiguous and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
