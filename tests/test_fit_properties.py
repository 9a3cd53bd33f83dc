"""Property tests of the nonlinear fit: idempotence, determinism, swap orbit, an
optimum on a bound reached, orderings kept and their edge reached, and a best
optimum at least as good as scipy's ``trf`` finds from the same starts.

Each property is drawn over data sets, true parameters and start points by
``hypothesis``; the draws are derandomised so a failure reproduces exactly.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import identikit as ik
from identikit.estimation import (GRADIENT_TOL, MAX_EVALUATIONS, SMALL_GRADIENT, STEP_TOL, fit,
                                  latin_hypercube_starts)
from identikit.models import _outputs, restrict
from identikit.sensitivity import sensitivity_matrix

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

BIEXP = ik.get_model("biexponential")
DESIGN = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)

rates = st.floats(0.2, 5.0)
starts = st.tuples(st.floats(0.05, 9.5), st.floats(0.05, 9.5))
seeds = st.integers(0, 2**16)


def _data(rate_a, rate_b, seed):
    return ik.generate_data(BIEXP, DESIGN, [rate_a, rate_b], seed=seed)


def _relative_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(a)))


@PROPERTY_SETTINGS
@given(rate_a=rates, rate_b=rates, seed=seeds, start=starts)
def test_refit_from_an_optimum_stays_there(rate_a, rate_b, seed, start):
    data = _data(rate_a, rate_b, seed)
    first = fit(BIEXP, data, start)
    if not first.converged:
        return
    again = fit(BIEXP, data, first.theta)
    assert again.converged
    assert _relative_gap(first.theta, again.theta) <= 1e-8
    assert again.objective <= first.objective * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(rate_a=rates, rate_b=rates, data_seed=seeds, start_seed=seeds)
def test_multi_start_is_deterministic_and_thread_invariant(rate_a, rate_b, data_seed, start_seed):
    data = _data(rate_a, rate_b, data_seed)
    runs = [ik.multi_start_fit(BIEXP, data, 4, seed=start_seed) for _ in range(3)]
    reference = runs[0]
    for other in runs[1:]:
        for a, b in zip(reference, other, strict=True):
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.start, b.start)
            assert a.objective == b.objective
            assert (a.converged, a.iterations, a.reason) == (b.converged, b.iterations, b.reason)


@PROPERTY_SETTINGS
@given(
    rate_a=st.floats(2.0, 5.0),
    rate_b=st.floats(0.2, 1.0),
    seed=seeds,
    start=starts.filter(lambda s: abs(s[0] - s[1]) > 0.5),
)
def test_mirrored_start_reaches_mirrored_optimum(rate_a, rate_b, seed, start):
    # f(t) is symmetric in the two rates, so the fit must commute with the swap
    data = _data(rate_a, rate_b, seed)
    res = fit(BIEXP, data, start)
    mirrored = fit(BIEXP, data, start[::-1])
    np.testing.assert_allclose(mirrored.theta, res.theta[::-1], rtol=1e-8, atol=1e-10)
    assert abs(mirrored.objective - res.objective) <= 1e-12 * res.objective
    assert (mirrored.converged, mirrored.reason) == (res.converged, res.reason)


@PROPERTY_SETTINGS
@given(rate=rates, seed=seeds, scale=st.floats(0.8, 1.25), start_b=st.floats(8.0, 9.99))
def test_an_optimum_on_a_bound_is_reached(rate, seed, scale, start_b):
    # data with rate_b on its upper bound 10: about half the noise draws put the optimum past the bound.  When
    # S still falls toward the bound at the best point on it, that point is the optimum in the box, and a fit
    # from near it lands there (before fits landed on a bound, they could stop 1e-6 short of it)
    data = _data(rate, 10.0, seed)
    on_bound = fit(restrict(BIEXP, {1: 10.0}), data, [rate])
    point = np.array([on_bound.theta[0], 10.0])
    residuals = _outputs(BIEXP, DESIGN, point) - data.observations.ravel()
    assume(on_bound.converged and (sensitivity_matrix(BIEXP, DESIGN, point).values.T @ residuals)[1] < 0)
    res = fit(BIEXP, data, [rate * scale, start_b])
    assert res.converged and res.reason == SMALL_GRADIENT
    assert 10.0 - res.theta[1] <= 1e-9
    assert res.objective <= on_bound.objective * (1.0 + 1e-9)


ORDERED = ik.get_model("biexponential", ordered=True)


@PROPERTY_SETTINGS
@given(rates=st.tuples(st.sampled_from([10.0, 9.99]) | st.floats(0.2, 10.0), st.floats(0.2, 10.0)),
       seed=seeds, start=st.tuples(st.floats(0.05, 10.0), st.floats(0.02, 10.0)))
def test_ordered_fits_keep_their_ordering(rates, seed, start):
    # from a start anywhere in the box, the ordered fit is the unordered one mapped by canonical: inside
    # rate1 >= rate2, bit for bit, with the same objective and end
    data = ik.generate_data(ORDERED, DESIGN, sorted(rates, reverse=True), seed=seed)
    res, unordered = fit(ORDERED, data, start), fit(BIEXP, data, start)
    assert ORDERED.space.contains(res.theta)
    assert res.theta.tobytes() == BIEXP.canonical(unordered.theta).tobytes()
    assert (res.objective, res.converged, res.reason) == (unordered.objective, unordered.converged, unordered.reason)


def test_a_landing_keeps_the_ordering():
    # truth (10, 9) on the ordered space: both rates creep toward 10, and the fit lands rate1 on its bound
    for seed in (4, 5, 8):
        res = fit(ORDERED, ik.generate_data(ORDERED, DESIGN, [10.0, 9.0], seed=seed), [5.0, 4.0])
        assert res.converged and res.reason == SMALL_GRADIENT
        assert 10.0 - res.theta[0] <= 1e-9 and res.theta[0] >= res.theta[1]


@pytest.mark.parametrize("seed", [4, 5])
def test_a_rate_that_creeps_toward_the_ordering_edge_reaches_it(seed):
    # truth (10, 9) from (5, 4): the fit runs over the box, where the edge rate2 = rate1 is no constraint, and
    # both rates land on the bound (9.999999999999998)
    res = fit(ORDERED, ik.generate_data(ORDERED, DESIGN, [10.0, 9.0], seed=seed), [5.0, 4.0])
    assert res.converged and res.reason == SMALL_GRADIENT and 10.0 - res.theta[0] <= 1e-9
    assert res.theta[0] - res.theta[1] <= 1e-9


REFERENCE_DESIGNS = {
    "biexponential": DESIGN,
    "redundant-exponential": ik.Design(np.linspace(0.0, 3.0, 8), 0.1),
    "reciprocal": ik.Design(np.linspace(1.0, 10.0, 10), 0.1),
}


def _trf_objective(model, data, start):
    """scipy's trf from ``start`` with fit's settings; inf unless it converges."""
    y = data.observations.ravel()
    sol = least_squares(
        lambda x: _outputs(model, data.design, x) - y, start,
        jac=lambda x: sensitivity_matrix(model, data.design, x).values, method="trf",
        bounds=(model.space.lower, model.space.upper), gtol=GRADIENT_TOL,
        xtol=STEP_TOL, ftol=None, max_nfev=MAX_EVALUATIONS,
    )
    return 0.5 * float(sol.fun @ sol.fun) if sol.status > 0 else np.inf


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(REFERENCE_DESIGNS)),
       unit=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3),
       data_seed=seeds, start_seed=seeds)
def test_best_optimum_is_no_worse_than_trf(name, unit, data_seed, start_seed):
    model = ik.get_model(name)
    space = model.space
    theta_true = space.lower + np.array(unit[: space.dimension]) * (space.upper - space.lower)
    data = ik.generate_data(model, REFERENCE_DESIGNS[name], theta_true, seed=data_seed)
    ours = min((r.objective for r in ik.multi_start_fit(model, data, 8, seed=start_seed)
                if r.converged), default=np.inf)
    starts = latin_hypercube_starts(model, 8, start_seed)
    reference = min(_trf_objective(model, data, s) for s in starts)
    assert ours <= reference * (1.0 + 1e-9)
