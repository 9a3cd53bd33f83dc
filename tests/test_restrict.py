"""Restricted models: each held parameter fixed at its value, the rest free."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import identikit as ik
from identikit.estimation import fit
from identikit.models import builtin_registry, restrict
from identikit.sensitivity import fd_jacobian, forward_ode_solve, resolve_method

MODELS = {  # model, design times
    "linear": (ik.get_model("linear"), [0.0, 1.0, 2.0, 3.0]),
    "biexponential": (ik.get_model("biexponential"), [0.25, 0.5, 1.0, 2.0, 3.0]),
    "biexponential-ordered": (ik.get_model("biexponential", ordered=True), [0.25, 0.5, 1.0, 2.0, 3.0]),
    "redundant-exponential": (ik.get_model("redundant-exponential"), [0.0, 0.6, 1.2, 2.4]),
    "reciprocal": (ik.get_model("reciprocal"), [1.0, 2.0, 5.0]),
    "logistic": (ik.get_model("logistic"), [0.5, 1.0, 2.0, 4.0, 8.0]),
}
assert {model.name for model, _ in MODELS.values()} == {model.name for model in builtin_registry()}


def chained(orderings=((0, 1), (1, 2))):
    """A three-coefficient linear model on [-10, 10]^3 with the given orderings."""
    model = ik.get_model("linear", design_matrix=np.arange(12.0).reshape(4, 3) ** 0.5)
    return replace(model, space=replace(model.space, orderings=orderings))


# every built-in with each proper subset of its parameters held, the empty one included
SUBSETS = [(name, held) for name, (model, _) in MODELS.items()
           for k in range(model.space.dimension) for held in itertools.combinations(range(model.space.dimension), k)]


@pytest.mark.parametrize("name, indices", SUBSETS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_restricted_values_are_the_full_models_free_columns_bit_for_bit(name, indices, data):
    """At a drawn point of the admissible set, held where ``indices`` say, and at up to two more
    points of the restricted box: the restricted ``f``, analytic Jacobian, forward-ODE outputs and
    sensitivities, and finite differences are the full model's at the full point, its free columns."""
    model, times = MODELS[name]
    space, p = model.space, model.space.dimension
    design, times = ik.Design(np.array(times), 0.05), np.array(times)
    unit = st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p)
    point = space.lower + np.array(data.draw(unit)) * (space.upper - space.lower)
    point = np.sort(point)[::-1] if space.orderings else point
    assume(space.contains(point))
    held = {i: float(point[i]) for i in indices}
    free = [i for i in range(p) if i not in held]
    try:
        restricted = restrict(model, held)
    except ik.OutOfBoundsError:  # only a tie on a bound, where a held rate leaves the other one value
        assert space.orderings and point[0] == point[1] and point[0] in (space.lower[0], space.upper[0])
        reject()
    box = restricted.space
    assert box.dimension == len(free) and resolve_method(restricted) == resolve_method(model)
    assert box.parameter_names() == tuple(space.parameter_names()[i] for i in free)
    rows = [point[free]] + [box.lower + np.array(data.draw(unit))[: len(free)] * (box.upper - box.lower)
                            for _ in range(data.draw(st.integers(0, 2)))]
    rows = np.array([row for row in rows if box.contains(row)])
    points = np.empty((len(rows), p))
    points[:, free] = rows
    points[:, list(held)] = list(held.values())
    assert restricted.f(times, rows).tobytes() == model.f(times, points).tobytes()
    for row, point in zip(rows, points):
        if model.jacobian is not None:
            expected = np.asarray(model.jacobian(times, point))[:, free]
            assert restricted.jacobian(times, row).tobytes() == expected.tobytes()
        if model.ode is not None:
            outputs, sens = forward_ode_solve(model, design, point)
            restricted_outputs, restricted_sens = forward_ode_solve(restricted, design, row)
            assert restricted_outputs.tobytes() == outputs.tobytes()
            assert restricted_sens.tobytes() == np.ascontiguousarray(sens[:, free]).tobytes()
        try:
            fd = fd_jacobian(model, design, point)
        except ik.EvaluationError:  # a held column that no step can difference
            continue
        assert fd_jacobian(restricted, design, row).values.tobytes() == fd.values[:, free].tobytes()


class TestOrderings:
    def test_an_ordering_with_a_held_member_bounds_the_other_by_the_held_value(self):
        model = ik.get_model("biexponential", ordered=True)  # rate1 >= rate2 on [0.01, 10]^2
        upper = restrict(model, {0: 2.0}).space
        assert upper.upper.tolist() == [2.0] and upper.lower.tolist() == [0.01]
        assert upper.orderings == () and upper.names == ("rate2",)
        lower = restrict(model, {1: 1.0}).space
        assert lower.lower.tolist() == [1.0] and lower.upper.tolist() == [10.0]
        assert lower.contains([1.0]) and not lower.contains([math.nextafter(1.0, -math.inf)])

    def test_an_ordering_between_free_parameters_is_renumbered(self):
        space = restrict(chained(), {0: 5.0}).space  # theta1 >= theta2 >= theta3
        assert space.orderings == ((0, 1),) and space.upper.tolist() == [5.0, 10.0]
        space = restrict(chained(), {2: -5.0}).space
        assert space.orderings == ((0, 1),) and space.lower.tolist() == [-10.0, -5.0]
        space = restrict(chained(), {1: 0.0}).space  # each free member bounded, no ordering left
        assert space.orderings == () and space.lower[0] == 0.0 and space.upper[1] == 0.0

    def test_a_restricted_fit_stays_in_the_ordering(self):
        # the best rate2 with rate1 held at 1.2 lies past the ordering, so the fit ends on its bound
        model = ik.get_model("biexponential", ordered=True)
        design = ik.Design(np.linspace(0.25, 3.0, 8), 0.05)
        data = ik.generate_data(model, design, [2.0, 1.5], seed=3)
        res = fit(restrict(model, {0: 1.2}), data, [0.5])
        assert res.converged and res.reason in ("boundary", "small-gradient")
        assert 1.2 - 1e-8 < res.theta[0] < 1.2


class TestRules:
    """Held values that ``restrict`` refuses; its key rules, 20.0 and holding every parameter are
    ``TestFit``'s cases in test_estimation.py."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, "1.0", True, None])
    def test_a_value_outside_the_box_is_rejected_by_name(self, value):
        message = f"held values {re.escape(repr({1: value}))} leave parameter 1 no admissible value"
        with pytest.raises(ik.OutOfBoundsError, match=message):
            restrict(ik.get_model("biexponential"), {1: value})

    def test_held_values_that_break_an_ordering_are_rejected_by_name(self):
        with pytest.raises(ik.OutOfBoundsError, match="leave parameter 0 no admissible value"):
            restrict(chained(), {0: 1.0, 1: 2.0})
        with pytest.raises(ik.OutOfBoundsError, match="leave parameter 0 no admissible value"):
            restrict(chained(((1, 0),)), {0: 2.0, 1: 1.0})
        assert restrict(chained(((1, 0),)), {0: 2.0, 1: 2.0}).space.lower.tolist() == [-10.0]  # a tie holds

    @pytest.mark.parametrize("held, free", [({0: 0.01}, 1), ({1: 10.0}, 0)])
    def test_a_value_that_leaves_a_free_parameter_no_room_is_rejected(self, held, free):
        # rate1 >= rate2 on [0.01, 10]^2: rate1 = 0.01 leaves rate2 one value and no interval, and so does
        # rate2 = 10 rate1
        with pytest.raises(ik.OutOfBoundsError, match=f"leave parameter {free} no admissible value"):
            restrict(ik.get_model("biexponential", ordered=True), held)

    def test_a_restricted_ode_model_is_not_restricted_again(self):
        # its system's functions take the full vector, so the two restrictions would have to compose
        once = restrict(ik.get_model("logistic"), {2: 0.5})
        with pytest.raises(ValueError, match="model logistic is restricted already"):
            restrict(once, {0: 1.0})

    def test_holding_nothing_is_the_model(self):
        model, times = MODELS["redundant-exponential"]
        restricted = restrict(model, {})
        thetas = np.array([[1.0, -0.5, 0.5], [2.0, 0.3, -1.0]])
        assert restricted.f(np.array(times), thetas).tobytes() == model.f(np.array(times), thetas).tobytes()
        assert restricted.space.lower.tolist() == model.space.lower.tolist()
