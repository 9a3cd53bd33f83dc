"""Model abstractions, designs, noisy data generation, and the registry."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit.models import MAX_DRAWS, MIN_NOISE_SD


def reference_contains(space, theta) -> bool:
    """Membership as one test per condition: shape, finiteness, box, orderings."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (space.dimension,):
        return False
    if not np.all(np.isfinite(theta)):
        return False
    if np.any(theta < space.lower) or np.any(theta > space.upper):
        return False
    return all(theta[i] > theta[j] for i, j in space.orderings)


def array_contains(space, theta) -> bool:
    """Membership on whole arrays, as numpy compares them."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (space.dimension,):
        return False
    if not ((theta >= space.lower) & (theta <= space.upper)).all():
        return False
    return all(theta[i] > theta[j] for i, j in space.orderings)


def tolist_contains(space, theta) -> bool:
    """Membership with both bounds turned into lists by ``tolist()`` on every call, the
    formula ``contains`` used before it kept its bounds as Python floats."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (space.dimension,):
        return False
    values = theta.tolist()
    if not all(lo <= v <= hi for lo, v, hi in zip(space.lower.tolist(), values, space.upper.tolist())):
        return False
    return all(values[i] > values[j] for i, j in space.orderings)


@st.composite
def spaces_and_points(draw):
    """A space of 1-3 overlapping (or shared) intervals, bounds often 0 or -0, with some
    orderings, and a point whose entries are often NaN, +/-inf, a signed zero, a bound,
    or a tie across an ordering (signed zeros included), or are integers, and whose
    shape is sometimes wrong; sometimes a plain list."""
    p = draw(st.integers(1, 3))
    edges = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    lower = np.array(draw(st.lists(edges, min_size=p, max_size=p)))
    upper = lower + np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=p, max_size=p)))
    shared = draw(st.booleans())  # one interval for all, as the biexponential's rates share theirs
    if shared:
        lower, upper = np.full(p, lower[0]), np.full(p, upper[0])
    pairs = [(i, j) for i in range(p) for j in range(p) if i != j]
    orderings = tuple(draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))) if pairs else ()
    space = ik.ParameterSpace(lower, upper, orderings)
    bounds = sorted(set(lower.tolist() + upper.tolist()))
    special = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0] + bounds)
    inside = draw(st.booleans())  # each entry drawn from its interval
    if draw(st.booleans()):
        theta = np.array([
            draw(st.floats(lower[i], upper[i]) if inside else
                 st.one_of(special, st.floats(-10.0, 10.0), st.floats(lower[i], upper[i])))
            for i in range(p)
        ])
    else:
        theta = np.array([draw(st.integers(int(lower[i]) - 1, int(upper[i]) + 1)) for i in range(p)])
    order = draw(st.sampled_from(["as drawn", "tie", "held"])) if orderings else "as drawn"
    if order == "tie":
        i, j = orderings[0]
        theta[i] = -theta[j] if theta[j] == 0 else theta[j]
    elif order == "held" and shared:  # a swap keeps the point in the box
        for i, j in orderings:
            if theta[i] < theta[j]:
                theta[i], theta[j] = theta[j], theta[i]
    shape = draw(st.sampled_from(["vector", "vector", "vector", "short", "long", "row", "column", "scalar"]))
    if shape == "short":
        theta = theta[:-1]
    elif shape == "long":
        theta = np.append(theta, theta[0])
    elif shape == "row":
        theta = theta[None, :]
    elif shape == "column":
        theta = theta[:, None]
    elif shape == "scalar":
        theta = theta[0]
    if draw(st.booleans()):
        theta = np.asarray(theta).tolist()
    return space, theta


class TestParameterSpace:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            ik.ParameterSpace(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ik.ParameterSpace(np.array([2.0]), np.array([1.0]))

    def test_ordering_constraints_validated(self):
        with pytest.raises(ValueError):
            ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 0),))
        with pytest.raises(ValueError):
            ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 5),))

    def test_membership(self):
        space = ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 1),))
        assert space.contains([0.8, 0.2])
        assert not space.contains([0.2, 0.8])   # ordering violated
        assert not space.contains([1.2, 0.2])   # box violated
        assert not space.contains([0.8])        # wrong length

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(case=spaces_and_points())
    def test_contains_matches_reference(self, case):
        space, theta = case
        inside = space.contains(theta)
        assert inside is tolist_contains(space, theta)
        assert inside is reference_contains(space, theta) is array_contains(space, theta)

    @pytest.mark.parametrize("theta, inside", [
        ([0.8, 0.2], True),
        ([1.0, 0.0], True),                   # both on a bound
        ([float("nan"), 0.2], False),
        ([0.8, float("nan")], False),
        ([float("inf"), 0.2], False),
        ([0.8, -float("inf")], False),
        ([0.5, 0.5], False),                  # tie across the ordering
        ([[0.8, 0.2]], False),                # a row, not a vector
        ([0.8, 0.2, 0.1], False),
        ([[0.8], [0.2]], False),              # a column, not a vector
        (0.8, False),                         # a scalar
    ])
    def test_contains_edge_cases(self, theta, inside):
        space = ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 1),))
        assert space.contains(theta) is inside is reference_contains(space, theta) is array_contains(space, theta)

    def test_sample_respects_orderings(self):
        space = ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 1),))
        rng = np.random.default_rng(0)
        draws = [space.draw_feasible(lambda: rng.uniform(space.lower, space.upper)) for _ in range(50)]
        assert all(space.contains(d) for d in draws)

    def test_draw_feasible_gives_up_naming_what_no_draw_met(self):
        space = ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 1), (1, 0)))
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match=r"theta1 > theta2 and theta2 > theta1 together never held"):
            space.draw_feasible(lambda: rng.uniform(space.lower, space.upper))
        calls = []
        outside = ik.ParameterSpace(np.zeros(2), np.ones(2), orderings=((0, 1),))
        with pytest.raises(RuntimeError, match=r"draws: the bounds never held$"):
            outside.draw_feasible(lambda: calls.append(1) or np.array([2.0, 0.5]))
        assert len(calls) == MAX_DRAWS


class TestDesign:
    def test_validation(self):
        with pytest.raises(ValueError):
            ik.Design(np.array([]), 0.1)
        with pytest.raises(ValueError):
            ik.Design(np.array([1.0, 1.0]), 0.1)
        with pytest.raises(ValueError):
            ik.Design(np.array([1.0]), 0.0)
        # smallest admissible sigma is 1e-12; anything below is rejected
        with pytest.raises(ValueError):
            ik.Design(np.array([1.0]), 1e-300)
        ik.Design(np.array([1.0]), MIN_NOISE_SD)

    @pytest.mark.parametrize("times", [[np.nan], [1.0, np.inf], [-np.inf, 0.0], [0.0, np.nan, 2.0]])
    def test_non_finite_time_points_rejected(self, times):
        # a lone NaN and a trailing inf formerly passed the increasing check
        with pytest.raises(ValueError, match="time_points must be a non-empty list of numbers"):
            ik.Design(np.array(times), 0.1)

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            ik.Design(np.array([1.0]), 0.1, replicates=0)
        # a non-integer or boolean count is rejected, never truncated
        for bad in (2.9, 2.0, True, False, "2", -1):
            with pytest.raises(ValueError, match="replicates"):
                ik.Design(np.array([1.0]), 0.1, replicates=bad)
        design = ik.Design(np.array([1.0]), 0.1, replicates=np.int64(3))
        assert design.replicates == 3 and type(design.replicates) is int


class TestEvaluate:
    def test_reciprocal_at_one(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([0.3, 1.7]), 0.1)
        assert np.allclose(ik.evaluate(model, design, [1.0]), 2.0)

    def test_biexponential_at_t0(self):
        model = ik.get_model("biexponential")
        design = ik.Design(np.array([0.0]), 0.1)
        np.testing.assert_allclose(ik.evaluate(model, design, [1.3, 0.7]), [2.0])

    def test_logistic_initial_condition(self):
        model = ik.get_model("logistic")
        design = ik.Design(np.array([0.0]), 0.1)
        np.testing.assert_allclose(ik.evaluate(model, design, [1.0, 1.0, 0.5]), [0.5])

    def test_out_of_bounds_rejected(self):
        model = ik.get_model("reciprocal")
        design = ik.Design(np.array([1.0]), 0.1)
        with pytest.raises(ik.OutOfBoundsError):
            ik.evaluate(model, design, [-1.0])

    def test_non_finite_evaluation_signalled(self):
        space = ik.ParameterSpace(np.array([0.0]), np.array([10.0]))
        model = ik.Model(
            name="exploding", space=space,
            f=lambda times, ths: np.where(ths[:, :1] > 5, np.inf, 1.0) * np.ones(len(times)),
        )
        design = ik.Design(np.array([1.0]), 0.1)
        assert ik.evaluate(model, design, [1.0])[0] == 1.0
        with pytest.raises(ik.EvaluationError):
            ik.evaluate(model, design, [6.0])

    def test_bitwise_pure(self):
        model = ik.get_model("logistic")
        design = ik.Design(np.linspace(0.5, 4.0, 7), 0.1)
        theta = [1.2, 2.0, 0.3]
        first = ik.evaluate(model, design, theta)
        second = ik.evaluate(model, design, theta)
        assert np.array_equal(first, second)

    def test_swap_symmetry_exact_at_output_level(self):
        model = ik.get_model("biexponential")
        rng = np.random.default_rng(1)
        for _ in range(10):
            times = np.sort(rng.uniform(0.0, 5.0, size=6))
            times[0] = 0.0
            design = ik.Design(np.unique(times), 0.1)
            a, b = rng.uniform(0.05, 9.0, size=2)
            left = ik.evaluate(model, design, [a, b])
            right = ik.evaluate(model, design, [b, a])
            assert np.array_equal(left, right)

    def test_redundant_scaling_family(self):
        model = ik.get_model("redundant-exponential")
        design = ik.Design(np.linspace(0.0, 3.0, 6), 0.1)
        theta = np.array([1.0, -0.5, 0.5])
        base = ik.evaluate(model, design, theta)
        for c in (-1.0, 0.3, 2.0):
            shifted = np.array([theta[0] * np.exp(c), theta[1], theta[2] - c])
            assert model.space.contains(shifted)
            np.testing.assert_allclose(ik.evaluate(model, design, shifted), base, rtol=1e-12)


@st.composite
def outputs_with_non_finite_entries(draw):
    """1-12 floats, some huge enough that their squares overflow, with NaN, +inf or -inf
    put at any subset of the positions (often none)."""
    n = draw(st.integers(1, 12))
    finite = st.sampled_from([0.0, -0.0, 1e200, -1e200, 1.7e308, -1.7e308, 5e-324]) | st.floats(-1e3, 1e3)
    values = np.array([draw(finite) for _ in range(n)])
    bad = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    values[bad] = [draw(st.sampled_from([float("nan"), float("inf"), -float("inf")])) for _ in bad]
    return values


class TestFiniteChecks:
    """``evaluate`` and ``SensitivityMatrix`` raise exactly as ``np.isfinite(values).all()``
    decides, with the same exception and message, and return the values untouched."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=outputs_with_non_finite_entries())
    def test_evaluate(self, values):
        model = ik.Model(name="table", space=ik.ParameterSpace(np.array([0.0]), np.array([1.0])),
                         f=lambda times, thetas: values[None, :].copy())
        design = ik.Design(np.arange(1.0, values.size + 1.0), 0.1)
        if np.isfinite(values).all():
            assert ik.evaluate(model, design, [0.5]).tobytes() == values.tobytes()
            return
        with pytest.raises(ik.EvaluationError) as err:
            ik.evaluate(model, design, [0.5])
        bad = design.time_points[~np.isfinite(values)].tolist()
        assert type(err.value) is ik.EvaluationError
        assert str(err.value) == f"model table non-finite at t={bad}"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=outputs_with_non_finite_entries(), layout=st.sampled_from(["C", "F", "strided"]))
    def test_sensitivity_matrix(self, values, layout):
        matrix = {"C": values[:, None], "F": np.asfortranarray(np.column_stack([values, values])),
                  "strided": np.column_stack([values, values, values])[:, ::2]}[layout]
        if np.isfinite(values).all():
            assert ik.SensitivityMatrix(matrix, np.zeros(1), "analytic").values.tobytes() == matrix.tobytes()
            return
        with pytest.raises(ik.EvaluationError) as err:
            ik.SensitivityMatrix(matrix, np.zeros(1), "analytic")
        assert type(err.value) is ik.EvaluationError
        assert str(err.value) == "sensitivity matrix has non-finite entries"


class TestGenerateData:
    def setup_method(self):
        self.model = ik.get_model("reciprocal")

    def test_vanishing_noise_limit(self):
        design = ik.Design(np.array([1.0, 2.0]), 1e-12)
        ds = ik.generate_data(self.model, design, [0.5], seed=0)
        np.testing.assert_allclose(ds.observations[:, 0], 3.0, atol=1e-10)

    def test_deterministic(self):
        design = ik.Design(np.array([1.0, 2.0]), 0.3, replicates=3)
        first = ik.generate_data(self.model, design, [0.5], seed=42)
        second = ik.generate_data(self.model, design, [0.5], seed=42)
        assert np.array_equal(first.observations, second.observations)
        assert first.seed == 42
        np.testing.assert_array_equal(first.theta_true, [0.5])

    def test_noise_stream_contract(self):
        # One standard-normal draw per observation, replicates within time,
        # from numpy's default generator at the recorded seed.
        design = ik.Design(np.array([1.0, 2.0]), 0.3, replicates=2)
        ds = ik.generate_data(self.model, design, [0.5], seed=9)
        z = np.random.default_rng(9).standard_normal((2, 2))
        expect = 3.0 + 0.3 * z
        assert np.array_equal(ds.observations, expect)

    def test_sigma_scaling_shares_noise_stream(self):
        times = np.array([1.0, 2.0, 3.0])
        theta = [0.5]
        mean = ik.evaluate(self.model, ik.Design(times, 1.0), theta)[:, None]
        lo = ik.generate_data(self.model, ik.Design(times, 0.25), theta, seed=7)
        hi = ik.generate_data(self.model, ik.Design(times, 0.5), theta, seed=7)
        # sigma ratio is a power of two, so the residual scaling is exact
        assert np.array_equal(lo.observations - mean, 0.5 * (hi.observations - mean))

    def test_mean_is_unbiased_monte_carlo(self):
        # sample mean of 1e5 replicates at one time point within 4 sigma / sqrt(N)
        sigma, n_rep = 0.4, 100_000
        design = ik.Design(np.array([2.0]), sigma, replicates=n_rep)
        ds = ik.generate_data(self.model, design, [0.5], seed=3)
        assert abs(ds.observations.mean() - 3.0) < 4 * sigma / np.sqrt(n_rep)


class TestRegistry:
    def test_contents_and_labels(self):
        names = {m.name: m for m in ik.builtin_registry()}
        assert set(names) == {"linear", "biexponential", "redundant-exponential",
                              "reciprocal", "logistic"}
        assert names["biexponential"].identifiability == "locally-not-globally"
        assert names["redundant-exponential"].identifiability == "structurally-unidentifiable"
        assert names["reciprocal"].identifiability == "globally-identifiable"
        assert names["logistic"].identifiability == "globally-identifiable"

    def test_lookup_unknown(self):
        with pytest.raises(ik.UnknownModelError):
            ik.get_model("fourier")

    def test_constants_forwarded(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(5.0), 0.1)
        np.testing.assert_allclose(ik.evaluate(model, design, [1.0, 2.0]), X @ [1.0, 2.0])

    def test_ordered_biexponential(self):
        model = ik.get_model("biexponential", ordered=True)
        assert model.space.contains([2.0, 1.0])
        assert not model.space.contains([1.0, 2.0])

    # each formerly built a model: "no" an ordered one, true a bound of 1.0, "10" a bound of 10.0
    @pytest.mark.parametrize("name, constants, message", [
        ("biexponential", {"ordered": "no"}, "ordered must be true or false"),
        ("biexponential", {"ordered": 1}, "ordered must be true or false"),
        ("biexponential", {"bounds": [True, 10]}, "bounds must be a pair of finite numbers"),
        ("biexponential", {"bounds": [0.01, "10"]}, "bounds must be a pair of finite numbers"),
        ("biexponential", {"bounds": [0.01, 5.0, 10.0]}, "bounds must be a pair of finite numbers"),
        ("reciprocal", {"bounds": [0.01, float("nan")]}, "bounds must be a pair of finite numbers"),
        ("redundant-exponential", {"rate_bounds": [-1, False]}, "rate_bounds must be a pair"),
        ("logistic", {"capacity_bounds": 5.0}, "capacity_bounds must be a pair"),
        ("linear", {"bounds": ["-10", 10]}, "bounds must be a pair of finite numbers"),
        ("linear", {"design_matrix": [[1.0, float("nan")], [1.0, 1.0]]}, "design matrix must be"),
        ("linear", {"design_matrix": [[1.0, True], [1.0, 2.0]]}, "design matrix must be"),
        ("linear", {"design_matrix": [[]]}, "design matrix must be"),
        ("linear", {"design_matrix": [1.0, 2.0]}, "design matrix must be"),
        ("linear", {"design_matrix": [[1.0], [1.0, 2.0]]}, "design matrix must be"),
    ])
    def test_malformed_constants_rejected_not_repaired(self, name, constants, message):
        with pytest.raises(ValueError, match=message):
            ik.get_model(name, **constants)

    def test_well_formed_constants_accepted(self):
        assert ik.get_model("biexponential", ordered=False, bounds=[0, 10]).space.orderings == ()
        model = ik.get_model("linear", design_matrix=[[1, 0], [1, 1]], bounds=(-1, 1))
        assert model.space.upper.tolist() == [1.0, 1.0]
        assert ik.get_model("linear", design_matrix=np.eye(2)).identifiability == "globally-identifiable"


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        model = ik.get_model("biexponential")
        design = ik.Design(np.linspace(0.5, 3.0, 4), 0.2, replicates=2)
        ds = ik.generate_data(model, design, [2.0, 1.0], seed=5)
        path = tmp_path / "dataset.csv"
        ik.save_dataset(ds, path)
        back = ik.load_dataset(path)
        assert np.array_equal(back.observations, ds.observations)
        assert np.array_equal(back.design.time_points, design.time_points)
        assert back.design.noise_sd == design.noise_sd
        assert back.design.replicates == design.replicates
        assert back.seed == 5
        np.testing.assert_array_equal(back.theta_true, [2.0, 1.0])
        # the recorded parameter and seed regenerate the observations exactly
        regen = ik.generate_data(model, back.design, back.theta_true, back.seed)
        assert np.array_equal(regen.observations, back.observations)

    @pytest.mark.parametrize(
        "row, field",
        [
            ("0.75,0,1.0", "time"),               # off-design, formerly snapped to 0.5
            ("0.5,1,1.0", "(time, replicate)"),   # duplicate, formerly overwrote line 3
            ("0.5,-1,1.0", "replicate"),          # formerly wrote into the last column
            ("0.5,2,1.0", "replicate"),           # formerly a bare IndexError
        ],
    )
    def test_malformed_row_rejected_with_line_and_field(self, tmp_path, row, field):
        design = ik.Design(np.array([0.5, 1.0]), 0.2, replicates=2)
        ds = ik.Dataset(design, np.ones((2, 2)))
        path = tmp_path / "dataset.csv"
        ik.save_dataset(ds, path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"line 6, field {field}:")):
            ik.load_dataset(path)

    @staticmethod
    def saved(tmp_path):
        """A saved 2-time, 2-replicate data set: rows on lines 2-5, the last "1,1,1"."""
        path = tmp_path / "dataset.csv"
        ik.save_dataset(ik.Dataset(ik.Design(np.array([0.5, 1.0]), 0.2, replicates=2), np.ones((2, 2))), path)
        return path

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,abc", "line 5, field value: 'abc' is not a finite number"),
            ("x,1,1", "line 5, field time: 'x' is not a finite number"),
            ("1,1.0,1", "line 5, field replicate: '1.0' is not an integer"),
            ("1,1", "line 5: expected the 3 fields time,replicate,value, got 2"),
            ("1,1,1,7", "line 5: expected the 3 fields time,replicate,value, got 4"),
            ("", "line 5: expected the 3 fields time,replicate,value, got 1"),
            ("1,1,nan", "line 5, field value: 'nan' is not a finite number"),
            ("1,1,inf", "line 5, field value: 'inf' is not a finite number"),
        ],
    )
    def test_unparsable_row_rejected_with_line_and_field(self, tmp_path, row, message):
        # formerly a bare float/int conversion or unpacking error, or for a blank line,
        # nan or inf, "dataset file is missing observations"
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        assert lines[4] == "1,1,1"
        path.write_text("\n".join(lines[:4] + [row]) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            ik.load_dataset(path)

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("replicates", 2.7, "an integer"),                  # formerly loaded as 2
            ("noise_sd", "0.2", "a number"),                    # formerly converted
            ("time_points", ["0.5", "1.0"], "a list of numbers"),  # formerly converted
            ("time_points", [0.5, float("inf")], "a list of numbers"),
            ("theta_true", ["2.0"], "a list of numbers or null"),
            ("seed", 1.5, "an integer or null"),
        ],
    )
    def test_malformed_sidecar_rejected_not_repaired(self, tmp_path, key, value, kind):
        path = self.saved(tmp_path)
        sidecar = path.with_suffix(".csv.meta.json")
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, key: value}))
        with pytest.raises(ValueError, match=re.escape(f"field {key}: must be {kind}, got {value!r}")):
            ik.load_dataset(path)

    def test_sidecar_with_a_repeated_key_rejected(self, tmp_path):
        # formerly the last value won, silently: a data set with noise_sd 0.5
        path = self.saved(tmp_path)
        sidecar = path.with_suffix(".csv.meta.json")
        sidecar.write_text(sidecar.read_text().replace('"noise_sd": 0.2,', '"noise_sd": 0.2, "noise_sd": 0.5,'))
        with pytest.raises(ValueError, match=re.escape(f'{sidecar}: key "noise_sd" is repeated in one object')):
            ik.load_dataset(path)

    def test_shape_validation(self):
        design = ik.Design(np.array([1.0, 2.0]), 0.1, replicates=2)
        with pytest.raises(ValueError):
            ik.Dataset(design, np.zeros((2, 3)))
