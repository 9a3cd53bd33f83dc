"""Property tests of two documented invariants: replicate scaling of the
information matrix, and the dataset file round trip.

Each property is drawn by ``hypothesis``; the draws are derandomised so a
failure reproduces exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit.models import Dataset, biexponential_model, builtin_registry, load_dataset, save_dataset

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# every built-in, the ordered biexponential included, on a design it can evaluate
MODELS = {m.name + ("-ordered" if m.space.orderings else ""): m
          for m in builtin_registry() + [biexponential_model(ordered=True)]}
TIMES = {"linear": np.arange(4.0), "logistic": np.array([0.5, 1.0, 2.0, 4.0, 6.0, 10.0])}
DEFAULT_TIMES = np.array([0.25, 0.5, 1.0, 2.0, 3.0])


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(MODELS)),
       unit=st.lists(st.floats(0.02, 0.98), min_size=3, max_size=3),
       sigma=st.floats(1e-3, 10.0), replicates=st.sampled_from([2, 4, 8]))
def test_replicates_scale_the_information_exactly(name, unit, sigma, replicates):
    """r replicates multiply the FIM and its eigenvalues by r bit for bit, and the
    ellipsoid semi-axes by 1/sqrt(r) to within one ulp."""
    model = MODELS[name]
    space = model.space
    theta = space.lower + np.array(unit[: space.dimension]) * (space.upper - space.lower)
    assume(space.contains(theta))
    design = ik.Design(TIMES.get(model.name, DEFAULT_TIMES), sigma)
    one = ik.fim_report(model, design, theta)
    many = ik.fim_report(model, design.with_replicates(replicates), theta)
    assert many.fim.tobytes() == (replicates * one.fim).tobytes()
    assert many.eigenvalues.tobytes() == (replicates * one.eigenvalues).tobytes()
    if one.classification == "identifiable":
        axes = ik.confidence_ellipsoid(one, theta, 0.95).semi_axis_lengths / np.sqrt(replicates)
        scaled = ik.confidence_ellipsoid(many, theta, 0.95).semi_axis_lengths
        np.testing.assert_allclose(scaled, axes, rtol=1e-15, atol=0)


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@st.composite
def datasets(draw):
    times = sorted(draw(st.lists(finite, min_size=1, max_size=5, unique=True)))
    replicates = draw(st.integers(1, 4))
    noise_sd = draw(st.one_of(st.floats(1e-12, 1e300), st.sampled_from([1e-12, 0.05])))
    observations = draw(st.lists(finite, min_size=len(times) * replicates,
                                 max_size=len(times) * replicates))
    theta_true = draw(st.one_of(st.none(), st.lists(finite, min_size=1, max_size=3)))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    design = ik.Design(np.array(times), noise_sd, replicates)
    return Dataset(design, np.reshape(observations, (len(times), replicates)), theta_true, seed)


@PROPERTY_SETTINGS
@given(dataset=datasets())
def test_saved_dataset_loads_bit_for_bit(dataset):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "dataset.csv"
        save_dataset(dataset, path)
        back = load_dataset(path)
    design = dataset.design
    assert back.design.time_points.tobytes() == design.time_points.tobytes()
    assert np.float64(back.design.noise_sd).tobytes() == np.float64(design.noise_sd).tobytes()
    assert back.design.replicates == design.replicates
    assert back.observations.tobytes() == dataset.observations.tobytes()
    assert back.seed == dataset.seed
    if dataset.theta_true is None:
        assert back.theta_true is None
    else:
        assert back.theta_true.tobytes() == dataset.theta_true.tobytes()
