"""Record semantics: a record that holds an array compares and hashes by identity, array-free records
by value, and the inputs that are checked at construction stay frozen."""

import ast
import copy
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import identikit as ik
from identikit.config import Diagnostic
from identikit.estimation import fit
from identikit.fim import SloppinessStats
from identikit.profile import ProfileInterval
from identikit.recovery import recover_once
from identikit.sensitivity import sensitivity_matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "identikit"
INPUTS = ("ParameterSpace", "Design", "Dataset", "Model", "OdeSystem", "Prior", "SensitivityMatrix")
RESULTS = ("EstimateResult", "FimReport", "Ellipsoid", "ProfileCurve", "RecoveryTrial", "RecoveryReport",
           "SobolReport")


@pytest.fixture(scope="module")
def records():
    """One instance of each record that holds an array, by class name."""
    model = ik.get_model("reciprocal")
    design = ik.Design(np.linspace(1.0, 10.0, 10), 0.1)
    data = ik.generate_data(model, design, [0.5], seed=1)
    best = fit(model, data, np.array([0.3]))
    report = ik.fim_report(model, design, best.theta)
    made = [model.space, design, data, model, ik.get_model("logistic").ode, ik.Prior.uniform_box(model.space),
            sensitivity_matrix(model, design, best.theta), best, report,
            ik.confidence_ellipsoid(report, best.theta, 0.95), ik.profile_parameter(model, data, best, 0),
            recover_once(model, design, [0.5], seed=2, n_starts=2),
            ik.global_recovery(model, design, 2, seed=3, n_starts=2),
            ik.sobol_indices(model, design, n_samples=1024, bootstrap=0, seed=4)]
    return {type(record).__name__: record for record in made}


@pytest.mark.parametrize("name", INPUTS + RESULTS)
def test_records_that_hold_arrays_compare_and_hash_by_identity(records, name):
    # a deep copy holds equal but distinct arrays, whose element-wise == has no truth value
    record = records[name]
    twin = copy.deepcopy(record)
    listed = [record, twin]
    assert listed.index(twin) == 1 and twin in listed and record in listed[:1] and twin not in listed[:1]
    assert len({record, twin}) == 2 and record in {record} and twin not in {record}
    assert record == record and record != twin and hash(record) == hash(record)


def test_fits_and_spaces_can_be_searched():
    # each of these raised at a record generated with value == over its arrays
    model = ik.get_model("biexponential")
    data = ik.generate_data(model, ik.Design(np.linspace(0.25, 3.0, 7), 0.05), [2.0, 1.0], seed=11)
    fits = ik.multi_start_fit(model, data, 4, seed=0)
    best = next(r for r in fits if r.converged)
    assert fits.index(best) == 0 and best in fits and {fits[0]} == {best}
    assert model.space != ik.get_model("biexponential").space and model.space == model.space


@pytest.mark.parametrize("make", [
    lambda: Diagnostic("recover.k_trials", "must be an integer >= 1"),
    lambda: SloppinessStats(3.5, -1.2, 0.4, 0.97, 1e-3, True),
    lambda: ProfileInterval(0.8, 2.3, False, False, "level-set", "bound"),
])
def test_array_free_records_compare_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", INPUTS)
def test_inputs_stay_frozen(records, name):
    record = records[name]
    first = fields(record)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(FrozenInstanceError):
        delattr(record, first)


def _dataclasses():
    """(class name, its @dataclass decorator, its field annotations as source) for each dataclass in src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if isinstance(target, ast.Name) and target.id == "dataclass":
                    annotations = [ast.unparse(s.annotation) for s in node.body if isinstance(s, ast.AnnAssign)]
                    yield node.name, decorator, annotations


def test_every_dataclass_with_an_array_field_takes_eq_false():
    holding, missing = set(), []
    for name, decorator, annotations in _dataclasses():
        if any("np.ndarray" in annotation for annotation in annotations):
            holding.add(name)
            keywords = decorator.keywords if isinstance(decorator, ast.Call) else []
            if not any(k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
                       for k in keywords):
                missing.append(name)
    assert missing == []
    assert holding == set(INPUTS + RESULTS)  # each is in the identity test above
