"""Property tests of the Sobol estimator: seed determinism, affine invariance,
the batched bootstrap against a per-round reference, and redraw order.

Each property is drawn by ``hypothesis``; the draws are derandomised so a
failure reproduces exactly.
"""

import hashlib
from dataclasses import fields
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import identikit as ik
from identikit import sobol

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

# at t = 0 the biexponential output is constant: a zero-variance column
TIMES = np.array([0.0, 0.5, 1.0, 2.0])
CASES = {
    "biexponential": (
        ik.get_model("biexponential"),
        ik.Prior(("uniform",) * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0])),
    ),
    "redundant-exponential": (
        ik.get_model("redundant-exponential"),
        ik.Prior(("log-uniform", "uniform", "uniform"),
                 np.array([0.5, -0.8, -1.0]), np.array([2.0, 0.8, 1.0])),
    ),
}
cases = st.sampled_from(sorted(CASES))
seeds = st.integers(0, 2**16)


def _sobol(name, seed, bootstrap=50, model=None):
    default_model, prior = CASES[name]
    return sobol.sobol_indices(model or default_model, ik.Design(TIMES, 1.0), prior, 1024,
                               seed=seed, bootstrap=bootstrap)


@PROPERTY_SETTINGS
@given(name=cases, seed=seeds)
def test_same_seed_same_report(name, seed):
    a, b = _sobol(name, seed), _sobol(name, seed)
    for field in fields(a):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name


@PROPERTY_SETTINGS
@given(name=cases, seed=seeds, scale=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
       shift=st.floats(-10.0, 10.0))
def test_affine_output_change_leaves_indices(name, seed, scale, sign, shift):
    model = CASES[name][0]
    affine = ik.Model(f"affine-{name}", model.space,
                      f=lambda times, thetas: sign * scale * model.f(times, thetas) + shift)
    a, b = _sobol(name, seed), _sobol(name, seed, model=affine)
    for field in ("first", "total", "first_se", "total_se", "per_time_first", "per_time_total"):
        np.testing.assert_allclose(getattr(b, field), getattr(a, field), rtol=0, atol=1e-9,
                                   err_msg=field)


def _reference_se(name, seed, rounds):
    """The bootstrap as one full re-estimation per round."""
    model, prior = CASES[name]
    design = ik.Design(TIMES, 1.0)
    rng_samples, rng_boot = (np.random.default_rng(c)
                             for c in np.random.SeedSequence(seed).spawn(2))
    A, B = prior.sample(1024, rng_samples), prior.sample(1024, rng_samples)
    fA = np.array([ik.evaluate(model, design, a) for a in A])
    fB = np.array([ik.evaluate(model, design, b) for b in B])
    crosses = []
    for i in range(prior.dimension):
        AB = A.copy()
        AB[:, i] = B[:, i]
        crosses.append([ik.evaluate(model, design, row) for row in AB])
    fAB = np.array(crosses)
    first, total = [], []
    for _ in range(rounds):
        idx = rng_boot.integers(0, 1024, size=1024)
        bf, bt, bv = sobol._pick_freeze_estimates(fA[idx], fB[idx], fAB[:, idx])
        first.append(sobol._aggregate(bf, bv))
        total.append(sobol._aggregate(bt, bv))
    return np.std(first, axis=0, ddof=1), np.std(total, axis=0, ddof=1)


# Rounds span part of one block to past two.  Each round's indices differ
# from the reference by rounding (~1e-16 absolute), which is 1e-12 relative
# only while the spread of the rounds dominates: from a few rounds the
# standard error can be small enough to fall below that.
@PROPERTY_SETTINGS
@given(name=cases, seed=seeds, rounds=st.integers(16, 2 * sobol.BOOTSTRAP_BLOCK + 5))
def test_bootstrap_se_matches_per_round_reestimation(name, seed, rounds):
    report = _sobol(name, seed, bootstrap=rounds)
    first_se, total_se = _reference_se(name, seed, rounds)
    np.testing.assert_allclose(report.first_se, first_se, rtol=1e-12)
    np.testing.assert_allclose(report.total_se, total_se, rtol=1e-12)


def _patchy(times, thetas):
    """Outputs are the parameters themselves; non-finite wherever theta_1 > 0.8."""
    return np.where(thetas[:, :1] > 0.8, np.nan, thetas)


# seed -> (redraw count, sha256 prefix of the final A and B sample blocks),
# pinned from the per-row implementation the batched one replaced
PINNED_REDRAWS = {
    0: (574, "1cb24e853a1ec7f4"),
    1: (510, "ada3cc0d139cb92d"),
    2: (549, "371b3f5f220e9ec7"),
    3: (599, "172117354c406c49"),
    5: (563, "e2ba4dbf110451b0"),
    8: (565, "9b7c2b837a640259"),
    13: (564, "1ae6533ab7510eae"),
}


@PROPERTY_SETTINGS
@given(seed=st.sampled_from(sorted(PINNED_REDRAWS)))
def test_failed_rows_redrawn_in_the_same_order(seed):
    space = ik.ParameterSpace(np.zeros(2), np.ones(2))
    model = ik.Model("patchy", space, f=_patchy)
    # two design times, so the output blocks fA and fB are the final A and B
    design = ik.Design(np.array([0.0, 1.0]), 1.0)
    with mock.patch.object(sobol, "_pick_freeze_estimates",
                           wraps=sobol._pick_freeze_estimates) as spy:
        report = sobol.sobol_indices(model, design, ik.Prior.uniform_box(space), 1024,
                                     seed=seed, bootstrap=0)
    fA, fB, _ = spy.call_args.args
    digest = hashlib.sha256(np.ascontiguousarray(fA).tobytes()
                            + np.ascontiguousarray(fB).tobytes()).hexdigest()[:16]
    assert (report.resampled, digest) == PINNED_REDRAWS[seed]
