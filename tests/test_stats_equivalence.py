"""The chi-square quantile and the Latin-hypercube starts match scipy.stats.

The package computes both without importing scipy.stats, which costs more to
import than a small analysis takes to run.  These tests hold the two
replacements to scipy's results bit for bit, and check in a fresh interpreter
that importing the package and running its CLI leave scipy.stats unloaded.
"""

import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, qmc

import identikit as ik
from identikit.fim import chi2_quantile

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

MODELS = ik.builtin_registry() + [ik.get_model("biexponential", ordered=True)]


def scipy_starts(model, k_starts, seed):
    """Start points as scipy's LatinHypercube draws them, redraws included."""
    space = model.space
    rng = np.random.default_rng(seed)
    unit = qmc.LatinHypercube(d=space.dimension, seed=rng).random(k_starts)
    starts = space.lower + unit * (space.upper - space.lower)
    for k in range(k_starts):
        while not space.contains(starts[k]):
            starts[k] = rng.uniform(space.lower, space.upper)
    return starts


@PROPERTY_SETTINGS
@given(model=st.sampled_from(MODELS), k_starts=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_latin_hypercube_starts_equal_scipy_bitwise(model, k_starts, seed):
    ours = ik.latin_hypercube_starts(model, k_starts, seed)
    assert ours.tobytes() == scipy_starts(model, k_starts, seed).tobytes()


def test_ordered_model_takes_the_redraw_path():
    model = ik.get_model("biexponential", ordered=True)
    space = model.space
    unit = qmc.LatinHypercube(d=2, seed=np.random.default_rng(0)).random(32)
    assert not all(space.contains(space.lower + u * (space.upper - space.lower))
                   for u in unit)
    ours = ik.latin_hypercube_starts(model, 32, 0)
    assert ours.tobytes() == scipy_starts(model, 32, 0).tobytes()


@PROPERTY_SETTINGS
@given(df=st.integers(1, 10),
       level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_chi2_quantile_equals_scipy_bitwise(df, level):
    assert chi2_quantile(level, df).hex() == float(chi2.ppf(level, df)).hex()


def test_import_and_cli_leave_scipy_stats_unloaded():
    probe = (
        "import runpy, sys\n"
        "import identikit\n"
        "assert 'scipy.stats' not in sys.modules, 'import identikit'\n"
        "sys.argv = ['identikit', '--list-models']\n"
        "try:\n"
        "    runpy.run_module('identikit.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "assert 'scipy.stats' not in sys.modules, '--list-models'\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "redundant-exponential" in proc.stdout
