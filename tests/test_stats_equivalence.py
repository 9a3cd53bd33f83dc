"""The chi-square quantile and the Latin-hypercube starts match scipy.stats.

The package computes both without importing scipy.stats, which costs more to
import than a small analysis takes to run.  These tests hold the two
replacements to scipy's results bit for bit, and check in a fresh interpreter
that importing the package and running its CLI leave scipy.stats unloaded, and
that runs with a chi-square quantile or an ODE model load only scipy's compiled
extensions, never the ``scipy`` package.  A recovery-only run loads no scipy module
and no ``numpy.ma`` module beyond those ``import numpy`` loads.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, qmc

import identikit as ik
from identikit.estimation import latin_hypercube_starts
from identikit.fim import chi2_quantile
from identikit.models import builtin_registry

ROOT = Path(__file__).resolve().parents[1]
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

MODELS = builtin_registry() + [ik.get_model("biexponential", ordered=True)]


def scipy_starts(model, k_starts, seed):
    """Start points as scipy's LatinHypercube draws them over the box, orderings aside."""
    space = model.space
    unit = qmc.LatinHypercube(d=space.dimension, seed=np.random.default_rng(seed)).random(k_starts)
    return space.lower + unit * (space.upper - space.lower)


@PROPERTY_SETTINGS
@given(model=st.sampled_from(MODELS), k_starts=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_latin_hypercube_starts_equal_scipy_bitwise(model, k_starts, seed):
    ours = latin_hypercube_starts(model, k_starts, seed)
    assert ours.tobytes() == scipy_starts(model, k_starts, seed).tobytes()


@PROPERTY_SETTINGS
@given(df=st.integers(1, 10),
       level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_chi2_quantile_equals_scipy_bitwise(df, level):
    assert chi2_quantile(level, df).hex() == float(chi2.ppf(level, df)).hex()


def test_import_and_cli_leave_scipy_stats_unloaded(tmp_path):
    # a recovery-only run loads no scipy module at all; the first chi-square quantile loads
    # gammaincinv's compiled extension and an ODE run LSODA's, each from its file, so neither
    # scipy's package nor scipy.special, scipy.integrate and what they import ever loads
    config = json.loads((ROOT / "configs" / "reciprocal_recovery.json").read_text())
    config["recover"].update(k_trials=3, n_starts=4)
    (tmp_path / "run.json").write_text(json.dumps(config))
    ode_config = json.loads((ROOT / "bench" / "configs" / "logistic_ode.json").read_text())
    ode_config["fit"]["starts"] = 2
    ode_config["profile"].update(parameters=[0], points=3)
    (tmp_path / "ode.json").write_text(json.dumps(ode_config))
    redundant = json.loads((ROOT / "configs" / "redundant_structural.json").read_text())
    redundant["fit"]["starts"] = 2
    redundant["profile"]["points"] = 5
    (tmp_path / "redundant.json").write_text(json.dumps(redundant))
    probe = (
        "import runpy, sys\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "def cli(*argv):\n"
        "    sys.argv = ['identikit', *argv]\n"
        "    try:\n"
        "        runpy.run_module('identikit.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
        "import identikit\n"
        "assert 'scipy.stats' not in sys.modules, 'import identikit'\n"
        "assert not scipy_loaded(), ('import identikit', scipy_loaded()[:3])\n"
        "cli('--list-models')\n"
        "assert 'scipy.stats' not in sys.modules, '--list-models'\n"
        "assert not scipy_loaded(), ('--list-models', scipy_loaded()[:3])\n"
        f"cli('recover', '--config', {str(tmp_path / 'run.json')!r}, '--out', {str(tmp_path / 'out')!r})\n"
        "assert not scipy_loaded(), ('recover', scipy_loaded()[:3])\n"
        f"cli('all', '--config', {str(tmp_path / 'ode.json')!r}, '--out', {str(tmp_path / 'ode')!r})\n"
        "heavy = [m for m in scipy_loaded() if m.startswith(('scipy.integrate', 'scipy.optimize',\n"
        "                                                    'scipy.sparse', 'scipy.stats'))]\n"
        "assert not heavy, ('all on an ODE model', heavy[:3])\n"
        "assert scipy_loaded() == ['scipy.special._special_ufuncs'], ('all on an ODE model', scipy_loaded())\n"
        f"cli('all', '--config', {str(tmp_path / 'redundant.json')!r}, '--out', {str(tmp_path / 'redundant')!r})\n"
        "assert scipy_loaded() == ['scipy.special._special_ufuncs'], ('all with a profile', scipy_loaded())\n"
        "import scipy.special\n"
        "from identikit.fim import chi2_quantile\n"
        "for df in (1, 2, 3, 7, 40):\n"
        "    for level in (1e-300, 1e-9, 0.5, 0.95, 1 - 1e-12):\n"
        "        public = float(2.0 * scipy.special.gammaincinv(df / 2, level))\n"
        "        assert chi2_quantile(level, df).hex() == public.hex(), (df, level)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "redundant-exponential" in proc.stdout
    assert (tmp_path / "out" / "recovery.csv").is_file()
    assert json.loads((tmp_path / "ode" / "summary.json").read_text())["results"]["fim"]["rank"] == 3
    results = json.loads((tmp_path / "redundant" / "summary.json").read_text())["results"]
    assert results["fim"]["classification"] == "rank-deficient" and "0" in results["profile"]


def test_recovery_run_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # the error quantiles are numpy's, computed on a sort: np.quantile's partition goes
    # through np.unique, which imports numpy.ma (about 16 ms in a fresh interpreter); numpy 1.x
    # loads numpy.ma with numpy itself, so only the modules the run adds to `import numpy`'s count
    probe = (
        "import runpy, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['identikit', 'recover', '--config', {str(ROOT / 'configs' / 'reciprocal_recovery.json')!r},\n"
        f"            '--out', {str(tmp_path / 'out')!r}]\n"
        "try:\n"
        "    runpy.run_module('identikit.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "loaded = sorted(m for m in set(sys.modules) - before\n"
        "                if m in ('scipy', 'numpy.ma') or m.startswith(('scipy.', 'numpy.ma.')))\n"
        "assert not loaded, loaded[:3]\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["results"]["recovery"]["success_rate"] == 1.0
