"""The README's library quick start runs as written, and the package exports its names."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import identikit as ik

ROOT = Path(__file__).resolve().parents[1]

# the quick start's names and the two errors the README names for library users
EXPORTS = ["get_model", "Design", "generate_data", "multi_start_fit", "cluster_optima", "fim_report",
           "confidence_ellipsoid", "profile_parameter", "Prior", "sobol_indices", "global_recovery",
           "EvaluationError", "OutOfBoundsError"]


def quick_start() -> str:
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs_in_a_fresh_interpreter():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", quick_start()], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert "2 distinct optima" in run.stdout.splitlines()[0]


def test_the_package_exports_the_quick_start_and_its_errors():
    assert ik.__all__ == EXPORTS
    for name in ik.__all__:
        assert not isinstance(getattr(ik, name), types.ModuleType), name
    namespace = {}
    exec("from identikit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)
    used = set(re.findall(r"\bik\.(\w+)", quick_start()))
    assert used and used <= set(ik.__all__)
