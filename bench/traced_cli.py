"""Run the identikit CLI with each layer's public functions wrapped in timing spans.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/traced_cli.py TRACE.json all --config run.json --out results/

Everything after ``TRACE.json`` is passed to ``identikit.cli.main``.  The
trace (import time, per-layer calls, total and self seconds, and the
deterministic work counters) is written to ``TRACE.json``, which should lie
outside ``--out`` so the report files stay byte-comparable.

No source file is changed: each wrapped function is replaced in every
``identikit`` module namespace that holds it (``cli.multi_start_fit``,
``recovery.multi_start_fit``, ``sensitivity.evaluate`` ...).  Spans live on a
per-thread stack, so a span's self time is its duration minus the child spans
of the same thread; time a layer spends waiting on a thread pool therefore
stays in that layer's self time.  A call into a layer from inside the same
layer (``design_score`` -> ``fim_report``, ``sensitivity_matrix`` ->
``fd_jacobian``) is part of the outer span, so each Jacobian is counted once.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# SensitivityMatrix.method -> span key
SENSITIVITY_KEYS = {
    "analytic": "sensitivity.analytic",
    "forward-ode": "sensitivity.forward-ode",
    "finite-difference": "sensitivity.fd",
}


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class _Totals:
    """One thread's accumulators; merged only when the trace is reported."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()


class Tracer:
    """Collects spans from wrapped functions, one stack per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: list[_Totals] = []

    def _thread_state(self) -> tuple[list[_Frame], _Totals]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], _Totals())
            with self._lock:
                self._totals.append(state[1])
        return state

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` timed as a span of layer ``name``.

        ``on_result(result, counts, stack)`` may add work counters and
        return a more specific span key than ``name``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, totals = self._thread_state()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            key = name
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    key = on_result(result, totals.counts, stack) or name
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += duration
                totals.calls[key] += 1
                totals.seconds[key] += duration
                totals.self_seconds[key] += duration - frame.child

        return traced

    def report(self) -> dict:
        calls: Counter = Counter()
        seconds: Counter = Counter()
        self_seconds: Counter = Counter()
        counts: Counter = Counter()
        with self._lock:
            for t in self._totals:
                calls.update(t.calls)
                seconds.update(t.seconds)
                self_seconds.update(t.self_seconds)
                counts.update(t.counts)
        spans = {
            key: {"calls": calls[key], "s": seconds[key], "self_s": self_seconds[key]}
            for key in sorted(calls)
        }
        return {"spans": spans, "counts": dict(sorted(counts.items()))}


def _sensitivity_key(result, counts, stack):
    return SENSITIVITY_KEYS.get(result.method, "sensitivity." + result.method)


def _fit_counts(result, counts, stack):
    counts["estimation.fit.iterations"] += result.iterations
    counts["estimation.fit.converged"] += int(result.converged)
    counts["estimation.fit.reason." + result.reason] += 1
    if any(frame.name == "profile" for frame in stack):
        counts["profile.refits"] += 1


def _profile_counts(result, counts, stack):
    counts["profile.truncated"] += int(result.truncated)


def _sobol_counts(result, counts, stack):
    counts["sobol.resampled"] += result.resampled


# (module, public function, layer span, result hook)
LAYERS = (
    ("models", "evaluate", "models.evaluate", None),
    ("sensitivity", "sensitivity_matrix", "sensitivity", _sensitivity_key),
    ("sensitivity", "fd_jacobian", "sensitivity", _sensitivity_key),
    ("sensitivity", "forward_ode_jacobian", "sensitivity", _sensitivity_key),
    ("estimation", "fit", "estimation.fit", _fit_counts),
    ("estimation", "latin_hypercube_starts", "estimation.starts", None),
    ("estimation", "multi_start_fit", "estimation.multi_start", None),
    ("fim", "fim_report", "fim", None),
    ("fim", "assemble_fim", "fim", None),
    ("fim", "design_score", "fim", None),
    ("fim", "confidence_ellipsoid", "fim", None),
    ("fim", "combination_variance", "fim", None),
    ("profile", "profile_parameter", "profile", _profile_counts),
    ("sobol", "sobol_indices", "sobol", _sobol_counts),
    ("recovery", "global_recovery", "recovery", None),
    ("recovery", "recover_once", "recovery.trial", None),
    ("config", "load_raw", "config", None),
    ("config", "validate_config", "config", None),
    ("config", "build_config", "config", None),
    ("serialize", "write_json", "serialize", None),
    ("serialize", "write_csv", "serialize", None),
    ("models", "save_dataset", "serialize", None),
)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every function in ``LAYERS`` wherever an ``identikit`` module binds it.

    Returns ``(module, attribute, original)`` triples so the caller can undo
    the patch.
    """
    import identikit.cli  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "identikit" or n.startswith("identikit.")]
    wrappers = {}
    for module_name, fn_name, span, on_result in LAYERS:
        original = getattr(sys.modules["identikit." + module_name], fn_name)
        wrappers[id(original)] = (original, tracer.wrap(span, original, on_result))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE.json <identikit arguments>", file=sys.stderr)
        return 2
    trace_path, cli_args = Path(argv[0]), argv[1:]
    start = perf_counter()
    import identikit.cli
    import_s = perf_counter() - start

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli", identikit.cli.main)(cli_args)
    trace = {"import_s": import_s, **tracer.report()}
    trace_path.write_text(json.dumps(trace, indent=1) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
