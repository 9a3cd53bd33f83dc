"""identikit benchmark: ``identikit all`` on four workloads, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload biexp-all [--seed S] [--seconds 30] [--trace 0|1]

Load: one closed-loop client.  Each repeat is a fresh process
``python -m identikit.cli all --config C --out <tmp> --threads T --seed S``
with ``PYTHONPATH=src`` and every BLAS thread variable set to 1, so that
``--threads`` is the only parallelism; the next repeat starts only after the
previous one exits.  ``--seed`` (default: the workload config's own seed) is
passed to the CLI unchanged, except on ``biexp-all``, whose work depends on
the seed (see ``WORKLOADS``) and which always runs with its config's seed.

``--trace 0`` reports the end-to-end metrics: the wall time of one CLI
process (``wall_s``), the set-up time of a fresh process that imports
identikit and parses the config (``setup_s``), both at a reference host
speed (see below), the median peak RSS of the CLI process (``peak_rss_mb``,
from ``wait4``) and the share of operations that succeeded (``ok_ratio``).
``--trace 1`` alternates untraced runs with runs of ``bench/traced_cli.py``
and reports per-layer metrics.

Host-speed adjustment: on a shared machine the speed of the CPU drifts by a
third and more over minutes, so raw wall times of runs made minutes apart
are not comparable.  Every timed process is therefore bracketed by two runs
of a fixed calibration job (interpreter and small-array numpy work, like the
CLI's own), and ``wall_s`` and ``setup_s`` are reported at a reference host
speed: the mean raw time of the run's processes, times ``CALIBRATION_REF_S``
over the mean time of the calibration jobs that bracket them.  Means, not
medians, because a run holds only three or four CLI processes and the ratio
of the two means tracks the drift best.  The job does not touch identikit, so
a change to identikit moves these times exactly as it moves raw wall time.
Raw medians, quartiles and calibration times are printed beside them.

Every CLI run is checked: exit code 0, the workload's ground-truth verdicts
in ``summary.json``, and, for a workload run with more than one thread, every
output file byte-identical (apart from ``timestamp``) to an untimed
``--threads 1`` run.  Traced runs must also repeat their work counters
exactly.  A run failing any check counts as failed.

Detail lines go to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

SETUP_SAMPLES = 5          # set-up probes per run
MIN_RUNS = 3               # untraced CLI runs per run, even past --seconds
CALIBRATION_REF_S = 0.2    # the calibration job's typical time on a 2-vCPU Xeon VM
MIN_TRACED_RUNS = 2
RUN_TIMEOUT_S = 60.0       # one CLI process; the slowest workload takes ~6 s
DEADLINE_S = 150.0         # whole benchmark; processes still running then are killed
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
FIT_REASONS = ("small-gradient", "small-step", "boundary", "max-iter")
BENCH_DIR = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# workloads and their output checks
# ---------------------------------------------------------------------------


def _expect(problems: list[str], label: str, actual, expected) -> None:
    if actual != expected:
        problems.append(f"{label} is {actual!r}, expected {expected!r}")


def check_logistic(results: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "fim.classification", results["fim"]["classification"], "identifiable")
    for i in ("0", "1"):
        _expect(problems, f"profile.{i}.classification",
                results["profile"][i]["classification"], "identifiable")
    return problems


def check_biexp_all(results: dict) -> list[str]:
    # Same FIM and profile verdicts as the logistic run.  The recovery verdict
    # and success rate are left unpinned: they reflect optimiser stalls that
    # later work is expected to change.
    problems = check_logistic(results)
    rec = results["recovery"]
    if not rec["symmetry_success_rate"] >= rec["success_rate"]:
        problems.append(f"recovery.symmetry_success_rate {rec['symmetry_success_rate']} "
                        f"< success_rate {rec['success_rate']}")
    return problems


def check_reciprocal(results: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "recovery.verdict", results["recovery"]["verdict"], "practically-identifiable")
    return problems


def check_redundant(results: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "fim.classification", results["fim"]["classification"], "rank-deficient")
    _expect(problems, "profile.0.classification", results["profile"]["0"]["classification"],
            "structurally-unidentifiable-flat")
    return problems


@dataclass(frozen=True)
class Workload:
    config: str            # relative to the repository root
    threads: int
    check: Callable[[dict], list[str]]
    seeded: bool = True    # pass the benchmark seed to the CLI as --seed


WORKLOADS = {
    # Every analysis: LM fits, analytic Jacobians, profiles, Sobol with
    # bootstrap, recovery.  Batching and an LM replacement show here.  It
    # always runs with the config's seed: its 20 recovery trials hit LM stalls
    # that depend on the seed, so its work varies 4x between seeds (9,810 to
    # 45,675 LM iterations over seeds 1-8) and no run length makes wall_s
    # comparable across seeds.
    "biexp-all": Workload("configs/biexponential_all.json", 1, check_biexp_all, seeded=False),
    # Recovery only, 800 one-parameter fits on two threads: the parallelism
    # workload, and one theta per evaluate call.
    "reciprocal-recover-t2": Workload("configs/reciprocal_recovery.json", 2, check_reciprocal),
    # The only workload on the ODE routes (solve_ivp and forward sensitivities).
    "logistic-ode": Workload("bench/configs/logistic_ode.json", 1, check_logistic),
    # Analysis is a small share of wall time, so set-up dominates; the only
    # rank-deficient FIM and flat profile.
    "redundant-structural": Workload("configs/redundant_structural.json", 1, check_redundant),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    calibration_s: float = math.nan   # mean of the calibration jobs just before and after


def calibration_job() -> float:
    """Seconds taken by a fixed job of interpreter and small-array numpy work."""
    import numpy as np

    x = np.linspace(0.0, 4.0, 12)
    acc = 0.0
    start = perf_counter()
    for i in range(36_000):
        y = np.exp(-x * (1.0 + i * 1e-4))
        acc += float(y @ y)
        for j in range(40):
            acc += j * 0.5
    return perf_counter() - start


class HostSpeed:
    """Calibration jobs run between the timed processes."""

    def __init__(self):
        self.calibrations = [calibration_job()]

    def bracket(self) -> float:
        """Run the job again, right after a timed process; return the mean of
        the job's times just before and just after that process."""
        self.calibrations.append(calibration_job())
        return (self.calibrations[-2] + self.calibrations[-1]) / 2


def at_reference_speed(samples: list[tuple[float, float]]) -> float:
    """Mean raw seconds of (raw, calibration) samples, scaled to ``CALIBRATION_REF_S``."""
    raw = statistics.fmean(r for r, _ in samples)
    return raw * CALIBRATION_REF_S / statistics.fmean(c for _, c in samples)


def spawn(argv: list[str], env: dict, cwd: Path, log_path: Path, timeout: float):
    """Run ``argv`` to completion; return (exit code, wall seconds, rusage).

    The child is reaped with ``wait4`` so its own CPU time and peak RSS are
    read; a child still running after ``timeout`` seconds is killed.
    """
    with log_path.open("wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def snapshot(out_dir: Path) -> dict[str, bytes]:
    """Every output file's bytes, with the run timestamp blanked."""
    return {
        p.name: _TIMESTAMP.sub(b'"timestamp": ""', p.read_bytes())
        for p in sorted(out_dir.iterdir())
    }


def _log_tail(path: Path, lines: int = 3) -> str:
    text = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


class Bench:
    """Runs one workload's processes and keeps the operation tally."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] | None = None
        self.deadline = perf_counter() + DEADLINE_S
        self._k = 0

    def _spawn(self, argv: list[str], log: Path):
        timeout = max(1.0, min(RUN_TIMEOUT_S, self.deadline - perf_counter()))
        return spawn(argv, self.env, self.root, log, timeout)

    def _tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def probe_setup(self) -> float | None:
        self._k += 1
        log = self.work / f"setup-{self._k}.log"
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), self.workload.config]
        code, wall, _ = self._spawn(argv, log)
        problems = [] if code == 0 else [f"setup probe exit code {code}: {_log_tail(log)}"]
        self._tally(problems)
        return None if problems else wall

    def _cli_args(self, out: Path, threads: int) -> list[str]:
        return ["all", "--config", self.workload.config, "--out", str(out),
                "--threads", str(threads), "--seed", str(self.seed)]

    def run_cli(self, threads: int | None = None, traced: bool = False) -> Run:
        self._k += 1
        threads = self.workload.threads if threads is None else threads
        out = self.work / f"out-{self._k}"
        log = self.work / f"cli-{self._k}.log"
        trace_path = self.work / f"trace-{self._k}.json"
        cli_args = self._cli_args(out, threads)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "identikit.cli", *cli_args]
        code, wall, usage = self._spawn(argv, log)
        run = Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if code != 0:
            run.problems.append(f"exit code {code}: {_log_tail(log)}")
        else:
            run.problems.extend(self._check_outputs(out))
            if traced:
                run.trace = json.loads(trace_path.read_text())
                run.trace["out_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        if out.exists():
            shutil.rmtree(out)
        self._tally(run.problems)
        return run

    def _check_outputs(self, out: Path) -> list[str]:
        files = snapshot(out)
        try:
            problems = self.workload.check(json.loads(files["summary.json"])["results"])
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"summary.json unreadable or incomplete: {exc!r}"]
        if self.reference is not None and files != self.reference:
            differing = sorted(n for n in files.keys() | self.reference.keys()
                               if files.get(n) != self.reference.get(n))
            problems.append(f"outputs differ from the --threads 1 run: {differing}")
        return problems

    def take_reference(self) -> None:
        """Untimed ``--threads 1`` run that multi-threaded runs must match."""
        out = self.work / "reference"
        log = self.work / "reference.log"
        argv = [sys.executable, "-m", "identikit.cli", *self._cli_args(out, 1)]
        code, _, _ = self._spawn(argv, log)
        problems = [f"reference run exit code {code}: {_log_tail(log)}"] if code else []
        if not problems:
            problems = self._check_outputs(out)
            self.reference = snapshot(out)
        self._tally(problems)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def closed_loop(bench: Bench, seconds: float, traced: bool):
    """Set-up probes, then CLI runs back to back until the next would overrun ``seconds``.

    The untimed reference and warm-up runs come before the window.  Returns
    the set-up times as (raw, calibration) pairs, the untraced and traced
    runs, and the calibration times.
    """
    if bench.workload.threads > 1:
        bench.take_reference()
    bench.probe_setup()  # warm-up: writes bytecode caches; not reported
    start = perf_counter()
    speed = HostSpeed()
    setups: list[tuple[float, float]] = []
    for _ in range(0 if traced else SETUP_SAMPLES):
        raw = bench.probe_setup()
        calibration = speed.bracket()
        if raw is not None:
            setups.append((raw, calibration))
    runs: list[Run] = []
    traced_runs: list[Run] = []
    while True:
        step = perf_counter()
        for is_traced in (False, True) if traced else (False,):
            run = bench.run_cli(traced=is_traced)
            run.calibration_s = speed.bracket()
            (traced_runs if is_traced else runs).append(run)
        now = perf_counter()
        enough = len(runs) >= MIN_RUNS and (not traced or len(traced_runs) >= MIN_TRACED_RUNS)
        if (enough and now - start + (now - step) > seconds) or now > bench.deadline:
            return setups, runs, traced_runs, speed.calibrations


def _ok(runs: list[Run]) -> list[Run]:
    return [r for r in runs if not r.problems]


def end_to_end_metrics(bench: Bench, setups: list[tuple[float, float]], runs: list[Run]) -> dict:
    ok = _ok(runs)
    return {
        "wall_s": (at_reference_speed([(r.wall_s, r.calibration_s) for r in ok]), "s"),
        "setup_s": (at_reference_speed(setups), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in ok), "MB"),
        "ok_ratio": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }


def work_counts(trace: dict) -> dict:
    """The deterministic part of a trace: calls per span, counters, bytes written."""
    counts = {f"{key}.calls": span["calls"] for key, span in trace["spans"].items()}
    counts.update(trace["counts"])
    counts["serialize.bytes"] = trace["out_bytes"]
    return counts


def layer_metrics(runs: list[Run], traced_runs: list[Run]) -> dict:
    traces = [r.trace for r in _ok(traced_runs)]
    counts = work_counts(traces[0])

    def count(name: str) -> int:
        return counts.get(name, 0)

    def seconds(key: str, part: str) -> float:
        return statistics.median(t["spans"].get(key, {}).get(part, 0.0) for t in traces)

    m: dict[str, tuple[float, str]] = {
        "process.import_s": (statistics.median(t["import_s"] for t in traces), "s"),
        "config.parse_s": (seconds("config", "s"), "s"),
    }
    for key in ("models.evaluate", "sensitivity.analytic", "sensitivity.forward-ode",
                "sensitivity.fd", "estimation.fit"):
        m[f"{key}.calls"] = (count(f"{key}.calls"), "count")
        m[f"{key}.self_s"] = (seconds(key, "self_s"), "s")
    fits = count("estimation.fit.calls")
    m["estimation.fit.iterations"] = (count("estimation.fit.iterations"), "count")
    m["estimation.fit.converged_ratio"] = (
        count("estimation.fit.converged") / fits if fits else 0.0, "ratio")
    for reason in FIT_REASONS:
        m[f"estimation.fit.reason.{reason}"] = (count(f"estimation.fit.reason.{reason}"), "count")
    m["estimation.starts.self_s"] = (seconds("estimation.starts", "self_s"), "s")
    m["estimation.multi_start.self_s"] = (seconds("estimation.multi_start", "self_s"), "s")
    m["profile.s"] = (seconds("profile", "s"), "s")
    m["profile.refits"] = (count("profile.refits"), "count")
    m["profile.truncated"] = (count("profile.truncated"), "count")
    m["sobol.s"] = (seconds("sobol", "s"), "s")
    m["sobol.self_s"] = (seconds("sobol", "self_s"), "s")
    m["sobol.resampled"] = (count("sobol.resampled"), "count")
    m["recovery.trials"] = (count("recovery.trial.calls"), "count")
    m["recovery.s"] = (seconds("recovery", "s"), "s")
    m["recovery.wait_s"] = (seconds("recovery", "self_s"), "s")
    m["fim.calls"] = (count("fim.calls"), "count")
    m["fim.self_s"] = (seconds("fim", "self_s"), "s")
    m["serialize.calls"] = (count("serialize.calls"), "count")
    m["serialize.s"] = (seconds("serialize", "s"), "s")
    m["serialize.bytes"] = (count("serialize.bytes"), "bytes")
    m["cli.self_s"] = (seconds("cli", "self_s"), "s")
    m["process.cpu_s"] = (statistics.median(r.cpu_s for r in _ok(runs)), "s")
    m["trace.overhead_s"] = (
        at_reference_speed([(r.wall_s, r.calibration_s) for r in _ok(traced_runs)])
        - at_reference_speed([(r.wall_s, r.calibration_s) for r in _ok(runs)]), "s")
    return m


def check_counts_repeat(bench: Bench, traced_runs: list[Run]) -> None:
    traces = [r.trace for r in _ok(traced_runs)]
    first = work_counts(traces[0])
    for k, trace in enumerate(traces[1:], start=2):
        other = work_counts(trace)
        if other != first:
            keys = sorted(n for n in first.keys() | other.keys() if first.get(n) != other.get(n))
            bench.failed += 1
            bench.problems.append(f"traced run {k} counted different work: {keys}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads_found": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_children": "1",
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50/p90/p99 with at least ten samples above it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 90, 50):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def describe(name: str, samples: list[float], unit: str) -> str:
    line = f"  {name}: n={len(samples)} median={statistics.median(samples):.6g}"
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        line += f" p25={q1:.6g} p75={q3:.6g}"
    tail = tail_percentile(samples)
    line += f" {unit}; highest percentile with >=10 samples beyond it: "
    return line + (f"p{tail[0]:g}={tail[1]:.6g} {unit}" if tail else "none")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to the CLI as --seed (default: the config's seed; "
                             "biexp-all always uses its config's seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    if not (root / "src" / "identikit" / "cli.py").is_file() or not (root / workload.config).is_file():
        print("run from the repository root: src/identikit or the workload config is missing",
              file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None or not workload.seeded:
        seed = json.loads((root / workload.config).read_text()).get("seed", 0)

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, workload, seed, work)
        setups, runs, traced_runs, calibrations = closed_loop(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another benchmark is using it

    if not _ok(runs) or (args.trace and not _ok(traced_runs)) or (not args.trace and not setups):
        for problem in bench.problems:
            print(f"problem: {problem}", file=sys.stderr)
        print("no successful run to measure", file=sys.stderr)
        return 1
    if args.trace:
        check_counts_repeat(bench, traced_runs)
        metrics = layer_metrics(runs, traced_runs)
    else:
        metrics = end_to_end_metrics(bench, setups, runs)

    print(f"workload {args.workload}: {workload.config} --threads {workload.threads} --seed {seed}")
    print("environment " + json.dumps(environment()))
    print("samples (one closed-loop client, fresh process per run):")
    print(f"  wall_s and setup_s below are at the reference host speed, where the calibration "
          f"job takes {CALIBRATION_REF_S} s")
    print(describe("calibration job", calibrations, "s"))
    print(describe("wall_s untraced, raw", [r.wall_s for r in _ok(runs)], "s"))
    if args.trace:
        print(describe("wall_s traced, raw", [r.wall_s for r in _ok(traced_runs)], "s"))
    else:
        print(describe("setup_s, raw", [raw for raw, _ in setups], "s"))
        print("  peak_rss_mb is ru_maxrss of the single CLI process (no worker processes)")
    fail_ratio = bench.failed / bench.attempted
    print(f"fail_ratio = {fail_ratio:g} ratio ({bench.failed} of {bench.attempted} operations)")
    for problem in bench.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
