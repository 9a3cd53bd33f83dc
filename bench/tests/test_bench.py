"""Tests of the benchmark's tracer and of the work counts it reports.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import traced_cli  # noqa: E402


def _spans(tracer):
    return tracer.report()["spans"]


def test_self_time_excludes_same_thread_children():
    tracer = traced_cli.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    spans = _spans(tracer)
    assert spans["inner"]["calls"] == 2
    assert spans["outer"]["s"] - spans["outer"]["self_s"] == pytest.approx(spans["inner"]["s"], abs=1e-9)


def test_nested_call_into_the_same_layer_is_one_span():
    tracer = traced_cli.Tracer()
    g = tracer.wrap("layer", lambda: 1)
    f = tracer.wrap("layer", lambda: g() + 1)
    assert f() == 2
    assert _spans(tracer)["layer"]["calls"] == 1


def test_pool_wait_stays_in_parent_self_time():
    tracer = traced_cli.Tracer()
    work = tracer.wrap("work", lambda _: time.sleep(0.01))

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))

    tracer.wrap("parent", parent)()
    spans = _spans(tracer)
    assert spans["work"]["calls"] == 4
    assert spans["parent"]["self_s"] == spans["parent"]["s"]


def test_result_hook_rekeys_and_counts():
    tracer = traced_cli.Tracer()

    def hook(result, counts, stack):
        counts["seen"] += result
        return f"layer.{result}"

    f = tracer.wrap("layer", lambda x: x, hook)
    f(3)
    f(3)
    report = tracer.report()
    assert report["spans"]["layer.3"]["calls"] == 2
    assert report["counts"] == {"seen": 6}


def test_install_patches_every_namespace_and_uninstall_restores():
    import identikit.cli
    import identikit.recovery
    import identikit.sensitivity
    from identikit import estimation, models

    originals = (estimation.multi_start_fit, models.evaluate)
    patched = traced_cli.install(traced_cli.Tracer())
    try:
        wrapped_fit = identikit.cli.multi_start_fit
        assert wrapped_fit is not originals[0]
        assert identikit.recovery.multi_start_fit is wrapped_fit
        assert identikit.sensitivity.evaluate is models.evaluate is not originals[1]
    finally:
        traced_cli.uninstall(patched)
    assert (estimation.multi_start_fit, models.evaluate) == originals
    assert identikit.cli.multi_start_fit is originals[0]


def test_reference_speed_scales_mean_time_by_mean_calibration():
    ref = run.CALIBRATION_REF_S
    assert run.at_reference_speed([(2.0, 2 * ref), (4.0, 2 * ref)]) == pytest.approx(1.5)
    assert run.at_reference_speed([(1.0, ref / 2), (1.0, ref)]) == pytest.approx(4 / 3)


def _bench(tmp_path, workload, seed):
    work = tmp_path / "work"
    work.mkdir()
    return run.Bench(ROOT, workload, seed, work)


def test_redundant_counts_repeat_and_metrics_match_benchmark_json(tmp_path):
    bench = _bench(tmp_path, run.WORKLOADS["redundant-structural"], seed=11)
    untraced = bench.run_cli()
    traced = [bench.run_cli(traced=True) for _ in range(2)]
    assert bench.failed == 0, bench.problems
    counts = run.work_counts(traced[0].trace)
    assert counts == run.work_counts(traced[1].trace)
    assert counts["estimation.fit.calls"] > 0 and counts["models.evaluate.calls"] > 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = run.layer_metrics([untraced], traced)
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in declared["per_layer"])
    e2e = run.end_to_end_metrics(bench, [(1.0, 1.0)], [untraced])
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in declared["end_to_end"])


def test_recovery_counts_repeat_across_thread_counts(tmp_path):
    raw = json.loads((ROOT / "configs" / "reciprocal_recovery.json").read_text())
    raw["recover"].update(k_trials=6, n_starts=4)
    config = tmp_path / "small_recovery.json"
    config.write_text(json.dumps(raw))
    bench = _bench(tmp_path, run.Workload(str(config), 2, lambda results: []), seed=5)
    bench.take_reference()
    runs = [bench.run_cli(threads=t, traced=True) for t in (2, 2, 1)]
    assert bench.failed == 0, bench.problems
    counts = [run.work_counts(r.trace) for r in runs]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["recovery.trial.calls"] == 6
    assert counts[0]["estimation.fit.calls"] == 24
