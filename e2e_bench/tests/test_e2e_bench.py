"""Tests of the end-to-end benchmark itself, at tiny input sizes."""

from __future__ import annotations

import gzip
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2e_bench import run as bench  # noqa: E402
from e2e_bench.layers import PER_LAYER_UNITS, install_layer_patches, install_setup_patches  # noqa: E402
from e2e_bench.tracing import Tracer  # noqa: E402
from e2e_bench.workloads import (  # noqa: E402
    WORKLOADS,
    CatalogWorkload,
    conservation_problems,
    delivery_problems,
    equality_problems,
)


def _row(**overrides):
    row = dict(
        scenario="steady_state",
        requests=100,
        completed=97,
        dropped=3,
        mean_ms=12.0,
        p50_ms=10.0,
        p95_ms=40.0,
        p99_ms=90.0,
        hit_ratio=0.5,
    )
    row.update(overrides)
    return row


def _tiny(workload, trace, **options):
    options.setdefault("setup_probes", 1)
    return bench.run(workload, seed=3, seconds=0.0, trace=trace, tiny=True, **options)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_emits_every_end_to_end_metric(workload):
    result = _tiny(workload, trace=False, out_dir=None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.END_TO_END_UNITS[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


_MODELED = ("sim_latency_ms.p50", "sim_latency_ms.p99", "hit_ratio", "completed_ratio", "mismatch.mean",
            "modeled_delivery_ms.mean")


@pytest.mark.parametrize("workload", ["scenario_catalog", "semantic_sessions"])
def test_modeled_metrics_repeat_exactly_for_a_seed(workload):
    first, second = (_tiny(workload, trace=False, out_dir=None) for _ in range(2))
    for name in _MODELED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _patch_targets():
    tracer = Tracer()
    targets = []
    for install in (install_setup_patches, install_layer_patches):
        with tracer.installed(install):
            targets.extend((owner, attribute, original) for owner, attribute, original in tracer.patches)
    return targets


#: A layer metric each workload must exercise at any size.
_EXERCISED = {
    "scenario_catalog": ("sim.replay_self_s", "scenarios.hook_calls", "sim.events"),
    "policy_catalog": ("placement.solves", "placement.solve_s", "sim.events"),
    "catalog_vectorized": ("vectorized.serial_s", "vectorized.fallbacks", "sim.events"),
    "semantic_sessions": ("semantic.finetunes", "channel.transmit_s", "semantic.pretrain_s"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_restores_every_patch(workload, tmp_path):
    targets = _patch_targets()
    assert targets
    for owner, attribute, original in targets:
        assert vars(owner)[attribute] is original

    result = _tiny(workload, trace=True, out_dir=tmp_path)

    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER_UNITS[name]
        assert math.isfinite(metric["value"]), name
    for name in _EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    for owner, attribute, original in targets:
        assert vars(owner)[attribute] is original, f"{owner.__name__}.{attribute} left patched"
    with gzip.open(tmp_path / f"{workload}-seed3.spans.jsonl.gz", "rt") as handle:
        spans = [json.loads(line) for line in handle]
    assert any(span.get("parent") is not None for span in spans)


def test_traced_run_restores_patches_when_a_call_raises():
    targets = _patch_targets()
    tracer = Tracer(install_layer_patches)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("call failed")
    for owner, attribute, original in targets:
        assert vars(owner)[attribute] is original


def test_self_time_subtracts_child_and_aggregated_spans():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 1], ["inner", 1.0, 4.0, 0, 1]]
    tracer.aggregates = {("hook", 1): ["hook", 50, 2.0, 1, 1], ("hook", 0): ["hook", 10, 1.0, 0, 1]}
    times = tracer.self_times()
    assert times["outer"][1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert times["inner"][1] == pytest.approx(3.0 - 2.0)
    assert times["hook"][1] == pytest.approx(3.0)
    assert tracer.calls("hook")[1] == 60


def test_conservation_check_fires_on_a_forged_summary():
    assert conservation_problems([_row()]) == []
    assert conservation_problems([_row(shed=2, completed=95)]) == []
    forged = [_row(completed=98)]
    assert conservation_problems(forged)


def test_vectorized_equality_check_fires_on_a_forged_summary():
    serial = [_row()]
    assert equality_problems([_row()], serial) == []
    assert equality_problems([_row(p99_ms=90.5)], serial)
    assert equality_problems([], serial)


def test_delivery_check_fires_on_lost_or_impossible_deliveries():
    class _Latency:
        total_s = 0.012

    class _Report:
        restored_text = "hello"
        mismatch = 0.2
        latency = _Latency()

    assert delivery_problems([_Report()], sent=1) == []
    assert delivery_problems([_Report()], sent=2)
    broken = _Report()
    broken.mismatch = 1.5
    assert delivery_problems([broken], sent=1)


def test_gate_fails_the_run_when_vectorized_rows_differ_from_serial(monkeypatch, capsys):
    original = CatalogWorkload.reference_rows

    def forged(self):
        return [dict(row, p50_ms=row["p50_ms"] + 1.0) for row in original(self)]

    monkeypatch.setattr(CatalogWorkload, "reference_rows", forged)
    result = _tiny("catalog_vectorized", trace=False, out_dir=None)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2
    code = bench.main(["--workload", "catalog_vectorized", "--seed", "3", "--seconds", "0", "--tiny"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_gate_fails_the_run_when_a_replay_loses_requests(monkeypatch):
    from repro.scenarios import runner

    original = runner.run_scenario

    def losing(*args, **kwargs):
        result = original(*args, **kwargs)
        result.summary["completed"] -= 1
        return result

    monkeypatch.setattr(runner, "run_scenario", losing)
    result = _tiny("scenario_catalog", trace=False, out_dir=None)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
