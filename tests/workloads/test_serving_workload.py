"""The serving workload end to end: clients, updates, faults, gating."""

from __future__ import annotations

import json

import pytest

from repro.analysis.benchgate import GATES
from repro.errors import ConfigError
from repro.serving import ServingConfig
from repro.workloads.serving import (
    FlashCrowdConfig,
    ServingWorkloadConfig,
    run_multiget_ablation,
    run_serving,
)


def small_config(**overrides) -> ServingWorkloadConfig:
    defaults = dict(
        days=1,
        duration_s=4.0,
        qps_per_node=40.0,
        flash=FlashCrowdConfig(duration_s=1.0, multiplier=4.0),
    )
    defaults.update(overrides)
    return ServingWorkloadConfig(**defaults)


def test_serving_smoke_reports_slo_and_counters():
    result = run_serving(small_config())
    fleet = result.data["serving"]["fleet"]
    assert fleet["requests"] > 0
    assert fleet["admitted"] + fleet["shed"] == fleet["requests"]
    assert fleet["slo_met"]
    assert result.data["achieved_qps"] > 0
    # reads actually went through the batched path
    assert result.data["group_reads"]["multi_gets"] > 0
    assert fleet["batched_keys"] == fleet["admitted"]
    # pipelined updates delivered while serving
    assert len(result.data["cycles"]) == 2
    assert all(c["keys_delivered"] > 0 for c in result.data["cycles"])


def test_serving_is_deterministic_for_a_seed():
    first = run_serving(small_config()).data
    second = run_serving(small_config()).data
    assert first["serving"]["fleet"] == second["serving"]["fleet"]
    assert first["group_reads"] == second["group_reads"]


def test_serving_without_updates_serves_bootstrap_only():
    result = run_serving(small_config(updates="none", flash=None))
    assert len(result.data["cycles"]) == 1
    assert result.data["serving"]["fleet"]["requests"] > 0


def test_serving_under_chaos_plan_survives():
    result = run_serving(
        small_config(plan="single-node-crash", duration_s=6.0)
    )
    fleet = result.data["serving"]["fleet"]
    assert fleet["requests"] > 0
    assert result.injector is not None
    assert result.injector.counters.node_crashes >= 1


def test_overloaded_serving_sheds_but_holds_admitted_slo():
    result = run_serving(
        small_config(
            qps_per_node=150.0,
            flash=FlashCrowdConfig(multiplier=12.0, duration_s=2.0),
            serving=ServingConfig(
                coalesce_window_s=0.005, max_queue_depth_per_replica=2
            ),
        )
    )
    fleet = result.data["serving"]["fleet"]
    assert fleet["shed"] > 0
    assert fleet["slo_met"]


def test_config_validation():
    with pytest.raises(ConfigError):
        ServingWorkloadConfig(updates="sometimes")
    with pytest.raises(ConfigError):
        ServingWorkloadConfig(qps_per_node=0)
    with pytest.raises(ConfigError):
        ServingWorkloadConfig(diurnal_amplitude=1.5)


def test_multiget_ablation_meets_acceptance_floor():
    ablation = run_multiget_ablation(reads_per_dc=128)
    assert ablation["digests_match"]
    assert ablation["speedup"] >= 3.0
    assert ablation["per_key"]["keys"] == ablation["batched"]["keys"]


def entry(speedup=4.0, digests=True, slo=True, batched_rate=60_000.0):
    return {
        "label": "x",
        "ablation": {
            "speedup": speedup,
            "digests_match": digests,
            "batched": {"keys_per_device_s": batched_rate},
        },
        "serving": {"fleet": {"slo_met": slo, "p99_s": 0.1, "slo_p99_s": 0.05}},
    }


def test_compare_serving_entries_gates(tmp_path):
    gate = GATES["serving"]
    bench = tmp_path / "BENCH_serving.json"
    bench.write_text(json.dumps({"entries": [entry()]}))
    assert gate.check(entry(), str(bench)) == []
    assert gate.check(entry(speedup=2.0))
    assert gate.check(entry(digests=False))
    assert gate.check(entry(slo=False))
    failures = gate.check(entry(batched_rate=10_000.0), str(bench))
    assert any("below" in line for line in failures)


def test_cli_serve_json_and_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_serving.json"
    code = main(
        [
            "serve", "--json", "--duration", "3", "--days", "1",
            "--qps-per-node", "30", "--label", "test",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ablation"]["digests_match"]
    assert data["workload"]["serving"]["fleet"]["requests"] > 0
    bench = json.loads(out.read_text())
    assert bench["benchmark"] == "serving"
    assert bench["entries"][-1]["label"] == "test"
