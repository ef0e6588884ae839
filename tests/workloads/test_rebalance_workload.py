"""The growing-fleet rebalance workload and its CI gate."""

import json

import pytest

from repro.analysis.benchgate import GATES
from repro.cli import main
from repro.errors import ConfigError
from repro.workloads.rebalance import (
    RebalanceConfig,
    bench_entry,
    run_rebalance,
)

SMALL = RebalanceConfig(
    days=4,
    split_day=2,
    scale_up_above=1e12,  # keep the short run scripted-split-only
    scale_down_below=1.0,
)


@pytest.fixture(scope="module")
def small_run():
    return run_rebalance(SMALL, tracing=False)


def test_clean_run_holds_every_contract(small_run):
    data = small_run.data
    assert data["lost_acknowledged_keys"] == 0
    assert data["under_replicated_final"] == 0
    assert data["equivalence"]["digests_match"] is True
    assert data["verified_keys"] > 0
    assert data["availability"]["unavailable"] == 0


def test_scripted_split_runs_in_every_dc(small_run):
    operations = small_run.data["operations"]
    splits = [op for op in operations if op["kind"] == "split"]
    assert len(splits) == len(small_run.system.clusters)
    # the fleet actually grew by one group per data center
    fleet = small_run.data["fleet"]
    assert fleet["final"]["groups"] == fleet["start"]["groups"] + len(splits)
    assert all(migrator.idle for migrator in small_run.migrators.values())


def test_report_carries_telemetry_and_health(small_run):
    data = small_run.data
    assert data["telemetry"]["samples"] > 0
    health = data["health"]
    assert "elastic" in health
    assert health["elastic"]["moving_keys"] == 0  # quiesced at the end
    assert health["elastic"]["rebalancing"] is False
    assert data["read_latency"]["overall"]["count"] > 0


def test_crash_during_split_converges():
    config = RebalanceConfig(
        days=4,
        split_day=2,
        plan="crash node=north-dc1/g1/n0 at=0.05 down=2",
        scale_up_above=1e12,
        scale_down_below=1.0,
    )
    data = run_rebalance(config, tracing=False).data
    assert data["faults"]["node_crashes"] == 1
    assert data["faults"]["node_restarts"] == 1
    assert data["lost_acknowledged_keys"] == 0
    assert data["under_replicated_final"] == 0
    assert data["equivalence"]["digests_match"] is True


def test_bench_entry_distils_the_report(small_run):
    entry = bench_entry(small_run.data, label="unit")
    assert entry["label"] == "unit"
    assert entry["zero_loss"] is True
    assert entry["digests_match"] is True
    assert entry["operations"] == len(small_run.data["operations"])
    assert entry["bytes_moved"] > 0
    assert entry["move_duration_s"] > 0


def gate(entry, baseline, tmp_path):
    bench = tmp_path / "BENCH_rebalance.json"
    bench.write_text(json.dumps({"entries": [baseline]}))
    return GATES["rebalance"].check(entry, str(bench))


def test_gate_passes_identical_entries(small_run, tmp_path):
    entry = bench_entry(small_run.data)
    assert gate(entry, dict(entry), tmp_path) == []


def test_gate_fails_broken_contracts_and_regressions(small_run, tmp_path):
    baseline = bench_entry(small_run.data)

    broken = dict(baseline, zero_loss=False)
    assert any(
        "zero_loss" in line for line in gate(broken, baseline, tmp_path)
    )
    diverged = dict(baseline, digests_match=False)
    assert gate(diverged, baseline, tmp_path)
    degraded = dict(baseline, under_replicated_final=2)
    assert gate(degraded, baseline, tmp_path)
    # movement regression: 2x the baseline bytes fails the 0.8 gate
    bloated = dict(baseline, bytes_moved=baseline["bytes_moved"] * 2)
    assert any(
        "bytes_moved" in line for line in gate(bloated, baseline, tmp_path)
    )
    # but a within-ratio wobble passes
    wobble = dict(
        baseline, bytes_moved=int(baseline["bytes_moved"] * 1.1)
    )
    assert gate(wobble, baseline, tmp_path) == []


def test_config_validation():
    with pytest.raises(ConfigError):
        RebalanceConfig(days=1)
    with pytest.raises(ConfigError):
        RebalanceConfig(days=4, split_day=9)
    with pytest.raises(ConfigError):
        RebalanceConfig(max_nodes_per_group=2)


def test_cli_rebalance_json_and_gate(capsys, tmp_path):
    bench_path = tmp_path / "BENCH_rebalance.json"
    code = main(
        [
            "rebalance", "--days", "4", "--split-day", "2",
            "--label", "seed", "--out", str(bench_path), "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    entry = data["entry"]
    assert entry["zero_loss"] and entry["digests_match"]
    assert data["out"] == str(bench_path)

    bench = json.loads(bench_path.read_text())
    assert bench["benchmark"] == "rebalance"
    assert [e["label"] for e in bench["entries"]] == ["seed"]

    # gating the same shape against the recorded entry passes
    code = main(
        [
            "rebalance", "--days", "4", "--split-day", "2",
            "--check", str(bench_path), "--baseline-label", "seed",
            "--json",
        ]
    )
    assert code == 0
    gated = json.loads(capsys.readouterr().out)
    assert gated["regressions"] == []


def test_cli_rebalance_renders_contracts(capsys):
    code = main(["rebalance", "--days", "4", "--split-day", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "zero acknowledged-key loss" in out
    assert "byte-identical vs static baseline" in out
    assert "[ok]" in out and "FAIL" not in out
