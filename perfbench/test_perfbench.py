"""Self-tests of the benchmark: its checks pass on the program as it is,
fail when its outputs are damaged, and its runs are deterministic.

Run from the repository root (a few minutes; every workload runs)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench

bench._import_program()

from checks import (  # noqa: E402
    check_readback,
    check_rebalance,
    check_serving,
    expected_dataset,
)
from layers import LAYERS, LayerTrace, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def units():
    """One checked unit per (workload, seed), plus a layer-traced
    repeat of seed 1: the runs every test below inspects."""
    cache = {}

    def get(name, seed, traced=False):
        key = (name, seed, traced)
        if key not in cache:
            trace = LayerTrace() if traced else None
            unit = WORKLOADS[name](seed).run(trace=trace)
            unit.handles.pop("system", None)  # fleets are large
            gc.collect()
            cache[key] = unit
        return cache[key]

    return get


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_unmodified_program(units, name, seed):
    unit = units(name, seed)
    assert unit.failures == []
    assert unit.failed == 0
    assert unit.attempted > 0
    assert unit.peak_rss_mb > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_repeat_under_layer_trace_is_identical(units, name):
    first = units(name, SEEDS[0])
    traced = units(name, SEEDS[0], traced=True)
    assert traced.failures == []
    differing = {
        key
        for key, value in traced.outputs.items()
        if first.outputs[key] != value
    }
    assert differing == set()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_reaches_the_program(units, name):
    first, second = (units(name, seed).outputs for seed in SEEDS)
    if name == "rebalance-crash":
        # its seed reaches only the read probe
        watched = ("probe_mean_s",)
    else:
        watched = ("keys_delivered", "events", "read_p50_s", "read_p99_s")
    assert any(first[key] != second[key] for key in watched)


# ----------------------------------------------------------------------
# Damaged outputs must fail the checks
# ----------------------------------------------------------------------


@pytest.fixture
def wire_system():
    workload = WORKLOADS["wire-month"](SEEDS[0])
    unit = workload.run(check=False)
    return unit.handles["system"], expected_dataset(
        workload.config, workload.rates
    )


def _replicas(system, dc, kind, key):
    from repro.mint.cluster import storage_key

    skey = storage_key(kind, key)
    cluster = system.clusters[dc]
    return skey, cluster.group_for(skey).replicas_for(skey)


def test_flipped_value_fails_readback(wire_system):
    system, dataset = wire_system
    from repro.indexing.types import IndexKind

    entry = dataset.of_kind(IndexKind.FORWARD)[0]
    flipped = bytes([entry.value[0] ^ 0x01]) + entry.value[1:]
    dc = sorted(system.clusters)[0]
    skey, replicas = _replicas(system, dc, IndexKind.FORWARD, entry.key)
    for node in replicas:
        node.engine.put(skey, dataset.version, flipped)
    failures, _latencies, mismatches = check_readback(system, dataset)
    assert mismatches == 1
    assert failures


def test_dropped_key_fails_readback(wire_system):
    system, dataset = wire_system
    from repro.indexing.types import IndexKind

    entry = dataset.of_kind(IndexKind.INVERTED)[0]
    dc = sorted(system.clusters)[-1]
    skey, replicas = _replicas(system, dc, IndexKind.INVERTED, entry.key)
    replicas[0].engine.delete(skey, dataset.version)
    failures, _latencies, _mismatches = check_readback(system, dataset)
    assert any("under-replicated" in line for line in failures)


def test_unmodified_wire_system_passes_readback(wire_system):
    system, dataset = wire_system
    failures, latencies, mismatches = check_readback(system, dataset)
    assert (failures, mismatches) == ([], 0)
    assert len(latencies) >= 1000


def test_late_deliveries_count_as_failed():
    from dataclasses import replace

    from repro.bifrost.transport import TransportConfig

    workload = WORKLOADS["wire-month"](SEEDS[0])
    # every slice delivery is late against a threshold of a nanosecond
    workload.config = replace(
        workload.config, transport=TransportConfig(late_threshold_s=1e-9)
    )
    unit = workload.run(check=False)
    unit.handles.clear()
    assert unit.attempted == unit.outputs["slice_deliveries"] > 0
    assert unit.failed == unit.attempted


@pytest.mark.parametrize(
    "field, delta",
    [("admitted", -1), ("shed", 1), ("not_found", 1), ("errors", 1)],
)
def test_perturbed_serve_accounting_fails(units, field, delta):
    report = units("serve-zipf", SEEDS[0]).handles["report"]
    assert check_serving(report) == []
    damaged = copy.deepcopy(report)
    dc = sorted(damaged["per_dc"])[0]
    damaged["per_dc"][dc][field] += delta
    assert check_serving(damaged)
    damaged_fleet = copy.deepcopy(report)
    damaged_fleet["fleet"][field] += delta
    assert check_serving(damaged_fleet)


@pytest.mark.parametrize(
    "path, value",
    [
        (("lost_acknowledged_keys",), 1),
        (("under_replicated_final",), 1),
        (("equivalence", "baseline_digest"), "0" * 64),
    ],
)
def test_perturbed_rebalance_contract_fails(units, path, value):
    data = units("rebalance-crash", SEEDS[0]).handles["data"]
    assert check_rebalance(data) == []
    damaged = copy.deepcopy(data)
    target = damaged
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert check_rebalance(damaged)


# ----------------------------------------------------------------------
# The tracer and the command
# ----------------------------------------------------------------------


def test_layer_trace_restores_every_method():
    import importlib

    before = {
        (module, cls, method): getattr(
            importlib.import_module(module), cls
        ).__dict__[method]
        for entries in LAYERS.values()
        for module, cls, methods in entries
        for method in methods.split()
    }
    trace = LayerTrace()
    with trace:
        changed = [
            key
            for key, original in before.items()
            if getattr(importlib.import_module(key[0]), key[1]).__dict__[key[2]]
            is original
        ]
        assert changed == []
    for (module, cls, method), original in before.items():
        assert (
            getattr(importlib.import_module(module), cls).__dict__[method]
            is original
        )


def test_self_times_account_for_the_traced_wall(units):
    trace = LayerTrace()
    unit = WORKLOADS["wire-month"](SEEDS[0]).run(trace=trace, check=False)
    attributed = sum(trace.self_ns) / 1e9
    assert 0 < attributed <= unit.traced_s
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        per_layer = {m["name"] for m in json.load(handle)["per_layer"]}
    reported = set(layer_metrics(trace, unit.outputs)) | {
        "obs.tracer_wall_ratio",
        "bench.trace_overhead_ratio",
        "bench.unattributed_s",
        "fail_ratio",
    }
    assert reported == per_layer
    assert unit.traced_s - attributed < 0.05 * unit.traced_s
    # every span's parent, where recorded, encloses it
    spans = {span[0]: span for span in trace.spans}
    for span_id, _name, start, end, parent in trace.spans:
        if parent in spans:
            assert spans[parent][2] <= start <= end <= spans[parent][3]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(
        bench.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "wire-month",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    units_by_name = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units_by_name == bench.END_TO_END
