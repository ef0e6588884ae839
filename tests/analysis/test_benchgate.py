"""The bench gate table: every BENCH gate fails the inputs it must.

``CASES`` is the table: for each bench, current entries derived from
the bench's baseline entry in ``BASELINES``, each marked pass or fail.
Each failing case also failed the per-bench gate functions these specs
replaced, except rebalance's "missing metric": a lower-is-better metric
absent from the current entry used to read as 0 and pass.
"""

from __future__ import annotations

import argparse
import copy
import json
from pathlib import Path

import pytest

from repro.analysis.benchgate import (
    GATES,
    MIN_RATIO,
    add_gate_args,
    apply_gate,
    render_gate,
)

REPO = Path(__file__).resolve().parents[2]

BASELINES = {
    "kernel": {
        "label": "base",
        "scenarios": {
            "plain-month": {"events_per_s": 1000.0},
            "chaos-month": {"events_per_s": 500.0},
        },
    },
    "bandwidth": {
        "label": "base",
        "wire_reduction_ratio": 0.75,
        "delivered_digest_match": True,
        "audit": {"hash_ratio": 9.3},
    },
    "serving": {
        "label": "base",
        "ablation": {
            "speedup": 4.0,
            "digests_match": True,
            "batched": {"keys_per_device_s": 60_000.0},
        },
        "serving": {"fleet": {"slo_met": True, "p99_s": 0.002}},
    },
    "rebalance": {
        "label": "base",
        "zero_loss": True,
        "digests_match": True,
        "under_replicated_final": 0,
        "bytes_moved": 1_000_000,
        "move_duration_s": 2.0,
        "read_p99_during_move_s": 0.001,
    },
}


def edit(bench, path, value):
    """The bench's baseline with ``path`` set (or removed if ``...``)."""
    entry = copy.deepcopy(BASELINES[bench])
    *parents, leaf = path.split(".")
    node = entry
    for part in parents:
        node = node[part]
    if value is ...:
        del node[leaf]
    else:
        node[leaf] = value
    return entry


#: (bench, case name, current entry, must fail)
CASES = [
    ("kernel", "identical", edit("kernel", "label", "run"), False),
    ("kernel", "within ratio",
     edit("kernel", "scenarios.plain-month.events_per_s", 900.0), False),
    ("kernel", "slow scenario",
     edit("kernel", "scenarios.plain-month.events_per_s", 700.0), True),
    ("kernel", "scenario not in baseline",
     edit("kernel", "scenarios.new-month", {"events_per_s": 1.0}), False),
    ("kernel", "scenario not run",
     edit("kernel", "scenarios.chaos-month", ...), False),
    ("kernel", "missing metric",
     edit("kernel", "scenarios.plain-month.events_per_s", ...), True),
    ("bandwidth", "identical", edit("bandwidth", "label", "run"), False),
    ("bandwidth", "wire reduction lost",
     edit("bandwidth", "wire_reduction_ratio", 0.5), True),
    ("bandwidth", "delivered digests differ",
     edit("bandwidth", "delivered_digest_match", False), True),
    ("bandwidth", "audit hash ratio lost",
     edit("bandwidth", "audit.hash_ratio", 5.0), True),
    ("bandwidth", "missing metric", edit("bandwidth", "audit", ...), True),
    ("serving", "identical", edit("serving", "label", "run"), False),
    ("serving", "digests differ",
     edit("serving", "ablation.digests_match", False), True),
    ("serving", "speedup below floor",
     edit("serving", "ablation.speedup", 2.0), True),
    ("serving", "SLO missed", edit("serving", "serving.fleet.slo_met", False),
     True),
    ("serving", "throughput lost",
     edit("serving", "ablation.batched.keys_per_device_s", 10_000.0), True),
    ("serving", "missing metric", edit("serving", "ablation.batched", ...),
     True),
    ("rebalance", "identical", edit("rebalance", "label", "run"), False),
    ("rebalance", "within ratio", edit("rebalance", "bytes_moved", 1_100_000),
     False),
    ("rebalance", "acknowledged loss", edit("rebalance", "zero_loss", False),
     True),
    ("rebalance", "digests differ", edit("rebalance", "digests_match", False),
     True),
    ("rebalance", "under-replicated",
     edit("rebalance", "under_replicated_final", 2), True),
    ("rebalance", "bytes moved doubled",
     edit("rebalance", "bytes_moved", 2_000_000), True),
    ("rebalance", "missing metric", edit("rebalance", "bytes_moved", ...),
     True),
]


def write_bench(tmp_path, bench, *entries):
    path = tmp_path / f"BENCH_{bench}.json"
    path.write_text(json.dumps({"benchmark": bench, "entries": list(entries)}))
    return str(path)


@pytest.mark.parametrize(
    "bench,name,current,must_fail",
    CASES,
    ids=[f"{bench}-{name}" for bench, name, _, _ in CASES],
)
def test_gate_table(tmp_path, bench, name, current, must_fail):
    path = write_bench(tmp_path, bench, BASELINES[bench])
    failures = GATES[bench].check(current, path)
    assert bool(failures) is must_fail, failures


@pytest.mark.parametrize("bench", sorted(GATES))
def test_missing_baseline_fails(tmp_path, bench):
    path = write_bench(tmp_path, bench, BASELINES[bench])
    failures = GATES[bench].check(BASELINES[bench], path, "no-such-label")
    assert failures == [f"{path} has no baseline entries labelled "
                        "'no-such-label'"]
    empty = write_bench(tmp_path, bench)
    assert GATES[bench].check(BASELINES[bench], empty)


def test_baseline_label_picks_the_last_matching_entry(tmp_path):
    fast = edit("kernel", "scenarios.plain-month.events_per_s", 5000.0)
    fast["label"] = "fast"
    path = write_bench(tmp_path, "kernel", BASELINES["kernel"], fast)
    current = BASELINES["kernel"]
    assert GATES["kernel"].check(current, path)  # last entry is 5x faster
    assert GATES["kernel"].check(current, path, "base") == []


def test_contracts_apply_without_a_baseline():
    for bench, _name, current, must_fail in CASES:
        if GATES[bench].contracts and not must_fail:
            assert GATES[bench].check(current) == []
    broken = edit("rebalance", "zero_loss", False)
    (line,) = GATES["rebalance"].check(broken)
    assert "zero_loss" in line and "zero acknowledged-key loss" in line


def test_failure_lines_name_the_metric_and_baseline(tmp_path):
    slow = edit("kernel", "scenarios.plain-month.events_per_s", 700.0)
    for bench, current, needle in (
        ("kernel", slow, "plain-month: events_per_s 700 is below 80%"),
        ("rebalance", edit("rebalance", "bytes_moved", 2_000_000),
         "bytes_moved 2e+06 exceeds 1/80%"),
    ):
        path = write_bench(tmp_path, bench, BASELINES[bench])
        (line,) = GATES[bench].check(current, path)
        assert needle in line and line.endswith("(label 'base')"), line


@pytest.mark.parametrize("bench", sorted(GATES))
def test_fresh_out_file_has_the_recorded_header(tmp_path, bench):
    """A new ``--out`` file starts with the same header as BENCH_*.json."""
    recorded = json.loads((REPO / f"BENCH_{bench}.json").read_text())
    out = tmp_path / "out.json"
    GATES[bench].append({"label": "one"}, str(out))
    GATES[bench].append({"label": "two"}, str(out))
    written = json.loads(out.read_text())
    assert written["benchmark"] == recorded["benchmark"] == bench
    assert written["units"] == recorded["units"]
    assert [e["label"] for e in written["entries"]] == ["one", "two"]


def test_table_is_well_formed():
    assert MIN_RATIO == 0.8
    for name, spec in GATES.items():
        assert spec.benchmark == name
        assert spec.ratios
        for ratio in spec.ratios:
            assert ratio.better in ("higher", "lower")
        for contract in spec.contracts:
            assert contract.op in ("true", "==", ">=")


def test_cli_harness_annotates_and_renders(tmp_path, capsys):
    parser = argparse.ArgumentParser()
    add_gate_args(parser, "rebalance")
    bench_path = write_bench(tmp_path, "rebalance", BASELINES["rebalance"])
    out = tmp_path / "fresh.json"
    args = parser.parse_args(
        ["--check", bench_path, "--baseline-label", "base", "--out", str(out)]
    )
    current = edit("rebalance", "bytes_moved", 2_000_000)
    data = {}
    failures = apply_gate("rebalance", current, data, args)
    assert data == {
        "regressions": failures, "baseline": bench_path, "out": str(out)
    }
    assert len(failures) == 1
    render_gate(data, "run")
    printed = capsys.readouterr().out
    assert f"REGRESSION vs {bench_path}:" in printed
    assert f"appended entry 'run' to {out}" in printed

    args = parser.parse_args([])
    data = {}
    assert apply_gate("rebalance", BASELINES["rebalance"], data, args) == []
    assert data == {"regressions": []}
    render_gate(data, "run")
    assert capsys.readouterr().out == ""
