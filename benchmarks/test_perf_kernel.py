"""Perf-bench smoke: the three canned scenarios plus the fleet shape.

Run explicitly (``python -m pytest benchmarks/``) — the tier-1 suite is
``tests/`` only, so these never slow the edit loop.  The CI ``perf-smoke``
job runs them alongside the ``repro perf --check`` regression gate.

These are *smoke* tests, not the gate itself: they assert the harness
measures the right things (shape, determinism, the fleet floor from the
issue — ≥64 nodes, ≥100k keys per cycle) under a generous wall budget,
while the events/sec regression threshold lives in the ``kernel`` spec of
``repro.analysis.benchgate`` (tested in ``tests/analysis/test_benchgate.py``)
against the checked-in ``BENCH_kernel.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads.perf import (
    SCENARIO_NAMES,
    run_fleet_smoke,
    run_perf,
    run_scenario,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: generous CI budgets — an order of magnitude above observed walls, so
#: only a genuine complexity regression (not scheduler noise) trips them
SCENARIO_WALL_BUDGET_S = 30.0
FLEET_WALL_BUDGET_S = 180.0


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_runs_and_reports_shape(name):
    result = run_scenario(name, days=6, repeat=2)
    for field in (
        "wall_s",
        "sim_s",
        "events",
        "keys_delivered",
        "cycles",
        "events_per_s",
        "sim_s_per_wall_s",
    ):
        assert field in result, f"{name} result missing {field!r}"
    assert result["events"] > 0
    assert result["keys_delivered"] > 0
    assert result["events_per_s"] > 0
    # run_scenario(repeat=2) already raised if sim_s/events/keys moved
    # between repetitions, so reaching here proves determinism too.
    assert result["wall_s"] < SCENARIO_WALL_BUDGET_S


def test_scenarios_match_recorded_baseline_work():
    """The canned scenarios measure the *same month* the baseline did.

    Work metrics (events, keys, cycles, simulated seconds) must equal the
    checked-in pre-refactor entry — a faster kernel changes wall time,
    never the work — except ``events``, which may legitimately move when
    a PR changes how the same behavior maps onto kernel events; the
    equivalence suite pins behavior, and the recorded entries document
    the event count of their era.
    """
    baseline = json.loads(BENCH_PATH.read_text())["entries"][0]
    for name in SCENARIO_NAMES:
        recorded = baseline["scenarios"][name]
        live = run_scenario(name, days=baseline["days"], repeat=1)
        assert live["keys_delivered"] == recorded["keys_delivered"], name
        assert live["cycles"] == recorded["cycles"], name


@pytest.mark.slow
def test_fleet_smoke_meets_issue_floor():
    result = run_fleet_smoke()
    assert result["nodes"] >= 64
    assert result["keys_per_cycle"] >= 100_000
    assert result["wall_s"] < FLEET_WALL_BUDGET_S


def test_bench_file_has_pre_and_post_entries():
    data = json.loads(BENCH_PATH.read_text())
    labels = [entry["label"] for entry in data["entries"]]
    assert any("pre" in label for label in labels), labels
    assert any("post" in label for label in labels), labels


def test_run_perf_builds_one_entry():
    entry = run_perf(scenarios=["chaos-month"], days=6, repeat=1, label="smoke")
    assert entry["label"] == "smoke"
    assert set(entry["scenarios"]) == {"chaos-month"}
    assert entry["scenarios"]["chaos-month"]["events"] > 0
