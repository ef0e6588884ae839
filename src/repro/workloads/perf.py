"""Perf-bench harness: canned scenarios measuring kernel throughput.

Three scenarios exercise the simulator the way the repo's experiments
do — a serial month, a pipelined month, and a chaos month — plus an
optional ``fleet-smoke`` shape (≥64 nodes, ≥100k keys per cycle) that
checks fleet-scale months stay affordable.  Each scenario reports:

* ``events_per_s`` — kernel events processed per wall-clock second, the
  headline throughput number tracked across PRs in ``BENCH_kernel.json``;
* ``sim_s_per_wall_s`` — simulated seconds advanced per wall second,
  the "how cheap is a month" number;
* ``keys_delivered`` — the work product, which must not change when the
  kernel gets faster (the equivalence tests pin it byte-for-byte).

System construction is excluded from the timed region (it is one-time
setup); corpus generation and delivery are included because they are
what a real month run spends.  ``repro perf`` is the CLI front end;
its CI regression gate is the ``kernel`` spec in
:mod:`repro.analysis.benchgate`.
"""

from __future__ import annotations

import platform
import time
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError

#: canonical scenario order, as recorded in BENCH_kernel.json
SCENARIO_NAMES = ("plain-month", "pipelined-month", "chaos-month")

#: fleet smoke shape: 3 regions x 2 DCs x (4 groups x 3 nodes) = 72 nodes
FLEET_GROUPS = 4
FLEET_NODES_PER_GROUP = 3

#: chaos scenario shape (bootstrap + faulted cycles under the named plan)
CHAOS_PLAN = "single-node-crash"
CHAOS_CYCLES = 3


def build_perf_system(
    fleet: bool = False,
    tracing: bool = True,
    groups: Optional[int] = None,
    nodes_per_group: Optional[int] = None,
):
    """The system under test.

    The default shape is the CLI month system (``repro month``): three
    regions, one group of three nodes per data center, a backbone slow
    enough that delivery tails overlap generation windows.  The fleet
    shape widens Mint to 4 groups x 3 nodes per DC (72 nodes fleet-wide)
    and the corpus to >100k delivered keys per cycle.  ``groups`` /
    ``nodes_per_group`` override either shape's node count — the knob
    the elastic rebalance experiments use to compare provisioning
    levels on otherwise-identical systems.
    """
    from repro.bifrost.channels import TopologyConfig
    from repro.core.config import DirectLoadConfig
    from repro.core.directload import DirectLoad
    from repro.mint.cluster import MintConfig

    if fleet:
        config = DirectLoadConfig(
            doc_count=6400,
            vocabulary_size=8000,
            doc_length=24,
            summary_value_bytes=256,
            forward_value_bytes=128,
            slice_bytes=256 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=64_000_000.0),
            mint=MintConfig(
                group_count=groups or FLEET_GROUPS,
                nodes_per_group=nodes_per_group or FLEET_NODES_PER_GROUP,
                node_capacity_bytes=256 * 1024 * 1024,
                # no integrity bookkeeping in the kernel bench: keeps the
                # numbers comparable with the recorded baseline
                integrity_enabled=False,
            ),
            tracing_enabled=tracing,
        )
    else:
        config = DirectLoadConfig(
            doc_count=80,
            vocabulary_size=300,
            doc_length=20,
            summary_value_bytes=1024,
            forward_value_bytes=256,
            slice_bytes=32 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=1_000_000.0),
            mint=MintConfig(
                group_count=groups or 1,
                nodes_per_group=nodes_per_group or 3,
                node_capacity_bytes=64 * 1024 * 1024,
                integrity_enabled=False,
            ),
            tracing_enabled=tracing,
        )
    return DirectLoad(config)


def _month_rates(days: int) -> List[Optional[float]]:
    """Bootstrap plus one mutation rate per scheduled day."""
    from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

    schedule = MonthlyTrace(MonthlyTraceConfig(days=days)).days()
    return [None] + [day.mutation_rate for day in schedule]


def _run_plain(days: int, fleet: bool, tracing: bool) -> Dict[str, float]:
    system = build_perf_system(fleet=fleet, tracing=tracing)
    rates = _month_rates(days)
    started = time.perf_counter()
    reports = [system.run_update_cycle()]
    for rate in rates[1:]:
        reports.append(system.run_update_cycle(mutation_rate=rate))
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "sim_s": system.sim.now,
        "events": system.sim.events_processed,
        "keys_delivered": sum(r.keys_delivered for r in reports),
        "cycles": len(reports),
    }


def _run_pipelined(days: int, fleet: bool, tracing: bool) -> Dict[str, float]:
    system = build_perf_system(fleet=fleet, tracing=tracing)
    rates = _month_rates(days)
    started = time.perf_counter()
    reports = system.run_pipelined_cycles(rates)
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "sim_s": system.sim.now,
        "events": system.sim.events_processed,
        "keys_delivered": sum(r.keys_delivered for r in reports),
        "cycles": len(reports),
    }


def _run_chaos(days: int, fleet: bool, tracing: bool) -> Dict[str, float]:
    # ``days`` and ``fleet`` are unused: the chaos harness owns its
    # system shape (the standard small fleet every plan is written
    # against), so the scenario stays comparable across PRs.
    from repro.workloads.chaos import ChaosConfig, run_chaos

    started = time.perf_counter()
    result = run_chaos(
        ChaosConfig(plan=CHAOS_PLAN, cycles=CHAOS_CYCLES), tracing=tracing
    )
    wall_s = time.perf_counter() - started
    system = result.system
    return {
        "wall_s": wall_s,
        "sim_s": system.sim.now,
        "events": system.sim.events_processed,
        "keys_delivered": sum(
            c["keys_delivered"] for c in result.data["cycles"]
        ),
        "cycles": len(result.data["cycles"]),
    }


_RUNNERS: Dict[str, Callable[[int, bool, bool], Dict[str, float]]] = {
    "plain-month": _run_plain,
    "pipelined-month": _run_pipelined,
    "chaos-month": _run_chaos,
}


def run_scenario(
    name: str,
    days: int = 6,
    repeat: int = 1,
    fleet: bool = False,
    tracing: bool = False,
) -> Dict[str, float]:
    """Run one scenario ``repeat`` times and keep the fastest wall time.

    Best-of-N damps scheduler noise without changing the work measured:
    every repetition simulates the identical month, so ``events``,
    ``sim_s``, and ``keys_delivered`` are asserted identical across
    repetitions — a free determinism check on every bench run.
    """
    if name not in _RUNNERS:
        raise ConfigError(
            f"unknown perf scenario {name!r}; "
            f"expected one of {', '.join(SCENARIO_NAMES)}"
        )
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    best: Dict[str, float] | None = None
    for _ in range(repeat):
        sample = _RUNNERS[name](days, fleet, tracing)
        if best is not None:
            for field in ("sim_s", "events", "keys_delivered", "cycles"):
                if sample[field] != best[field]:
                    raise ConfigError(
                        f"scenario {name!r} is nondeterministic: "
                        f"{field} changed across repetitions "
                        f"({best[field]!r} vs {sample[field]!r})"
                    )
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    wall_s = best["wall_s"]
    result = {
        "wall_s": round(wall_s, 4),
        "sim_s": round(best["sim_s"], 4),
        "events": int(best["events"]),
        "keys_delivered": int(best["keys_delivered"]),
        "cycles": int(best["cycles"]),
        "events_per_s": round(best["events"] / wall_s, 1) if wall_s else 0.0,
        "sim_s_per_wall_s": (
            round(best["sim_s"] / wall_s, 2) if wall_s else 0.0
        ),
    }
    return result


def run_perf(
    scenarios: Optional[List[str]] = None,
    days: int = 6,
    repeat: int = 1,
    fleet: bool = False,
    tracing: bool = False,
    label: Optional[str] = None,
    fleet_groups: Optional[int] = None,
    fleet_nodes_per_group: Optional[int] = None,
) -> Dict[str, object]:
    """Run the requested scenarios and return one BENCH_kernel entry."""
    names = list(scenarios) if scenarios else list(SCENARIO_NAMES)
    entry: Dict[str, object] = {
        "label": label or "run",
        "python": platform.python_version(),
        "days": days,
        "repeat": repeat,
        "tracing": tracing,
        "scenarios": {
            name: run_scenario(
                name, days=days, repeat=repeat, tracing=tracing
            )
            for name in names
        },
    }
    if fleet:
        entry["fleet"] = run_fleet_smoke(
            tracing=tracing,
            groups=fleet_groups,
            nodes_per_group=fleet_nodes_per_group,
        )
    return entry


def run_fleet_smoke(
    cycles: int = 2,
    tracing: bool = False,
    groups: Optional[int] = None,
    nodes_per_group: Optional[int] = None,
) -> Dict[str, object]:
    """The fleet-scale affordability check: 72 nodes, >100k keys/cycle.

    ``groups`` / ``nodes_per_group`` override the default fleet shape,
    so provisioning levels can be compared on the same corpus.
    """
    system = build_perf_system(
        fleet=True,
        tracing=tracing,
        groups=groups,
        nodes_per_group=nodes_per_group,
    )
    started = time.perf_counter()
    reports = [system.run_update_cycle()]
    for _ in range(cycles - 1):
        reports.append(system.run_update_cycle(mutation_rate=0.3))
    wall_s = time.perf_counter() - started
    nodes = sum(
        len(group.nodes)
        for cluster in system.clusters.values()
        for group in cluster.groups
    )
    keys_per_cycle = min(r.keys_delivered for r in reports)
    return {
        "wall_s": round(wall_s, 4),
        "sim_s": round(system.sim.now, 4),
        "events": int(system.sim.events_processed),
        "events_per_s": (
            round(system.sim.events_processed / wall_s, 1) if wall_s else 0.0
        ),
        "nodes": nodes,
        "cycles": len(reports),
        "keys_per_cycle": int(keys_per_cycle),
    }


__all__ = [
    "SCENARIO_NAMES",
    "build_perf_system",
    "run_fleet_smoke",
    "run_perf",
    "run_scenario",
]
