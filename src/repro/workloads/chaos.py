"""Chaos runs: an update cycle under a fault plan, with availability
accounting.

The workload stands up the standard small DirectLoad system, bootstraps
version 1, then runs the remaining cycles with a
:class:`~repro.faults.injector.FaultInjector` executing the plan and a
seeded availability probe reading bootstrap keys at a fixed cadence.
After the faults drain it verifies the chaos contract:

* **zero acknowledged loss** — every key a faulted cycle reported
  delivered is still readable through the normal read path;
* **full re-protection** — no ``(key, version)`` is left with fewer than
  ``replica_count`` live copies.

A run under the empty plan (``none``) must leave the fleet byte-identical
to a plain :meth:`~repro.core.directload.DirectLoad.run_update_cycle`
sequence — the equivalence test pins the chaos harness itself to zero
side effects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError, KeyNotFoundError, ReplicationError
from repro.faults import FaultInjector, FaultPlan


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run's shape."""

    #: a name from :data:`repro.faults.plan.NAMED_PLANS`, or raw plan
    #: text (anything containing ``=`` parses as clauses)
    plan: str = "single-node-crash"
    #: total update cycles; the first is the fault-free bootstrap, the
    #: plan's offsets are relative to the start of the second
    cycles: int = 2
    #: corpus mutation rate of the faulted cycles
    mutation_rate: float = 0.3
    #: availability probe cadence (simulated seconds between reads)
    probe_interval_s: float = 0.25
    probe_seed: int = 17
    #: arm the telemetry plane: a metrics recorder + alert engine run
    #: alongside the faults and the report gains ``alerts`` /
    #: ``detection`` / ``health`` sections.  Off by default so a bare
    #: chaos run stays byte-identical to the pinned equivalence digests.
    telemetry: bool = False
    #: telemetry sampling cadence — bounds detection latency
    sample_interval_s: float = 0.25
    #: burn-rate alert windows (fast catches, slow suppresses blips)
    fast_window_s: float = 1.0
    slow_window_s: float = 5.0
    #: run a tiered integrity audit of every cluster after the faults
    #: drain; the report gains an ``integrity`` section.  Off by default
    #: (same digest-stability reason as ``telemetry``).
    integrity: bool = False
    #: wire-encode slices (:mod:`repro.bifrost.encoding`); the report
    #: gains a ``bandwidth`` section with wire vs payload bytes
    wire_encoding: bool = False

    def __post_init__(self) -> None:
        if self.cycles < 2:
            raise ConfigError("need at least bootstrap + one faulted cycle")
        if self.probe_interval_s <= 0:
            raise ConfigError("probe interval must be positive")
        if self.sample_interval_s <= 0:
            raise ConfigError("sample interval must be positive")


@dataclass
class ChaosRunResult:
    """The report plus live handles for tests to poke at."""

    data: Dict[str, object]
    system: object = field(repr=False, default=None)
    injector: Optional[FaultInjector] = field(repr=False, default=None)
    #: set when the run had ``telemetry=True``
    recorder: object = field(repr=False, default=None)
    engine: object = field(repr=False, default=None)


def build_chaos_system(tracing: bool = True, wire_encoding: bool = False):
    """The standard small system every chaos scenario is written against.

    Same shape as the CLI's month system: three regions, one group of
    three nodes per data center, a backbone slow enough that deliveries
    overlap the scheduled faults.  ``tracing=False`` runs the same fleet
    on the null-tracer path (the perf-bench configuration);
    ``wire_encoding=True`` turns on the bandwidth layer.
    """
    from repro.bifrost.channels import TopologyConfig
    from repro.core.config import DirectLoadConfig
    from repro.core.directload import DirectLoad
    from repro.mint.cluster import MintConfig

    return DirectLoad(
        DirectLoadConfig(
            tracing_enabled=tracing,
            wire_encoding=wire_encoding,
            doc_count=80,
            vocabulary_size=300,
            doc_length=20,
            summary_value_bytes=1024,
            forward_value_bytes=256,
            slice_bytes=32 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=1_000_000.0),
            mint=MintConfig(
                group_count=1, nodes_per_group=3,
                node_capacity_bytes=64 * 1024 * 1024,
            ),
        )
    )


def resolve_plan(spec: str) -> FaultPlan:
    """A plan from a registry name or raw clause text."""
    if "=" in spec:
        return FaultPlan.parse(spec, name="inline")
    return FaultPlan.named(spec)


def fleet_state(system) -> Dict:
    """The stored *representation* of every replica of every live key.

    Maps ``(dc, node, key, version)`` to ``(value, deduplicated)`` — the
    byte-identical-equivalence witness: a repaired fleet and a never-
    faulted fleet must produce exactly the same mapping.
    """
    state: Dict = {}
    for dc, cluster in system.clusters.items():
        for version in sorted(cluster.version_keys):
            for key in set(cluster.version_keys[version]):
                group = cluster.group_for(key)
                for node in group.replicas_for(key):
                    peek = getattr(node.engine, "peek", None)
                    record = peek(key, version) if peek else None
                    state[(dc, node.name, key, version)] = record
    return state


def run_chaos(
    config: ChaosConfig | None = None, tracing: bool = True
) -> ChaosRunResult:
    """Run the chaos workload; see the module docstring for the contract."""
    config = config or ChaosConfig()
    plan = resolve_plan(config.plan)
    system = build_chaos_system(
        tracing=tracing, wire_encoding=config.wire_encoding
    )
    sim = system.sim

    bootstrap = system.run_update_cycle()

    injector = FaultInjector(
        sim,
        system.clusters,
        system.topology,
        system.transport,
        tracer=system.tracer,
    )
    injector.register_metrics(system.metrics)

    probe_counters = {"probes": 0, "unavailable": 0}
    probe_stop = {"flag": False}

    def probe():
        """Seeded fixed-cadence reads of bootstrap keys across the fleet.

        Pure read traffic (only device clocks advance), so a probed run's
        stored state stays identical to an unprobed one.
        """
        rng = random.Random(config.probe_seed)
        targets = [
            (cluster, key)
            for cluster in system.clusters.values()
            for key in cluster.version_keys.get(bootstrap.version, [])
        ]
        while targets and not probe_stop["flag"]:
            cluster, key = targets[rng.randrange(len(targets))]
            probe_counters["probes"] += 1
            try:
                cluster.get(key, bootstrap.version)
            except (ReplicationError, KeyNotFoundError):
                probe_counters["unavailable"] += 1
            yield sim.timeout(config.probe_interval_s)

    system.metrics.register_many(
        "faults.reads",
        {
            "probes": lambda: probe_counters["probes"],
            "unavailable": lambda: probe_counters["unavailable"],
            "unavailable_ratio": lambda: (
                probe_counters["unavailable"] / probe_counters["probes"]
                if probe_counters["probes"]
                else 0.0
            ),
        },
    )

    # The probe only runs when faults are actually scheduled: under the
    # empty plan the run must be byte-identical to plain cycles, so no
    # extra processes touch the fleet at all.
    if plan.events:
        sim.process(probe())

    recorder = None
    engine = None
    if config.telemetry:
        from repro.obs.health import (
            HealthEngine,
            default_burn_rules,
            health_scores,
            join_detections,
        )
        from repro.obs.timeseries import RecorderConfig, TimeSeriesRecorder

        recorder = TimeSeriesRecorder(
            sim,
            system.metrics,
            RecorderConfig(interval_s=config.sample_interval_s),
        )
        engine = HealthEngine(
            recorder,
            burn_rules=default_burn_rules(
                config.fast_window_s, config.slow_window_s
            ),
            tracer=system.tracer,
        )
        recorder.start()

    injector.start(plan)

    faulted_reports = [
        system.run_update_cycle(mutation_rate=config.mutation_rate)
        for _ in range(config.cycles - 1)
    ]

    # A cycle's drive stops at its own delivery tail; faults scheduled
    # past it (a long outage, a late heal) still need to run to
    # completion before the fleet is judged.
    pending = [p for p in injector.processes if not p.processed]
    if pending:
        sim.run(until=sim.all_of(pending))
    probe_stop["flag"] = True
    if recorder is not None:
        # One closing sample so the final fleet state (everything healed)
        # lands in the ring and still-open alerts get a chance to resolve.
        recorder.stop()
        recorder.sample_now()

    lost_acknowledged = 0
    verified_keys = 0
    for report in faulted_reports:
        for cluster in system.clusters.values():
            for key in set(cluster.version_keys.get(report.version, [])):
                verified_keys += 1
                try:
                    cluster.get(key, report.version)
                except (ReplicationError, KeyNotFoundError):
                    lost_acknowledged += 1

    under_replicated_final = sum(
        len(cluster.under_replicated())
        for cluster in system.clusters.values()
    )

    counters = injector.counters
    transport = system.transport
    probes = probe_counters["probes"]
    data: Dict[str, object] = {
        "plan": plan.name,
        "fault_events": len(plan.events),
        "cycles": [
            {
                "version": report.version,
                "keys_delivered": report.keys_delivered,
                "update_time_s": report.update_time_s,
                "miss_ratio": report.miss_ratio,
                "retransmissions": report.retransmissions,
                "promoted": report.promoted,
            }
            for report in [bootstrap] + faulted_reports
        ],
        "availability": {
            "probes": probes,
            "unavailable": probe_counters["unavailable"],
            "unavailable_ratio": (
                probe_counters["unavailable"] / probes if probes else 0.0
            ),
        },
        "faults": {
            "node_crashes": counters.node_crashes,
            "node_restarts": counters.node_restarts,
            "group_outages": counters.group_outages,
            "link_partitions": counters.link_partitions,
            "corruption_bursts": counters.corruption_bursts,
            "repair_runs": counters.repair_runs,
            "repair_keys": counters.repair_keys,
            "repair_bytes": counters.repair_bytes,
            "repair_deletes": counters.repair_deletes,
            "repair_remote_copies": counters.repair_remote_copies,
            "reprotect_last_s": counters.reprotect_last_s,
            "reprotect_max_s": counters.reprotect_max_s,
        },
        "transport": {
            "retransmits": transport.total_retransmissions,
            "abandoned": transport.total_abandoned,
            "relay_failovers": transport.total_relay_failovers,
        },
        "verified_keys": verified_keys,
        "lost_acknowledged_keys": lost_acknowledged,
        "under_replicated_final": under_replicated_final,
    }
    if config.integrity:
        from repro.faults.repair import AuditResult, ReplicaRepairer

        repairer = ReplicaRepairer()
        audit = AuditResult()
        for cluster in system.clusters.values():
            audit.merge(repairer.audit_cluster(cluster))
        data["integrity"] = {
            "slices_audited": audit.slices_audited,
            "records_sampled": audit.records_sampled,
            "full_hashes": audit.full_hashes,
            "divergent_records": audit.divergent_records,
            "records_repaired": audit.records_repaired,
            "clean": audit.clean,
        }
    if config.wire_encoding:
        encoder_stats = system.wire_encoder.stats
        data["bandwidth"] = {
            "payload_bytes": encoder_stats.payload_bytes,
            "wire_bytes": encoder_stats.wire_bytes,
            "bytes_saved": encoder_stats.bytes_saved,
            "compression_ratio": encoder_stats.compression_ratio,
            "encode_cpu_s": encoder_stats.encode_cpu_s,
            "decode_cpu_s": sum(
                cluster.wire_decoder.stats.decode_cpu_s
                for cluster in system.clusters.values()
            ),
            "wire_bytes_sent": transport.total_wire_bytes_sent,
            "payload_bytes_sent": transport.total_payload_bytes_sent,
            "slices_parked": sum(
                cluster.slices_parked
                for cluster in system.clusters.values()
            ),
            "slices_unparked": sum(
                cluster.slices_unparked
                for cluster in system.clusters.values()
            ),
        }
    if engine is not None:
        data["alerts"] = engine.to_dicts()
        # One sampling interval of grace past each heal: an alert for a
        # fault healed between two samples fires at the *next* sample.
        data["detection"] = join_detections(
            injector.timeline,
            engine.alerts,
            grace_s=config.sample_interval_s,
        )
        data["health"] = health_scores(recorder.samples[-1][1])
        data["telemetry"] = {
            "samples": recorder.sample_count,
            "sample_interval_s": config.sample_interval_s,
            "evaluations": engine.evaluations,
            "fast_window_s": config.fast_window_s,
            "slow_window_s": config.slow_window_s,
        }
    return ChaosRunResult(
        data=data,
        system=system,
        injector=injector,
        recorder=recorder,
        engine=engine,
    )


def run_plain_cycles(cycles: int, mutation_rate: float) -> object:
    """The unfaulted twin of :func:`run_chaos`, for equivalence checks."""
    system = build_chaos_system()
    system.run_update_cycle()
    for _ in range(cycles - 1):
        system.run_update_cycle(mutation_rate=mutation_rate)
    return system


__all__ = [
    "ChaosConfig",
    "ChaosRunResult",
    "build_chaos_system",
    "fleet_state",
    "resolve_plan",
    "run_chaos",
    "run_plain_cycles",
]
