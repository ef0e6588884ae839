"""The benchmark's workloads: inputs from the seed, one timed unit each.

A *unit* is one complete, fixed-size run of a workload on a freshly
built system.  The benchmark repeats units of the same seed until the
requested measuring time is used, so every unit of a run must produce
identical deterministic outputs; only wall times differ.

Why each workload exists is written in ``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from checks import (
    P99_TAIL_SAMPLES,
    check_readback,
    check_rebalance,
    check_serving,
    expected_dataset,
    percentiles,
)


@dataclass
class Unit:
    """One unit's measurements."""

    #: wall seconds of the timed region
    wall_s: float
    #: deterministic outputs: identical for every unit of one seed
    outputs: Dict[str, float]
    failures: List[str]
    attempted: int
    failed: int
    #: wall seconds of the region a layer trace covered (the timed
    #: region, except where the program times a sub-region itself)
    traced_s: float = 0.0
    #: peak RSS of this process when the timed region ended, before any
    #: output check ran
    peak_rss_mb: float = 0.0
    handles: Dict[str, object] = field(default_factory=dict, repr=False)


@contextlib.contextmanager
def _patched(module, name: str, value):
    """``module.name`` is ``value`` inside the block.  (Not
    ``unittest.mock``: its imports would add to every unit's RSS.)"""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _record_deliveries(transport) -> List:
    """Keep every version's delivery report; the system keeps only the
    last.  The method is looked up on the class at each call, so a layer
    trace's class-level wrapper still sees the call."""
    deliveries = []

    def deliver_version(*args, **kwargs):
        delivery = type(transport).deliver_version(transport, *args, **kwargs)
        deliveries.append(delivery)
        return delivery

    transport.deliver_version = deliver_version
    return deliveries


def _fleet_outputs(system, reports) -> Dict[str, float]:
    """Outputs every update-cycle workload shares."""
    user_bytes = device_bytes = 0
    pages_written = pages_read = gc_runs = gc_bytes = 0
    busy_s = 0.0
    gets = failover_gets = shed_gets = 0
    for cluster in system.clusters.values():
        stats = cluster.stats()
        gets += stats["gets"]
        failover_gets += stats["failover_gets"]
        shed_gets += stats["shed_gets"]
        for node in cluster.all_nodes:
            engine = node.engine.stats()
            counters = node.engine.device.counters
            user_bytes += engine.user_bytes_written
            device_bytes += engine.device_total_bytes_written
            gc_runs += engine.gc_runs
            gc_bytes += engine.gc_bytes_reappended
            pages_written += counters.total_pages_written
            pages_read += counters.total_pages_read
            busy_s += counters.busy_time_s
    keys = sum(report.keys_delivered for report in reports)
    encoder = system.wire_encoder
    return {
        "keys_delivered": keys,
        "cycles": len(reports),
        "sim_update_s": statistics.median(
            report.update_time_s for report in reports
        ),
        "sim_s": system.sim.now,
        "events": system.sim.events_processed,
        "wire_bytes": system.transport.total_wire_bytes_sent,
        "abandoned": system.transport.total_abandoned,
        "engine_reads": gets,
        "user_bytes": user_bytes,
        "device_bytes": device_bytes,
        "pages_written": pages_written,
        "pages_read": pages_read,
        "device_busy_s": busy_s,
        "gc_runs": gc_runs,
        "gc_bytes_reappended": gc_bytes,
        "failover_gets": failover_gets,
        "shed_gets": shed_gets,
        "wire_ratio": encoder.stats.compression_ratio if encoder else 0.0,
    }


def _readback(unit_outputs, system, dataset) -> List[str]:
    """Read-back check; its reads also give the simulated read latency."""
    failures, latencies, mismatches = check_readback(system, dataset)
    p50, p99 = percentiles(latencies)
    unit_outputs.update(
        readbacks=len(latencies),
        read_mismatches=mismatches,
        read_p50_s=p50,
        read_p99_s=p99,
    )
    return failures


class Workload:
    """Base: ``build`` is the set-up, ``run`` one checked unit."""

    name = ""

    def build(self, tracing: bool = False):
        raise NotImplementedError

    def run(self, trace=None, tracing: bool = False, check: bool = True) -> Unit:
        """One unit; ``trace`` is a context held around the measured
        region, ``tracing`` turns the program's own tracer on and
        ``check`` runs the output checks that cost more than the
        accounting comparisons every unit makes."""
        raise NotImplementedError


class _UpdateCycles(Workload):
    """Update cycles on a DirectLoad system, checked by read-back."""

    config = None
    rates: List[Optional[float]] = []
    pipelined = False

    def build(self, tracing: bool = False):
        from repro.core.directload import DirectLoad

        return DirectLoad(replace(self.config, tracing_enabled=tracing))

    def run(self, trace=None, tracing: bool = False, check: bool = True) -> Unit:
        system = self.build(tracing)
        deliveries = _record_deliveries(system.transport)
        with trace or contextlib.nullcontext():
            started = time.perf_counter()
            if self.pipelined:
                reports = system.run_pipelined_cycles(self.rates)
            else:
                reports = [system.run_update_cycle()] + [
                    system.run_update_cycle(mutation_rate=rate)
                    for rate in self.rates[1:]
                ]
            wall_s = time.perf_counter() - started
        peak_rss_mb = _peak_rss_mb()
        outputs = _fleet_outputs(system, reports)
        # slice deliveries to data centers: attempted ones, and the late
        # or abandoned among them
        outputs.update(
            slice_deliveries=sum(
                d.deliveries + d.abandoned for d in deliveries
            ),
            missed_deliveries=sum(d.miss_count for d in deliveries),
        )
        failures = []
        if check:
            dataset = expected_dataset(self.config, self.rates)
            failures = _readback(outputs, system, dataset)
        return Unit(
            wall_s=wall_s,
            traced_s=wall_s,
            peak_rss_mb=peak_rss_mb,
            outputs=outputs,
            failures=failures,
            attempted=outputs["slice_deliveries"]
            + outputs.get("readbacks", 0),
            failed=outputs["missed_deliveries"]
            + outputs.get("read_mismatches", 0),
            handles={"system": system},
        )


class IngestFleet(_UpdateCycles):
    """The 72-node fleet smoke: seeded bootstrap, then one 30% cycle."""

    name = "ingest-fleet"

    def __init__(self, seed: int) -> None:
        from repro.core import directload
        from repro.workloads.perf import build_perf_system

        # The fleet smoke's own config, taken from its builder with the
        # system construction replaced by the identity, so no 72-node
        # fleet is built (or held in this process's peak RSS) for it.
        with _patched(directload, "DirectLoad", lambda config: config):
            config = build_perf_system(fleet=True, tracing=False)
        self.config = replace(config, seed=seed)
        self.rates = [None, 0.3]


#: wire-month mutation rates; the seed picks their order
WIRE_RATES = (0.55, 0.6, 0.65, 0.7)


class WireMonth(_UpdateCycles):
    """Changed-value-heavy pipelined days with large values and every
    bandwidth layer on: dedup, the wire codec and integrity summaries."""

    name = "wire-month"
    pipelined = True

    def __init__(self, seed: int) -> None:
        from repro.bifrost.channels import TopologyConfig
        from repro.core.config import DirectLoadConfig
        from repro.mint.cluster import MintConfig

        self.config = DirectLoadConfig(
            tracing_enabled=False,
            dedup_enabled=True,
            wire_encoding=True,
            doc_count=400,
            vocabulary_size=2000,
            doc_length=20,
            summary_value_bytes=16 * 1024,
            forward_value_bytes=4 * 1024,
            slice_bytes=256 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=32_000_000.0),
            mint=MintConfig(
                group_count=1,
                nodes_per_group=3,
                node_capacity_bytes=256 * 1024 * 1024,
                integrity_enabled=True,
            ),
            seed=seed,
        )
        self.rates = [None] + random.Random(seed).sample(
            WIRE_RATES, len(WIRE_RATES)
        )


class ServeZipf(Workload):
    """Open-loop zipfian reads with pipelined update cycles underneath."""

    name = "serve-zipf"

    def __init__(self, seed: int) -> None:
        from repro.workloads.serving import ServingWorkloadConfig

        self.config = ServingWorkloadConfig(seed=seed)

    def build(self, tracing: bool = False):
        from repro.workloads.serving import build_serving_system

        return build_serving_system(tracing=tracing)

    def run(self, trace=None, tracing: bool = False, check: bool = True) -> Unit:
        from repro.workloads.serving import run_serving

        # run_serving builds its own system, so the timed region holds
        # one set-up (setup_s reports what that costs).
        with trace or contextlib.nullcontext():
            started = time.perf_counter()
            result = run_serving(self.config, tracing=tracing)
            wall_s = time.perf_counter() - started
        peak_rss_mb = _peak_rss_mb()
        system = result.system
        data = result.data
        report = data["serving"]
        fleet = report["fleet"]
        outputs = _fleet_outputs(system, system.reports)
        latency = fleet["latency"]
        outputs.update(
            requests=fleet["requests"],
            reads_answered=fleet["admitted"],
            read_p50_s=latency["p50"],
            read_p99_s=latency["p99"],
            read_samples=latency["count"],
            serving_batches=fleet["batches"],
            serving_batched_keys=fleet["batched_keys"],
        )
        failures = check_serving(report)
        if latency["count"] < 100 * P99_TAIL_SAMPLES:
            failures.append(f"only {latency['count']} latency samples")
        return Unit(
            wall_s=wall_s,
            traced_s=wall_s,
            peak_rss_mb=peak_rss_mb,
            outputs=outputs,
            failures=failures,
            attempted=fleet["requests"],
            failed=fleet["shed"] + fleet["not_found"] + fleet["errors"],
            handles={"system": system, "report": report},
        )


class RebalanceCrash(Workload):
    """The growing-fleet month with a node crashed mid-split."""

    name = "rebalance-crash"

    def __init__(self, seed: int) -> None:
        from repro.cli import REBALANCE_CRASH_PLAN
        from repro.workloads.rebalance import RebalanceConfig

        # The seed reaches only the read probe: the fleet, corpus and
        # fault plan of this workload are fixed by the program.
        self.config = RebalanceConfig(
            plan=REBALANCE_CRASH_PLAN, probe_seed=seed
        )

    def build(self, tracing: bool = False):
        from repro.workloads.chaos import build_chaos_system

        return build_chaos_system(tracing=tracing)

    def run(self, trace=None, tracing: bool = False, check: bool = True) -> Unit:
        from repro.workloads import rebalance
        from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

        # run_rebalance times its own month and then checks itself
        # (acknowledged-key scan, replayed baseline); a layer trace
        # covers the whole call, the end-to-end wall only the month.
        # The peak RSS is taken as the replay starts, before its second
        # fleet exists.
        peak = {}
        run_baseline = rebalance.run_baseline

        def sampled_baseline(*args, **kwargs):
            peak["mb"] = _peak_rss_mb()
            return run_baseline(*args, **kwargs)

        with trace or contextlib.nullcontext(), _patched(
            rebalance, "run_baseline", sampled_baseline
        ):
            started = time.perf_counter()
            result = rebalance.run_rebalance(self.config, tracing=tracing)
            traced_s = time.perf_counter() - started
        system = result.system
        data = result.data
        outputs = _fleet_outputs(system, system.reports)
        migration = data["migration"]
        latency = data["read_latency"]["overall"]
        outputs.update(
            records_moved=migration["records_copied"],
            bytes_moved=migration["bytes_moved"],
            repair_keys=result.injector.counters.repair_keys,
            reads_answered=data["availability"]["probes"]
            - data["availability"]["unavailable"],
            probe_mean_s=latency["mean"],
            digest=data["equivalence"]["live_digest"],
        )
        failures = check_rebalance(data)
        if check:
            schedule = MonthlyTrace(MonthlyTraceConfig(days=self.config.days))
            rates = [None] + [day.mutation_rate for day in schedule.days()]
            dataset = expected_dataset(system.config, rates)
            failures += _readback(outputs, system, dataset)
        return Unit(
            wall_s=data["wall_s"],
            traced_s=traced_s,
            peak_rss_mb=peak["mb"],
            outputs=outputs,
            failures=failures,
            attempted=data["verified_keys"] + outputs.get("readbacks", 0),
            failed=data["lost_acknowledged_keys"]
            + data["under_replicated_final"]
            + outputs.get("read_mismatches", 0),
            handles={"system": system, "data": data},
        )


WORKLOADS = {
    cls.name: cls for cls in (IngestFleet, ServeZipf, WireMonth, RebalanceCrash)
}
