"""Bandwidth bench: what the wire layer saves beyond deduplication.

Four arms run the identical changed-value-heavy month (pipelined, on the
chaos-size fleet) and differ only in the bandwidth layers enabled:

* ``raw`` — no dedup, no wire encoding (every value ships in full);
* ``dedup`` — the paper's whole-value signature dedup only;
* ``wire`` — wire encoding only (delta + varint + DEFLATE);
* ``dedup+wire`` — both, the full stack.

The headline number is ``wire_reduction_ratio``: the fraction of
bytes-on-the-wire the wire layer removes *beyond* what dedup already
removed (``1 - wire(dedup+wire) / wire(dedup)``) — the A15 target is
>= 25% on a changed-value-heavy trace, where dedup alone has little to
say.  Delivered contents must be byte-identical across arms that share
a dedup setting: each arm records a SHA-256 digest of the full fleet
state and ``delivered_digest_match`` pins ``dedup`` == ``dedup+wire``.

The entry also reports the tiered-integrity audit economics measured on
the full-stack arm: full cryptographic hashes per audited slice under
the tiered audit (O(log n) sampling + Merkle paths) vs the naive
re-hash-everything baseline (O(n)).

``repro bandwidth`` is the CLI front end; its CI regression gate against
``BENCH_bandwidth.json`` is the ``bandwidth`` spec in
:mod:`repro.analysis.benchgate`.
"""

from __future__ import annotations

import hashlib
import math
import platform
import time
from typing import Dict, List, Optional

from repro.errors import ConfigError

#: canonical arm order, as recorded in BENCH_bandwidth.json
ARM_NAMES = ("raw", "dedup", "wire", "dedup+wire")

#: changed-value-heavy daily mutation rates (cycled to the month length):
#: most values change every cycle, so whole-value dedup saves little and
#: the delta layer has to do the work
HEAVY_RATES = (0.55, 0.7, 0.6, 0.65, 0.5, 0.7)


def build_bandwidth_system(dedup: bool, wire: bool, tracing: bool = False):
    """The chaos-size fleet with the requested bandwidth layers."""
    from repro.bifrost.channels import TopologyConfig
    from repro.core.config import DirectLoadConfig
    from repro.core.directload import DirectLoad
    from repro.mint.cluster import MintConfig

    return DirectLoad(
        DirectLoadConfig(
            tracing_enabled=tracing,
            dedup_enabled=dedup,
            wire_encoding=wire,
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


def month_rates(days: int) -> List[Optional[float]]:
    """Bootstrap plus ``days`` changed-value-heavy mutation rates."""
    if days < 1:
        raise ConfigError(f"days must be >= 1, got {days}")
    return [None] + [
        HEAVY_RATES[day % len(HEAVY_RATES)] for day in range(days)
    ]


def fleet_digest(system) -> str:
    """SHA-256 over the full stored fleet state, order-independent.

    The byte-identity witness: two runs that delivered the same bytes to
    the same replicas produce the same digest, whatever travelled.
    """
    from repro.workloads.chaos import fleet_state

    state = fleet_state(system)
    digest = hashlib.sha256()
    for state_key, record in sorted(state.items()):
        digest.update(repr(state_key).encode())
        digest.update(repr(record).encode())
    return digest.hexdigest()


def run_arm(name: str, days: int, tracing: bool = False) -> Dict[str, object]:
    """One arm's month; returns its byte accounting and state digest."""
    if name not in ARM_NAMES:
        raise ConfigError(
            f"unknown bandwidth arm {name!r}; "
            f"expected one of {', '.join(ARM_NAMES)}"
        )
    dedup = name in ("dedup", "dedup+wire")
    wire = name in ("wire", "dedup+wire")
    system = build_bandwidth_system(dedup, wire, tracing=tracing)
    started = time.perf_counter()
    reports = system.run_pipelined_cycles(month_rates(days))
    wall_s = time.perf_counter() - started
    transport = system.transport
    result: Dict[str, object] = {
        "wall_s": round(wall_s, 4),
        "sim_s": round(system.sim.now, 4),
        "events": int(system.sim.events_processed),
        "cycles": len(reports),
        "keys_delivered": int(sum(r.keys_delivered for r in reports)),
        "wire_bytes_sent": int(transport.total_wire_bytes_sent),
        "payload_bytes_sent": int(transport.total_payload_bytes_sent),
        "state_digest": fleet_digest(system),
    }
    if wire:
        stats = system.wire_encoder.stats
        result.update(
            {
                "payload_bytes": int(stats.payload_bytes),
                "wire_bytes": int(stats.wire_bytes),
                "compression_ratio": round(stats.compression_ratio, 4),
                "entries_delta": int(stats.entries_delta),
                "entries_full": int(stats.entries_full),
                "encode_cpu_s": round(stats.encode_cpu_s, 6),
                "decode_cpu_s": round(
                    sum(
                        cluster.wire_decoder.stats.decode_cpu_s
                        for cluster in system.clusters.values()
                    ),
                    6,
                ),
                "slices_parked": int(
                    sum(
                        cluster.slices_parked
                        for cluster in system.clusters.values()
                    )
                ),
                "slices_unparked": int(
                    sum(
                        cluster.slices_unparked
                        for cluster in system.clusters.values()
                    )
                ),
            }
        )
    result["_system"] = system  # stripped before the entry serializes
    return result


def _audit_economics(system) -> Dict[str, object]:
    """Tiered vs naive audit hashing on one delivered fleet."""
    from repro.faults.repair import AuditResult, ReplicaRepairer

    repairer = ReplicaRepairer()
    tiered = AuditResult()
    naive = AuditResult()
    records_tracked = 0
    slices_tracked = 0
    for cluster in system.clusters.values():
        tiered.merge(repairer.audit_cluster(cluster))
        naive.merge(repairer.audit_cluster(cluster, naive=True))
        records_tracked += cluster.integrity.counters.records_tracked
        slices_tracked += cluster.integrity.counters.slices_tracked
    hashes_per_slice = (
        tiered.full_hashes / tiered.slices_audited
        if tiered.slices_audited
        else 0.0
    )
    # O(log n) witness: per audited slice the tiered audit computes at
    # most ceil(log2(records)) + 2 full hashes (samples + the seal).
    max_records = max(
        (
            summary.record_count
            for cluster in system.clusters.values()
            for summary in cluster.integrity.all_summaries()
        ),
        default=1,
    )
    log_bound = math.ceil(math.log2(max(2, max_records))) + 2
    return {
        "records_tracked": int(records_tracked),
        "slices_tracked": int(slices_tracked),
        "tiered_full_hashes": int(tiered.full_hashes),
        "naive_full_hashes": int(naive.full_hashes),
        "tiered_records_sampled": int(tiered.records_sampled),
        "hash_ratio": round(
            naive.full_hashes / tiered.full_hashes, 2
        )
        if tiered.full_hashes
        else 0.0,
        "tiered_hashes_per_slice": round(hashes_per_slice, 2),
        "log2_bound_per_slice": int(log_bound),
        "clean": bool(tiered.clean and naive.clean),
    }


def run_bandwidth(
    days: int = 4,
    label: Optional[str] = None,
    tracing: bool = False,
) -> Dict[str, object]:
    """Run all four arms and return one BENCH_bandwidth entry."""
    arms: Dict[str, Dict[str, object]] = {}
    systems: Dict[str, object] = {}
    for name in ARM_NAMES:
        result = run_arm(name, days=days, tracing=tracing)
        systems[name] = result.pop("_system")
        arms[name] = result
    dedup_wire = arms["dedup+wire"]["wire_bytes_sent"]
    dedup_only = arms["dedup"]["wire_bytes_sent"]
    raw_only = arms["raw"]["wire_bytes_sent"]
    entry: Dict[str, object] = {
        "label": label or "run",
        "python": platform.python_version(),
        "days": days,
        "arms": arms,
        #: the A15 headline: wire bytes removed beyond dedup alone
        "wire_reduction_ratio": round(
            1.0 - dedup_wire / dedup_only, 4
        )
        if dedup_only
        else 0.0,
        "wire_reduction_vs_raw": round(
            1.0 - dedup_wire / raw_only, 4
        )
        if raw_only
        else 0.0,
        "delivered_digest_match": (
            arms["dedup"]["state_digest"] == arms["dedup+wire"]["state_digest"]
            and arms["raw"]["state_digest"] == arms["wire"]["state_digest"]
        ),
        "audit": _audit_economics(systems["dedup+wire"]),
    }
    return entry


__all__ = [
    "ARM_NAMES",
    "HEAVY_RATES",
    "build_bandwidth_system",
    "fleet_digest",
    "month_rates",
    "run_arm",
    "run_bandwidth",
]
