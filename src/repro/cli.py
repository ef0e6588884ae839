"""Command-line interface: quick, scaled runs of the key experiments.

Usage::

    python -m repro demo            # QinDB semantics walkthrough
    python -m repro fig5            # engine write-amplification comparison
    python -m repro fig9 --days 10  # dedup-vs-update-time mini month
    python -m repro month --pipelined  # overlapped daily update cycles
    python -m repro dedup-sweep     # bandwidth saving across dup ratios
    python -m repro observe         # traced cycle: stages + metrics
    python -m repro perf --json     # kernel bench: events/sec per scenario
    python -m repro bandwidth --json  # wire bytes: dedup x encoding arms
    python -m repro serve --json    # read-serving: batching, shedding, SLO
    python -m repro chaos --plan single-node-crash  # faults + recovery
    python -m repro health --json   # telemetry: alerts, MTTD/MTTR, profile

Each subcommand is a smaller sibling of the corresponding benchmark in
``benchmarks/`` — same code paths, friendlier runtimes.  Every command
that renders a table also takes ``--json`` to emit the same data as
machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.benchgate import (
    GATES,
    add_gate_args,
    apply_gate,
    render_gate,
)
from repro.analysis.tables import render_table


def _emit(args, data: dict, render) -> None:
    """Print ``data`` as JSON if ``--json``, else via ``render(data)``."""
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        render(data)


def _cmd_demo(args) -> int:
    from repro.qindb.engine import QinDB

    db = QinDB.with_capacity(64 * 1024 * 1024)
    db.put(b"url", 1, b"version-1 terms")
    db.put(b"url", 2, None)
    db.put(b"url", 3, b"version-3 terms")
    db.delete(b"url", 1)
    stats = db.stats()
    data = {
        "operations": [
            {"operation": "GET url/3", "result": db.get(b"url", 3).decode()},
            {
                "operation": "GET url/2 (deduplicated)",
                "result": db.get(b"url", 2).decode(),
            },
            {"operation": "GET url/1 (deleted)", "result": "KeyNotFoundError"},
        ],
        "stats": {
            "software_write_amplification": stats.software_write_amplification,
            "hardware_write_amplification": stats.hardware_write_amplification,
            "memtable_items": stats.memtable_items,
        },
    }

    def render(data: dict) -> None:
        rows = [[op["operation"], op["result"]] for op in data["operations"]]
        print(render_table(["operation", "result"], rows))
        stats = data["stats"]
        print(
            f"\nsoftware WA {stats['software_write_amplification']:.2f}x, "
            f"hardware WA {stats['hardware_write_amplification']:.2f}x, "
            f"{stats['memtable_items']} memtable items"
        )

    _emit(args, data, render)
    return 0


def _cmd_fig5(args) -> int:
    from repro.lsm.engine import LSMConfig, LSMEngine
    from repro.qindb.engine import QinDB, QinDBConfig
    from repro.ssd.timing import TimingModel
    from repro.workloads.fig5 import Fig5Workload, Fig5WorkloadConfig
    from repro.workloads.kvtrace import replay_trace

    timing = TimingModel(
        page_read_s=80e-6, page_write_s=400e-6, block_erase_s=2e-3,
        channel_parallelism=1,
    )
    workload_config = Fig5WorkloadConfig(
        key_count=args.keys, value_bytes_mean=8 * 1024, versions=8,
        retained_versions=4,
    )
    engines = []
    for name, engine in (
        (
            "QinDB",
            QinDB.with_capacity(
                64 * 1024 * 1024,
                config=QinDBConfig(segment_bytes=2 * 1024 * 1024),
                timing=timing,
            ),
        ),
        (
            "LSM",
            LSMEngine.with_capacity(
                64 * 1024 * 1024,
                config=LSMConfig(
                    memtable_bytes=512 * 1024,
                    level1_max_bytes=1024 * 1024,
                    max_file_bytes=128 * 1024,
                ),
                timing=timing,
            ),
        ),
    ):
        result = replay_trace(
            engine,
            Fig5Workload(workload_config).ops(),
            sample_interval_s=0.5,
            pace_user_bytes_per_s=3.5 * 1024 * 1024,
        )
        stats = result.final_stats
        engines.append(
            {
                "engine": name,
                "user_write_mean_mbs": result.user_write_mean_mbs,
                "sys_write_mean_mbs": result.sys_write_mean_mbs,
                "software_write_amplification": (
                    stats.software_write_amplification
                ),
                "total_write_amplification": stats.total_write_amplification,
            }
        )
    data = {"engines": engines}

    def render(data: dict) -> None:
        rows = [
            [
                row["engine"],
                f"{row['user_write_mean_mbs']:.2f}",
                f"{row['sys_write_mean_mbs']:.2f}",
                f"{row['software_write_amplification']:.2f}x",
                f"{row['total_write_amplification']:.2f}x",
            ]
            for row in data["engines"]
        ]
        print(
            render_table(
                ["engine", "user MB/s", "sys MB/s", "software WA", "total WA"],
                rows,
            )
        )

    _emit(args, data, render)
    return 0


def _cmd_fig9(args) -> int:
    from repro.analysis.stats import pearson_correlation
    from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

    system = _make_month_system(backbone_bps=100_000.0)
    system.run_update_cycle()
    days = []
    ratios, times = [], []
    for day in MonthlyTrace(MonthlyTraceConfig(days=args.days)).days():
        report = system.run_update_cycle(mutation_rate=day.mutation_rate)
        ratios.append(report.dedup_ratio)
        times.append(report.update_time_s)
        days.append(
            {
                "day": day.day,
                "dedup_ratio": report.dedup_ratio,
                "update_time_s": report.update_time_s,
            }
        )
    data = {
        "days": days,
        "pearson_r": pearson_correlation(ratios, times),
    }

    def render(data: dict) -> None:
        rows = [
            [
                row["day"],
                f"{row['dedup_ratio'] * 100:.0f}%",
                f"{row['update_time_s']:.1f}s",
            ]
            for row in data["days"]
        ]
        print(render_table(["day", "dedup", "update time"], rows))
        print(f"\nPearson r = {data['pearson_r']:.3f}")

    _emit(args, data, render)
    return 0


def _make_month_system(backbone_bps: float = 1_000_000.0):
    """A small DirectLoad for ``repro month`` and ``repro fig9``.

    At the default backbone a version's delivery tail is a fraction of
    the 5 s generation window — the regime where pipelining generation
    against delivery actually shortens the month.  fig9's 10x slower
    backbone makes delivery dominate, so update time tracks dedup.
    """
    from repro.bifrost.channels import TopologyConfig
    from repro.core.config import DirectLoadConfig
    from repro.core.directload import DirectLoad
    from repro.mint.cluster import MintConfig

    return DirectLoad(
        DirectLoadConfig(
            doc_count=80,
            vocabulary_size=300,
            doc_length=20,
            summary_value_bytes=1024,
            forward_value_bytes=256,
            slice_bytes=32 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=backbone_bps),
            mint=MintConfig(
                group_count=1, nodes_per_group=3,
                node_capacity_bytes=64 * 1024 * 1024,
            ),
        )
    )


def _cmd_month(args) -> int:
    from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

    schedule = MonthlyTrace(MonthlyTraceConfig(days=args.days)).days()
    # Version 1 is the bootstrap load; one more version per scheduled day.
    specs = [None] + [day.mutation_rate for day in schedule]
    system = _make_month_system()
    if args.pipelined:
        reports = system.run_pipelined_cycles(specs)
        makespan_s = system.last_pipelined_makespan_s
    else:
        started = system.sim.now
        reports = [system.run_update_cycle()]
        for day in schedule:
            reports.append(
                system.run_update_cycle(mutation_rate=day.mutation_rate)
            )
        makespan_s = system.sim.now - started
    cycles = [
        {
            "version": report.version,
            "dedup_ratio": report.dedup_ratio,
            "update_time_s": report.update_time_s,
            "keys_delivered": report.keys_delivered,
            "promoted": report.promoted,
            "stages": report.stages,
        }
        for report in reports
    ]
    data = {
        "mode": "pipelined" if args.pipelined else "serial",
        "days": args.days,
        "cycles": cycles,
        "makespan_s": makespan_s,
        "sum_update_time_s": sum(r.update_time_s for r in reports),
        "keys_delivered": sum(r.keys_delivered for r in reports),
    }

    def render(data: dict) -> None:
        rows = [
            [
                row["version"],
                f"{row['dedup_ratio'] * 100:.0f}%",
                f"{row['update_time_s']:.1f}s",
                f"{row['keys_delivered']:,}",
                "yes" if row["promoted"] else "NO",
            ]
            for row in data["cycles"]
        ]
        print(
            render_table(
                ["version", "dedup", "update time", "keys", "promoted"], rows
            )
        )
        print(
            f"\n{data['mode']} month: makespan {data['makespan_s']:.1f}s, "
            f"sum of update times {data['sum_update_time_s']:.1f}s"
        )

    _emit(args, data, render)
    return 0


def _cmd_dedup_sweep(args) -> int:
    from repro.bifrost.dedup import Deduplicator
    from repro.indexing.types import IndexDataset, IndexEntry, IndexKind
    from repro.workloads.kvtrace import make_value

    points = []
    for ratio in (0.0, 0.3, 0.5, 0.7, 0.9):
        deduplicator = Deduplicator()
        for version in (1, 2):
            dataset = IndexDataset(version=version)
            unchanged = int(200 * ratio)
            for index in range(200):
                key = f"k{index:04d}".encode()
                source = 1 if (version == 1 or index < unchanged) else version
                dataset.add(
                    IndexEntry(IndexKind.FORWARD, key, make_value(key, source, 2048))
                )
            result = deduplicator.process(dataset)
        points.append(
            {
                "duplicates": ratio,
                "dedup_ratio": result.dedup_ratio,
                "bandwidth_saving_ratio": result.bandwidth_saving_ratio,
            }
        )
    data = {"points": points}

    def render(data: dict) -> None:
        rows = [
            [
                f"{row['duplicates']:.0%}",
                f"{row['dedup_ratio']:.0%}",
                f"{row['bandwidth_saving_ratio']:.0%}",
            ]
            for row in data["points"]
        ]
        print(render_table(["duplicates", "dedup ratio", "bandwidth saved"], rows))

    _emit(args, data, render)
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import (
        collect_sections,
        generate_report,
        sections_to_dict,
    )

    sections = collect_sections(days=args.days)
    data = sections_to_dict(sections)
    content = generate_report(days=args.days, sections=sections)
    with open(args.output, "w") as handle:
        handle.write(content)
    if args.json:
        data["output"] = args.output
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"wrote {args.output}")
    return 0 if data["all_hold"] else 1


def _cmd_observe(args) -> int:
    from repro.obs.runner import observe_cycle

    observation = observe_cycle(cycles=args.cycles)
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(observation.chrome_trace(), handle)
    data = observation.to_dict()
    if args.trace_out:
        data["trace_out"] = args.trace_out

    def render(data: dict) -> None:
        cycle_rows = [
            [
                row["version"],
                f"{row['dedup_ratio'] * 100:.0f}%",
                f"{row['bytes_sent']:,}",
                f"{row['update_time_s']:.1f}s",
                "yes" if row["promoted"] else "NO",
            ]
            for row in data["cycles"]
        ]
        print(
            render_table(
                ["version", "dedup", "bytes sent", "update time", "promoted"],
                cycle_rows,
            )
        )
        stage_rows = [
            [
                row["stage"],
                row["count"],
                f"{row['total_s']:.3f}s",
                f"{row['share'] * 100:.1f}%",
            ]
            for row in data["stages"]
        ]
        print()
        print(render_table(["stage", "spans", "sim time", "share"], stage_rows))
        print()
        highlight_rows = [
            [name, f"{value:,.0f}"]
            for name, value in sorted(data["highlights"].items())
        ]
        print(render_table(["metric", "value"], highlight_rows))
        print(f"\n{data['span_count']} spans recorded")
        if "trace_out" in data:
            print(f"wrote Chrome trace to {data['trace_out']}")

    _emit(args, data, render)
    return 0


def _cmd_perf(args) -> int:
    from repro.workloads.perf import run_perf

    entry = run_perf(
        scenarios=args.scenario or None,
        days=args.days,
        repeat=args.repeat,
        fleet=args.fleet,
        tracing=args.tracing,
        label=args.label,
        fleet_groups=args.fleet_groups,
        fleet_nodes_per_group=args.fleet_nodes,
    )
    data = dict(entry)
    failures = apply_gate("kernel", entry, data, args)

    def render(data: dict) -> None:
        rows = [
            [
                name,
                f"{result['events']:,}",
                f"{result['wall_s']:.3f}s",
                f"{result['events_per_s']:,.0f}",
                f"{result['sim_s_per_wall_s']:,.1f}",
                f"{result['keys_delivered']:,}",
            ]
            for name, result in data["scenarios"].items()
        ]
        print(
            render_table(
                ["scenario", "events", "wall", "events/s", "sim-s/wall-s",
                 "keys"],
                rows,
            )
        )
        if "fleet" in data:
            fleet = data["fleet"]
            print(
                f"\nfleet smoke: {fleet['nodes']} nodes, "
                f"{fleet['keys_per_cycle']:,} keys/cycle, "
                f"{fleet['wall_s']:.2f}s wall "
                f"({fleet['events_per_s']:,.0f} events/s)"
            )
        render_gate(data, data["label"])

    _emit(args, data, render)
    return 1 if failures else 0


def _cmd_bandwidth(args) -> int:
    from repro.workloads.bandwidth import run_bandwidth

    entry = run_bandwidth(days=args.days, label=args.label)
    data = dict(entry)
    failures = apply_gate("bandwidth", entry, data, args)

    def render(data: dict) -> None:
        rows = [
            [
                name,
                f"{arm['wire_bytes_sent']:,}",
                f"{arm['payload_bytes_sent']:,}",
                f"{arm.get('compression_ratio', 1.0):.3f}",
                f"{arm['keys_delivered']:,}",
            ]
            for name, arm in data["arms"].items()
        ]
        print(
            render_table(
                ["arm", "wire bytes", "payload bytes", "wire/payload",
                 "keys"],
                rows,
            )
        )
        print(
            f"\nwire reduction beyond dedup: "
            f"{data['wire_reduction_ratio'] * 100:.1f}% "
            f"(vs raw: {data['wire_reduction_vs_raw'] * 100:.1f}%); "
            "delivered contents "
            + (
                "byte-identical"
                if data["delivered_digest_match"]
                else "DIFFER"
            )
        )
        audit = data["audit"]
        print(
            f"audit: tiered {audit['tiered_full_hashes']:,} full hashes "
            f"vs naive {audit['naive_full_hashes']:,} "
            f"({audit['hash_ratio']:.1f}x fewer), "
            f"{audit['tiered_hashes_per_slice']:.1f} hashes/slice "
            f"(log2 bound {audit['log2_bound_per_slice']})"
        )
        render_gate(data, data["label"])

    _emit(args, data, render)
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    from repro.serving import ServingConfig
    from repro.workloads.serving import (
        FlashCrowdConfig,
        ServingWorkloadConfig,
        run_serving_bench,
    )

    flash = None
    if args.flash_multiplier > 1:
        flash = FlashCrowdConfig(multiplier=args.flash_multiplier)
    workload = ServingWorkloadConfig(
        days=args.days,
        qps_per_node=args.qps_per_node,
        duration_s=args.duration,
        flash=flash,
        updates=args.updates,
        plan=args.plan,
        serving=ServingConfig(
            coalesce_window_s=args.window,
            max_batch=args.max_batch,
            max_queue_depth_per_replica=args.depth,
            slo_p99_s=args.slo,
        ),
        seed=args.seed,
    )
    entry = run_serving_bench(label=args.label or "run", workload=workload)
    data = dict(entry)
    failures = apply_gate("serving", entry, data, args)

    def render(data: dict) -> None:
        ablation = data["ablation"]
        fleet = data["workload"]["serving"]["fleet"]
        rows = [
            [
                arm,
                f"{ablation[arm]['keys']:,}",
                f"{ablation[arm]['device_s'] * 1000:.2f}ms",
                f"{ablation[arm]['keys_per_device_s']:,.0f}",
            ]
            for arm in ("per_key", "batched")
        ]
        print(render_table(["read path", "keys", "device time", "keys/s"], rows))
        print(
            f"\nbatched speedup {ablation['speedup']:.2f}x, values "
            + ("byte-identical" if ablation["digests_match"] else "DIFFER")
        )
        latency = fleet.get("p99_s", 0.0)
        print(
            f"serving: {fleet['requests']:,} offered, "
            f"{fleet['admitted']:,} admitted, {fleet['shed']:,} shed "
            f"({fleet['shed_rate'] * 100:.1f}%), "
            f"{fleet['not_found']} not found"
        )
        print(
            f"latency: p99 {latency * 1000:.2f}ms vs SLO "
            f"{fleet['slo_p99_s'] * 1000:.0f}ms "
            f"({'met' if fleet['slo_met'] else 'MISSED'}); "
            f"{data['workload']['achieved_qps']:,.0f} qps achieved"
        )
        render_gate(data, data["label"])

    _emit(args, data, render)
    return 1 if failures else 0


def _cmd_chaos(args) -> int:
    from repro.workloads.chaos import ChaosConfig, run_chaos

    result = run_chaos(
        ChaosConfig(
            plan=args.plan, cycles=args.cycles, telemetry=args.telemetry,
            integrity=args.integrity, wire_encoding=args.wire,
        )
    )
    data = result.data

    def render(data: dict) -> None:
        rows = [
            [
                row["version"],
                f"{row['keys_delivered']:,}",
                f"{row['update_time_s']:.1f}s",
                f"{row['miss_ratio'] * 100:.2f}%",
                row["retransmissions"],
                "yes" if row["promoted"] else "NO",
            ]
            for row in data["cycles"]
        ]
        print(
            render_table(
                ["version", "keys", "update time", "miss", "retx", "promoted"],
                rows,
            )
        )
        availability = data["availability"]
        faults = data["faults"]
        transport = data["transport"]
        print(
            f"\nplan {data['plan']!r}: {data['fault_events']} fault event(s), "
            f"{faults['node_crashes']} crash(es), "
            f"{faults['link_partitions']} partition(s)"
        )
        print(
            f"availability: {availability['unavailable']}/"
            f"{availability['probes']} probe reads unavailable "
            f"({availability['unavailable_ratio'] * 100:.1f}%)"
        )
        print(
            f"repair: {faults['repair_keys']} keys / "
            f"{faults['repair_bytes']:,} bytes across "
            f"{faults['repair_runs']} run(s); time to re-protect "
            f"{faults['reprotect_last_s']:.2f}s "
            f"(worst {faults['reprotect_max_s']:.2f}s)"
        )
        print(
            f"transport: {transport['retransmits']} retransmit(s), "
            f"{transport['relay_failovers']} relay failover(s), "
            f"{transport['abandoned']} abandoned"
        )
        print(
            f"verification: {data['lost_acknowledged_keys']}/"
            f"{data['verified_keys']} acknowledged keys lost, "
            f"{data['under_replicated_final']} under-replicated"
        )
        if "integrity" in data:
            integrity = data["integrity"]
            print(
                f"integrity: {integrity['slices_audited']} slice audit(s), "
                f"{integrity['records_sampled']} record(s) sampled, "
                f"{integrity['full_hashes']} full hash(es); "
                f"{integrity['divergent_records']} divergent, "
                f"{integrity['records_repaired']} repaired "
                f"({'clean' if integrity['clean'] else 'DAMAGED'})"
            )
        if "bandwidth" in data:
            bandwidth = data["bandwidth"]
            print(
                f"bandwidth: {bandwidth['wire_bytes_sent']:,} wire bytes "
                f"for {bandwidth['payload_bytes_sent']:,} payload bytes "
                f"(slice streams {bandwidth['compression_ratio']:.3f} of "
                f"logical; {bandwidth['slices_parked']} parked)"
            )
        if "detection" in data:
            detection = data["detection"]
            print(
                f"detection: {detection['detected']}/"
                f"{detection['injected']} fault(s) detected "
                f"({detection['undetected_required']} required miss(es)); "
                f"MTTD mean {detection['mttd']['mean_s']:.2f}s, "
                f"MTTR mean {detection['mttr']['mean_s']:.2f}s"
            )

    _emit(args, data, render)
    undetected = data.get("detection", {}).get("undetected_required", 0)
    ok = data["lost_acknowledged_keys"] == 0 and undetected == 0
    return 0 if ok else 1


def _cmd_health(args) -> int:
    from repro.workloads.health import HealthConfig, run_health

    result = run_health(
        HealthConfig(
            plan=args.plan,
            cycles=args.cycles,
            sample_interval_s=args.interval,
            fast_window_s=args.fast_window,
            slow_window_s=args.slow_window,
            watch_interval_s=args.watch_interval,
            top_k=args.top_k,
            include_flamegraph=args.flamegraph,
        )
    )
    data = result.data
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(result.chaos.system.tracer.to_chrome_trace(), handle)
        data["trace_out"] = args.trace_out
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(data: dict) -> None:
        detection = data["detection"]
        fault_rows = [
            [
                row["kind"],
                row["target"],
                f"{row['injected_at_s']:.2f}s",
                row["detected_by"] or "UNDETECTED",
                "-" if row["mttd_s"] is None else f"{row['mttd_s']:.2f}s",
                "-" if row["mttr_s"] is None else f"{row['mttr_s']:.2f}s",
            ]
            for row in detection["faults"]
        ]
        print(
            render_table(
                ["fault", "target", "injected", "detected by", "MTTD",
                 "MTTR"],
                fault_rows,
            )
        )
        print(
            f"\nplan {data['plan']!r}: {detection['detected']}/"
            f"{detection['injected']} fault(s) detected, "
            f"{detection['undetected_required']} required miss(es); "
            f"{len(data['alerts'])} alert(s) fired"
        )
        telemetry = data["telemetry"]
        print(
            f"telemetry: {telemetry['samples']} samples at "
            f"{telemetry['sample_interval_s']}s, windows "
            f"{telemetry['fast_window_s']}s/{telemetry['slow_window_s']}s; "
            f"fleet score {data['health']['fleet_score']:.2f}"
        )
        watch_rows = [
            [
                f"{row['at_s']:.1f}s",
                f"{row['fleet_score']:.2f}",
                row["nodes_down"],
                row["active_alerts"],
                ",".join(row["alert_names"]) or "-",
            ]
            for row in data["watch"]
        ]
        print()
        print(
            render_table(
                ["at", "fleet", "nodes down", "alerts", "firing"],
                watch_rows,
            )
        )
        profile = data["profile"]
        stage_rows = [
            [
                row["operation"],
                row["count"],
                f"{row['total_s']:.3f}s",
                f"{row['self_s']:.3f}s",
                f"{row['device_s']:.3f}s",
                f"{row['bytes']:,.0f}",
            ]
            for row in profile["stages"][: args.top_k]
        ]
        print()
        print(
            render_table(
                ["operation", "spans", "total", "self", "device", "bytes"],
                stage_rows,
            )
        )
        print(
            f"\nprofile: {profile['span_count']} spans, device busy "
            f"{profile['device_busy_s']:.3f}s, "
            f"{profile['bytes_moved']:,.0f} bytes moved"
        )
        if "trace_out" in data:
            print(f"wrote Chrome trace to {data['trace_out']}")

    _emit(args, data, render)
    ok = (
        data["lost_acknowledged_keys"] == 0
        and data["detection"]["undetected_required"] == 0
    )
    return 0 if ok else 1


#: crash plan for ``repro rebalance --crash``: kill a node of the group
#: created by the scripted split while it is still receiving copies —
#: the hardest elastic fault (copy target dies mid-rebalance).
REBALANCE_CRASH_PLAN = "crash node=north-dc1/g1/n0 at=0.05 down=2"


def _cmd_rebalance(args) -> int:
    from repro.workloads.rebalance import (
        RebalanceConfig,
        bench_entry,
        run_rebalance,
    )

    plan = REBALANCE_CRASH_PLAN if args.crash else args.plan
    config = RebalanceConfig(
        days=args.days,
        plan=plan,
        split_day=args.split_day,
        bandwidth_bps=args.bandwidth,
        max_records_per_s=args.records_per_s,
    )
    result = run_rebalance(config)
    data = dict(result.data)
    entry = bench_entry(data, label=args.label)
    data["entry"] = entry
    failures = apply_gate("rebalance", entry, data, args)

    def render(data: dict) -> None:
        entry = data["entry"]
        op_rows = [
            [
                f"{op['started_at_s']:.2f}s",
                op["dc"],
                op["kind"],
                op["target"],
                f"{op['duration_s']:.3f}s",
            ]
            for op in data["operations"]
        ]
        print(render_table(["start", "dc", "op", "target", "took"], op_rows))
        fleet = data["fleet"]
        print(
            f"\nfleet: {fleet['start']['nodes']} nodes / "
            f"{fleet['start']['groups']} groups -> "
            f"{fleet['final']['nodes']} nodes / "
            f"{fleet['final']['groups']} groups over {data['days']} days "
            f"({len(data['operations'])} ops, "
            f"{len(data['decisions'])} autoscaler decisions)"
        )
        migration = data["migration"]
        print(
            f"moved {migration['keys_moved']:,} keys "
            f"({migration['records_copied']:,} records + "
            f"{migration['bases_copied']:,} chain bases, "
            f"{migration['bytes_moved']:,} bytes) in "
            f"{migration['total_move_s']:.2f}s simulated; "
            f"{migration['withdrawals']:,} stale copies withdrawn"
        )
        overall = data["read_latency"]["overall"]
        moving = data["read_latency"]["during_migration"]
        print(
            f"reads: p99 {overall['p99'] * 1e3:.3f}ms overall, "
            f"{moving['p99'] * 1e3:.3f}ms during migration "
            f"({moving['count']} of {overall['count']} probes mid-move, "
            f"{data['availability']['unavailable']} unavailable)"
        )
        if "faults" in data:
            faults = data["faults"]
            print(
                f"faults: {faults['node_crashes']} crash(es), "
                f"{faults['node_restarts']} restart(s), "
                f"{faults['repair_keys']} keys re-replicated"
            )
        for contract in GATES["rebalance"].contracts:
            mark = "ok" if contract.holds(entry) else "FAIL"
            print(f"  [{mark}] {contract.name}")
        render_gate(data, entry["label"])

    _emit(args, data, render)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DirectLoad reproduction experiments"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="QinDB semantics walkthrough")

    fig5 = commands.add_parser("fig5", help="engine write-amplification comparison")
    fig5.add_argument("--keys", type=int, default=128)

    fig9 = commands.add_parser("fig9", help="dedup vs update time mini-month")
    fig9.add_argument("--days", type=int, default=10)

    month = commands.add_parser(
        "month", help="daily update cycles, serially or pipelined"
    )
    month.add_argument("--days", type=int, default=6)
    month.add_argument(
        "--pipelined", action="store_true",
        help="overlap version N+1's generation with version N's delivery",
    )

    dedup_sweep = commands.add_parser(
        "dedup-sweep", help="bandwidth saving across dup ratios"
    )

    report = commands.add_parser(
        "report", help="write a paper-vs-measured markdown report"
    )
    report.add_argument("--output", default="REPORT.md")
    report.add_argument("--days", type=int, default=8)

    observe = commands.add_parser(
        "observe", help="traced update cycles: stage breakdown + metrics"
    )
    observe.add_argument("--cycles", type=int, default=2)
    observe.add_argument(
        "--trace-out", default=None,
        help="write the Chrome trace_event JSON here",
    )

    perf = commands.add_parser(
        "perf", help="kernel perf bench: events/sec on the canned scenarios"
    )
    perf.add_argument(
        "--scenario", action="append", default=None,
        help="run only this scenario (repeatable); default: all three",
    )
    perf.add_argument("--days", type=int, default=6)
    perf.add_argument(
        "--repeat", type=int, default=1,
        help="best-of-N wall time per scenario (damps scheduler noise)",
    )
    perf.add_argument(
        "--fleet", action="store_true",
        help="also run the 72-node / 100k-keys-per-cycle fleet smoke",
    )
    perf.add_argument(
        "--fleet-groups", type=int, default=None,
        help="override the fleet smoke's groups per data center",
    )
    perf.add_argument(
        "--fleet-nodes", type=int, default=None,
        help="override the fleet smoke's nodes per group",
    )
    perf.add_argument(
        "--tracing", action="store_true",
        help="run with tracing enabled instead of the null-tracer path",
    )
    add_gate_args(perf, "kernel")

    bandwidth = commands.add_parser(
        "bandwidth",
        help="wire-encoding bench: bytes on the wire across dedup x "
        "encoding arms, plus tiered-audit hashing economics",
    )
    bandwidth.add_argument(
        "--days", type=int, default=4,
        help="changed-value-heavy cycles after the bootstrap",
    )
    add_gate_args(bandwidth, "bandwidth")

    serve = commands.add_parser(
        "serve",
        help="query-serving workload: batched reads, admission control, SLO",
    )
    serve.add_argument(
        "--days", type=int, default=2,
        help="update cycles driven concurrently with serving",
    )
    serve.add_argument("--qps-per-node", type=float, default=60.0)
    serve.add_argument(
        "--duration", type=float, default=20.0,
        help="minimum serving window in simulated seconds",
    )
    serve.add_argument(
        "--window", type=float, default=0.002,
        help="coalescing window in simulated seconds",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--depth", type=int, default=32,
        help="admitted queue depth per healthy replica before shedding",
    )
    serve.add_argument(
        "--slo", type=float, default=0.050,
        help="p99 latency target for admitted reads (simulated seconds)",
    )
    serve.add_argument(
        "--flash-multiplier", type=float, default=8.0,
        help="flash-crowd rate multiplier; 1 disables the surge",
    )
    serve.add_argument(
        "--updates", choices=("pipelined", "none"), default="pipelined",
        help="drive update cycles concurrent with serving, or serve only",
    )
    serve.add_argument(
        "--plan", default=None,
        help="optional chaos plan injected during the run",
    )
    serve.add_argument("--seed", type=int, default=23)
    add_gate_args(serve, "serving")

    chaos = commands.add_parser(
        "chaos", help="an update cycle under a fault plan + recovery audit"
    )
    chaos.add_argument(
        "--plan", default="single-node-crash",
        help="a named plan (none, single-node-crash, group-outage, "
        "relay-partition, region-isolation, corruption-burst) or raw "
        "plan text",
    )
    chaos.add_argument(
        "--cycles", type=int, default=2,
        help="total update cycles (the first is the fault-free bootstrap)",
    )
    chaos.add_argument(
        "--telemetry", action=argparse.BooleanOptionalAction, default=True,
        help="arm the telemetry plane (recorder + alerting + detection "
        "join); --no-telemetry runs the bare equivalence-pinned harness",
    )
    chaos.add_argument(
        "--integrity", action=argparse.BooleanOptionalAction, default=True,
        help="run a tiered integrity audit after the faults drain; "
        "--no-integrity skips it",
    )
    chaos.add_argument(
        "--wire", action="store_true",
        help="wire-encode slices (delta + DEFLATE) and report the "
        "wire-vs-payload byte accounting",
    )

    health = commands.add_parser(
        "health",
        help="fleet-health telemetry: alerts, MTTD/MTTR, per-stage profile",
    )
    health.add_argument(
        "--plan", default="single-node-crash",
        help="fault scenario, as in `repro chaos --plan`",
    )
    health.add_argument("--cycles", type=int, default=3)
    health.add_argument(
        "--interval", type=float, default=0.25,
        help="telemetry sampling interval (simulated seconds); bounds "
        "detection latency",
    )
    health.add_argument(
        "--fast-window", type=float, default=1.0,
        help="fast burn-rate alert window (simulated seconds)",
    )
    health.add_argument(
        "--slow-window", type=float, default=5.0,
        help="slow burn-rate alert window (simulated seconds)",
    )
    health.add_argument(
        "--watch-interval", type=float, default=2.0,
        help="cadence of the periodic fleet summaries in the report",
    )
    health.add_argument(
        "--top-k", type=int, default=10,
        help="hot operations kept in the per-stage profile",
    )
    health.add_argument(
        "--flamegraph", action="store_true",
        help="include the flamegraph tree in the JSON report (large)",
    )
    health.add_argument(
        "--out", default=None,
        help="also write the full JSON report to this file",
    )
    health.add_argument(
        "--trace-out", default=None,
        help="write the Chrome trace (spans + alert/fault instants) here",
    )

    rebalance = commands.add_parser(
        "rebalance",
        help="a month with a growing fleet: trace-driven autoscaling, a "
        "scripted group split, zero-loss migration audit",
    )
    rebalance.add_argument(
        "--days", type=int, default=10,
        help="scheduled days of the monthly trace (one update cycle each)",
    )
    rebalance.add_argument(
        "--plan", default="none",
        help="fault plan started when the scripted split begins (offsets "
        "relative to the split), or 'none'",
    )
    rebalance.add_argument(
        "--crash", action="store_true",
        help=f"shorthand for --plan {REBALANCE_CRASH_PLAN!r}: crash a "
        "freshly split group's node while it is receiving copies",
    )
    rebalance.add_argument(
        "--split-day", type=int, default=5,
        help="trace day whose cycle is followed by the scripted split",
    )
    rebalance.add_argument(
        "--bandwidth", type=float, default=4_000_000.0,
        help="migration copy budget in bytes per simulated second",
    )
    rebalance.add_argument(
        "--records-per-s", type=float, default=2000.0,
        help="migration copy budget in records per simulated second",
    )
    add_gate_args(rebalance, "rebalance")

    for sub in (
        demo, fig5, fig9, month, dedup_sweep, report, observe, perf,
        bandwidth, serve, chaos, health, rebalance,
    ):
        sub.add_argument(
            "--json", action="store_true",
            help="emit machine-readable JSON instead of tables",
        )

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "fig5": _cmd_fig5,
        "fig9": _cmd_fig9,
        "month": _cmd_month,
        "dedup-sweep": _cmd_dedup_sweep,
        "report": _cmd_report,
        "observe": _cmd_observe,
        "perf": _cmd_perf,
        "bandwidth": _cmd_bandwidth,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "health": _cmd_health,
        "rebalance": _cmd_rebalance,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
