"""The update-and-serve benchmark: one command, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` runs checked units of the workload until ``--seconds`` of
timed wall time are used, times the system's construction repeatedly
before every unit and after the last (``setup_s``), and reports the
end-to-end metrics.  ``--trace 1``
runs one plain unit, one unit under per-layer wrappers and one with the
program's own tracer on, and reports the per-layer metrics.
``--workload all`` runs every workload in its own process and prints a
table.

Each unit, and each batch of set-up timings, runs in a fresh child
process, so every one starts from the same interpreter state and a unit
reports its own peak RSS; the parent waits for each child before
starting the next.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  A
failed output check prints ``correct: false`` and exits 1.  Every run
also appends a record, with host metadata, to ``perfbench/out/runs.jsonl``
(span files of traced runs land beside it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: system constructions timed in a child before every unit and after the
#: last (each batch at least this many, and until SETUP_MIN_S is spent),
#: so the set-up samples span the run as the units do; setup_s is their
#: median
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5

#: a unit child that runs longer than this is stopped and counted failed
UNIT_TIMEOUT_S = 150

#: Unit processes share one hash seed.  Some program paths iterate sets
#: of byte keys (run_rebalance's acknowledged-key scan reads in that
#: order, and the device state it leaves shapes later reads), so a fixed
#: seed makes a unit's outputs a function of ``--seed`` alone.
UNIT_ENV = dict(os.environ, PYTHONHASHSEED="0")

#: end-to-end metric -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "keys_per_s": "keys/s",
    "reads_per_s": "reads/s",
    "sim_s_per_wall_s": "ratio",
    "peak_rss_mb": "MiB",
    "sim_update_s": "sim_s",
    "sim_read_p50_ms": "sim_ms",
    "sim_read_p99_ms": "sim_ms",
    "wire_bytes_per_key": "B",
    "write_amp": "ratio",
}


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"perfbench: no program sources at {src}; run from a checkout "
            "of the repository"
        )
    sys.path.insert(0, src)


# ----------------------------------------------------------------------
# One unit, in a child process
# ----------------------------------------------------------------------


def _time_setups(workload) -> List[float]:
    setups: List[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        gc.collect()
        started = time.perf_counter()
        system = workload.build()
        setups.append(time.perf_counter() - started)
        del system
    return setups


def unit_main(args) -> int:
    """Run one unit and print its measurements as one JSON line."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.unit == "setup":
        print(json.dumps({"setups_s": _time_setups(workload)}))
        return 0
    layer_trace = None
    if args.unit == "layers":
        from layers import LayerTrace

        layer_trace = LayerTrace()
    unit = workload.run(
        trace=layer_trace, tracing=args.unit == "tracing", check=args.check
    )
    record = {
        "wall_s": unit.wall_s,
        "traced_s": unit.traced_s,
        "outputs": unit.outputs,
        "failures": unit.failures,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "peak_rss_mb": unit.peak_rss_mb,
    }
    if layer_trace is not None:
        from layers import layer_metrics

        record["layers"] = layer_metrics(layer_trace, unit.outputs)
        record["attributed_s"] = sum(layer_trace.self_ns) / 1e9
        os.makedirs(OUT, exist_ok=True)
        span_file = os.path.join(OUT, f"spans-{args.run_id}.jsonl")
        layer_trace.write_spans(span_file, args.run_id)
        record["span_file"] = os.path.relpath(span_file, ROOT)
        record["spans_total"] = layer_trace.span_count
    print(json.dumps(record))
    return 0


def _spawn_unit(args, mode: str, check: bool = True) -> Dict:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--unit",
        mode,
        "--run-id",
        args.run_id,
        "--check",
        str(int(check)),
    ]
    try:
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=UNIT_TIMEOUT_S,
            check=False,
            env=UNIT_ENV,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"{mode} unit ran past {UNIT_TIMEOUT_S}s"}
    lines = completed.stdout.strip().splitlines()
    if completed.returncode or not lines:
        tail = completed.stderr.strip().splitlines()[-3:]
        return {
            "crashed": f"{mode} unit exited {completed.returncode}: "
            + " | ".join(tail)
        }
    return json.loads(lines[-1])


def _compare(first: Dict, unit: Dict, label: str) -> List[str]:
    """Deterministic outputs must repeat exactly (an unchecked unit
    lacks the outputs of the checks it skipped)."""
    return [
        f"{label}: {name} is {value!r}, "
        f"first unit had {first['outputs'].get(name)!r}"
        for name, value in unit["outputs"].items()
        if first["outputs"].get(name) != value
    ]


def _collect(units: List[Dict]) -> Tuple[List[Dict], List[str]]:
    """Units that ran, and the failures of all of them."""
    failures = [unit["crashed"] for unit in units if "crashed" in unit]
    ran = [unit for unit in units if "crashed" not in unit]
    for index, unit in enumerate(ran):
        failures += unit["failures"]
        if index:
            failures += _compare(ran[0], unit, f"unit {index + 1}")
    return ran, failures


# ----------------------------------------------------------------------
# The two run modes
# ----------------------------------------------------------------------


def measure(args) -> Tuple[Dict, Dict]:
    """``--trace 0``: set-up timings, then checked units."""
    # The first unit runs every check; later units repeat it, and must
    # reproduce its deterministic outputs exactly.
    batches: List[Dict] = []
    units: List[Dict] = []
    while sum(unit.get("wall_s", args.seconds) for unit in units) < args.seconds:
        batches.append(_spawn_unit(args, "setup"))
        units.append(_spawn_unit(args, "plain", check=not units))
    batches.append(_spawn_unit(args, "setup"))
    ran, failures = _collect(units)
    failures += [batch["crashed"] for batch in batches if "crashed" in batch]
    setups = [s for batch in batches for s in batch.get("setups_s", ())]
    if not ran or not setups:
        return {}, {"correct": False, "failures": failures}

    first = ran[0]["outputs"]
    wall = statistics.median(unit["wall_s"] for unit in ran)
    reads = first.get("reads_answered", first["engine_reads"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "keys_per_s": first["keys_delivered"] / wall,
        "reads_per_s": reads / wall,
        "sim_s_per_wall_s": first["sim_s"] / wall,
        "peak_rss_mb": max(unit["peak_rss_mb"] for unit in ran),
        "sim_update_s": first["sim_update_s"],
        "sim_read_p50_ms": first["read_p50_s"] * 1e3,
        "sim_read_p99_ms": first["read_p99_s"] * 1e3,
        "wire_bytes_per_key": first["wire_bytes"] / first["keys_delivered"],
        "write_amp": first["device_bytes"] / first["user_bytes"],
    }
    metrics = {name: (values[name], END_TO_END[name]) for name in END_TO_END}
    summary = {
        "correct": not failures,
        "attempted": sum(unit["attempted"] for unit in ran),
        "failed": sum(unit["failed"] for unit in ran) + len(units) - len(ran),
        "failures": failures,
        "unit_walls_s": [unit["wall_s"] for unit in ran],
        "setups_s": setups,
        "outputs": first,
    }
    return metrics, summary


def trace(args) -> Tuple[Dict, Dict]:
    """``--trace 1``: plain, layer-traced and program-traced units."""
    plain = _spawn_unit(args, "plain")
    wrapped = _spawn_unit(args, "layers")
    traced = _spawn_unit(args, "tracing")
    ran, failures = _collect([plain, wrapped, traced])
    if len(ran) < 3:
        return {}, {"correct": False, "failures": failures}
    if wrapped["attributed_s"] > wrapped["traced_s"]:
        failures.append(
            f"layer self times sum to {wrapped['attributed_s']:.4f}s, "
            f"more than the traced wall {wrapped['traced_s']:.4f}s"
        )
    metrics = {name: tuple(pair) for name, pair in wrapped["layers"].items()}
    metrics.update(
        {
            "obs.tracer_wall_ratio": (
                traced["traced_s"] / plain["traced_s"],
                "ratio",
            ),
            "bench.trace_overhead_ratio": (
                wrapped["traced_s"] / plain["traced_s"],
                "ratio",
            ),
            "bench.unattributed_s": (
                wrapped["traced_s"] - wrapped["attributed_s"],
                "s",
            ),
            "fail_ratio": (wrapped["failed"] / wrapped["attempted"], "ratio"),
        }
    )
    summary = {
        "correct": not failures,
        "attempted": sum(unit["attempted"] for unit in ran),
        "failed": sum(unit["failed"] for unit in ran),
        "failures": failures,
        "walls_s": {
            "plain": plain["traced_s"],
            "layer_traced": wrapped["traced_s"],
            "program_traced": traced["traced_s"],
        },
        "span_file": wrapped["span_file"],
        "spans_total": wrapped["spans_total"],
        "outputs": wrapped["outputs"],
    }
    return metrics, summary


def run_one(args) -> int:
    from host import host_metadata

    args.run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{int(time.time())}"
    if args.trace:
        metrics, summary = trace(args)
    else:
        metrics, summary = measure(args)
    host = host_metadata()

    record = {
        "run": args.run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
        **summary,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(record, default=str) + "\n")

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"python={host['python']} nproc={host['nproc']} "
        f"calibration={host['calibration_loops_per_s']:.3f}/s"
    )
    for line in summary["failures"]:
        print(f"CHECK FAILED: {line}")
    if not metrics:
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if summary["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; a table of the results."""
    from workloads import WORKLOADS

    results = {}
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        for line in lines:
            if line.startswith("CHECK FAILED"):
                print(f"{name}: {line}")
        if completed.returncode:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    if not results:
        return 1
    names = list(results)
    first = results[names[0]]["metrics"]
    print(f"{'metric':34s} {'unit':>8s} " + " ".join(f"{n:>16s}" for n in names))
    for metric, entry in first.items():
        cells = " ".join(
            f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names
        )
        print(f"{metric:34s} {entry['unit']:>8s} {cells}")
    print(
        f"{'correct':34s} {'':>8s} "
        + " ".join(f"{str(results[n]['correct']):>16s}" for n in names)
    )
    return status


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=12.0,
        help="timed wall seconds to fill with units (at least one unit)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one unit in this process (plain, layers or tracing),
    # or time set-ups (setup)
    parser.add_argument(
        "--unit",
        choices=("plain", "layers", "tracing", "setup"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--run-id", default="", help=argparse.SUPPRESS)
    parser.add_argument(
        "--check", type=int, choices=(0, 1), default=1, help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    _import_program()
    if args.unit:
        return unit_main(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
