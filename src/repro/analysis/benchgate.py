"""One regression gate for the four ``BENCH_*.json`` trajectories.

``repro perf``/``bandwidth``/``serve``/``rebalance`` append entries to
``BENCH_<benchmark>.json`` and gate a fresh run against a recorded one.
:data:`GATES` declares each bench's gate as data:

* **ratios** — a metric (a dotted path into an entry) must hold
  :data:`MIN_RATIO` of the baseline's value in its ``better`` direction.
  A metric the baseline lacks (or records as 0) is not gated; one the
  baseline has but the current entry lacks fails.
* **contracts** — absolute requirements on the current entry alone.
  They apply with or without a baseline; a missing value fails.
* ``keyed_by`` — ratios apply per sub-entry (the kernel's scenarios);
  a sub-entry absent from the baseline is skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: a ratio-gated metric may lose at most 20% against its baseline
MIN_RATIO = 0.8


def _lookup(entry: dict, path: str) -> object:
    """The value at dotted ``path`` in ``entry``, or None if absent."""
    value: object = entry
    for part in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


@dataclass(frozen=True)
class Ratio:
    """A metric that must hold :data:`MIN_RATIO` of its baseline value."""

    path: str
    better: str = "higher"  # or "lower"

    def failure(self, current: dict, baseline: dict) -> Optional[str]:
        base = _lookup(baseline, self.path)
        if not base:
            return None
        value = _lookup(current, self.path)
        if value is None:
            return f"{self.path} is missing (baseline {base:g})"
        if self.better == "higher" and value < MIN_RATIO * base:
            return (
                f"{self.path} {value:g} is below {MIN_RATIO:.0%} of "
                f"baseline {base:g}"
            )
        if self.better == "lower" and value > base / MIN_RATIO:
            return (
                f"{self.path} {value:g} exceeds 1/{MIN_RATIO:.0%} of "
                f"baseline {base:g}"
            )
        return None


@dataclass(frozen=True)
class Contract:
    """An absolute requirement: ``path`` is true, or ``path op value``."""

    name: str
    path: str
    op: str = "true"  # or "==" / ">="
    value: object = None

    def holds(self, entry: dict) -> bool:
        actual = _lookup(entry, self.path)
        if actual is None:
            return False
        if self.op == "==":
            return actual == self.value
        if self.op == ">=":
            return actual >= self.value
        return bool(actual)

    def failure(self, entry: dict) -> str:
        rule = "true" if self.op == "true" else f"{self.op} {self.value!r}"
        actual = _lookup(entry, self.path)
        return f"{self.name}: {self.path} is {actual!r}, required {rule}"


@dataclass(frozen=True)
class GateSpec:
    """How one bench's entries are recorded and gated."""

    benchmark: str
    units: Dict[str, str]
    ratios: Tuple[Ratio, ...]
    contracts: Tuple[Contract, ...] = ()
    keyed_by: Optional[str] = None

    def check(
        self,
        entry: dict,
        bench_path: Optional[str] = None,
        baseline_label: Optional[str] = None,
    ) -> List[str]:
        """Failure lines for ``entry`` (empty means the gate passes).

        Contracts always apply; ratios run against the last entry of
        ``bench_path`` (labelled ``baseline_label``, if given).
        """
        failures = [
            c.failure(entry) for c in self.contracts if not c.holds(entry)
        ]
        if bench_path is None:
            return failures
        with open(bench_path) as handle:
            entries = json.load(handle).get("entries") or []
        if baseline_label:
            entries = [e for e in entries if e.get("label") == baseline_label]
        if not entries:
            wanted = f" labelled {baseline_label!r}" if baseline_label else ""
            return failures + [f"{bench_path} has no baseline entries{wanted}"]
        baseline = entries[-1]
        pairs = [("", entry, baseline)]
        if self.keyed_by:
            base_groups = baseline.get(self.keyed_by) or {}
            pairs = [
                (f"{name}: ", group, base_groups[name])
                for name, group in (entry.get(self.keyed_by) or {}).items()
                if base_groups.get(name)
            ]
        for prefix, current, base in pairs:
            for ratio in self.ratios:
                line = ratio.failure(current, base)
                if line:
                    label = baseline.get("label")
                    failures.append(f"{prefix}{line} (label {label!r})")
        return failures

    def append(self, entry: dict, out_path: str) -> None:
        """Append ``entry`` to ``out_path``, creating the file if needed."""
        try:
            with open(out_path) as handle:
                bench = json.load(handle)
        except FileNotFoundError:
            bench = {
                "benchmark": self.benchmark, "units": self.units, "entries": []
            }
        bench["entries"].append(entry)
        with open(out_path, "w") as handle:
            json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")


_SPECS = (
    GateSpec(
        "kernel",
        units={
            "events_per_s": "kernel events per wall second",
            "sim_s_per_wall_s": "simulated seconds per wall second",
        },
        ratios=(Ratio("events_per_s"),),
        keyed_by="scenarios",
    ),
    GateSpec(
        "bandwidth",
        units={
            "wire_reduction_ratio": (
                "fraction of wire bytes removed beyond dedup alone"
            ),
            "hash_ratio": "naive over tiered full hashes during audits",
        },
        ratios=(Ratio("wire_reduction_ratio"), Ratio("audit.hash_ratio")),
        contracts=(Contract("byte-identical arms", "delivered_digest_match"),),
    ),
    GateSpec(
        "serving",
        units={
            "keys_per_device_s": "reads served per simulated device-second",
            "speedup": "batched over per-key read throughput",
            "latency": "simulated seconds, admitted requests only",
        },
        ratios=(Ratio("ablation.batched.keys_per_device_s"),),
        contracts=(
            Contract("byte-identical reads", "ablation.digests_match"),
            Contract("batched speedup floor", "ablation.speedup", ">=", 3.0),
            Contract("admitted p99 within SLO", "serving.fleet.slo_met"),
        ),
    ),
    GateSpec(
        "rebalance",
        units={
            "bytes_moved": (
                "payload bytes copied by the migrator, including "
                "dedup chain bases"
            ),
            "move_duration_s": (
                "summed simulated seconds of topology operations"
            ),
            "read_p99_during_move_s": (
                "p99 read service time (simulated seconds) for "
                "probes issued while a migration was in flight"
            ),
        },
        ratios=(
            Ratio("bytes_moved", "lower"),
            Ratio("move_duration_s", "lower"),
            Ratio("read_p99_during_move_s", "lower"),
        ),
        contracts=(
            Contract("zero acknowledged-key loss", "zero_loss"),
            Contract(
                "fully replicated at rest", "under_replicated_final", "==", 0
            ),
            Contract("byte-identical vs static baseline", "digests_match"),
        ),
    ),
)
GATES: Dict[str, GateSpec] = {spec.benchmark: spec for spec in _SPECS}


def add_gate_args(parser, benchmark: str) -> None:
    """The ``--label``/``--out``/``--check``/``--baseline-label`` flags."""
    filename = f"BENCH_{benchmark}.json"
    parser.add_argument("--label", help="entry label recorded with --out")
    parser.add_argument(
        "--out", help=f"append this run as an entry to the given {filename}"
    )
    parser.add_argument(
        "--check",
        help=f"gate against the last entry of this {filename}: exit 1 when "
        f"a metric loses more than {1 - MIN_RATIO:.0%}% (contracts are "
        "checked on every run)",
    )
    parser.add_argument(
        "--baseline-label",
        help="gate against the last --check entry with this label",
    )


def apply_gate(benchmark: str, entry: dict, data: dict, args) -> List[str]:
    """Gate ``entry``, append it to ``--out``, and note both in ``data``."""
    spec = GATES[benchmark]
    failures = spec.check(entry, args.check, args.baseline_label)
    if args.out:
        spec.append(entry, args.out)
        data["out"] = args.out
    if args.check:
        data["baseline"] = args.check
    data["regressions"] = failures
    return failures


def render_gate(data: dict, label: str) -> None:
    """The gate verdict and ``--out`` note under a bench's table."""
    if data["regressions"]:
        print(f"\nREGRESSION vs {data.get('baseline', 'the contracts')}:")
        for line in data["regressions"]:
            print(f"  {line}")
    elif "baseline" in data:
        print(f"\nno regression vs {data['baseline']}")
    if "out" in data:
        print(f"\nappended entry {label!r} to {data['out']}")


__all__ = [
    "GATES",
    "MIN_RATIO",
    "Contract",
    "GateSpec",
    "Ratio",
    "add_gate_args",
    "apply_gate",
    "render_gate",
]
