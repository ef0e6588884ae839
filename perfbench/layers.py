"""Per-layer wall self time for the traced benchmark run.

:class:`LayerTrace` installs class-level wrappers around each layer's
entry points for the duration of one ``with`` block and removes them on
exit, so the untraced runs execute the program exactly as shipped.
Every wrapped call is a span: name, start, end and the enclosing span.
A span's *self* time is its duration minus the durations of wrapped
calls nested inside it, so the layers' self times add up to the time
the top-level spans cover; the rest of the run's wall time is reported
as unattributed (orchestration in ``repro.core`` and ``repro.workloads``,
which are not layers, plus the wrappers' own cost).

Generator methods are simulation-process bodies (or iterators): the
wrapper returns a proxy that times every resumption, so a process's
work lands in its own layer instead of in the kernel loop that resumes
it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from typing import Callable, Dict, List, Tuple

#: layer -> ((module, class, "method method ..."), ...).  Layer names are
#: the repository's module names.  Methods are public entry points plus
#: the generator bodies the kernel resumes; per-event helpers (timeouts,
#: placement hashing) stay unwrapped so their cost falls to the caller.
LAYERS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "simulation": (
        ("repro.simulation.kernel", "Simulator", "run step"),
    ),
    "indexing": (
        (
            "repro.indexing.builders",
            "IndexBuildPipeline",
            "build_version advance_and_build",
        ),
    ),
    "bifrost.dedup": (
        ("repro.bifrost.dedup", "Deduplicator", "process"),
    ),
    "bifrost.slices": (
        ("repro.bifrost.slices", "Slicer", "make_slices make_delta_slices"),
        ("repro.bifrost.slices", "Slice", "verify clean_copy"),
    ),
    "bifrost.encoding": (
        (
            "repro.bifrost.encoding",
            "WireEncoder",
            "encode_slices encode_slice",
        ),
        (
            "repro.bifrost.encoding",
            "WireDecoder",
            "decode_slice release_version",
        ),
    ),
    "bifrost.transport": (
        (
            "repro.bifrost.transport",
            "BifrostTransport",
            "deliver_version _deliver_one _fan_out _deliver_p2p "
            "_forward_from_seed",
        ),
    ),
    "mint.cluster": (
        (
            "repro.mint.cluster",
            "MintCluster",
            "put put_batch get multi_get delete ingest_slice drop_version "
            "under_replicated query multi_query scan",
        ),
    ),
    "mint.group": (
        (
            "repro.mint.group",
            "NodeGroup",
            "put put_batch get multi_get delete delete_batch scan",
        ),
    ),
    "mint.integrity": (
        ("repro.mint.integrity", "IntegrityIndex", "absorb drop_version"),
    ),
    "qindb": (
        (
            "repro.qindb.engine",
            "QinDB",
            "put put_batch get get_batch delete delete_batch exists holds "
            "chain_base peek scan collect_segment flush",
        ),
    ),
    "qindb.memtable": (
        (
            "repro.qindb.memtable",
            "Memtable",
            "put put_batch put_batch_pairs get lookup mark_deleted drop "
            "resolve older_versions newer_versions latest_version scan",
        ),
    ),
    "qindb.aof": (
        (
            "repro.qindb.aof",
            "AofManager",
            "append append_batch append_encoded_batch read read_many flush "
            "drop_segment",
        ),
    ),
    "ssd": (
        (
            "repro.ssd.native",
            "NativeUnit",
            "append append_many read read_many flush erase",
        ),
        (
            "repro.ssd.device",
            "SimulatedSSD",
            "program read erase_block allocate_block",
        ),
    ),
    "serving": (
        (
            "repro.serving.frontend",
            "ServingFrontend",
            "try_submit submit_query drain report _flush",
        ),
    ),
    "faults.repair": (
        (
            "repro.faults.repair",
            "ReplicaRepairer",
            "repair_node copy_record audit_node audit_cluster repair_group",
        ),
    ),
    "elastic": (
        (
            "repro.elastic.migrator",
            "Migrator",
            "join_node leave_node split_group merge_group _join _leave "
            "_split _merge",
        ),
        (
            "repro.elastic.planner",
            "RebalancePlanner",
            "plan_group_transition plan_slot_moves",
        ),
        (
            "repro.elastic.autoscaler",
            "FleetAutoscaler",
            "observe take_pending",
        ),
    ),
    "obs": (
        ("repro.obs.registry", "MetricsRegistry", "collect snapshot value"),
        (
            "repro.obs.timeseries",
            "TimeSeriesRecorder",
            "sample_now _run window_delta window_rate window_rates",
        ),
        ("repro.obs.health", "HealthEngine", "evaluate"),
        ("repro.obs.tracer", "Tracer", "span instant"),
    ),
}


#: spans kept for the span file; the aggregates count every call
MAX_SPANS = 100_000

_ONE = lambda args, result: 1  # noqa: E731
_BATCH = lambda args, result: len(args[1])  # noqa: E731

#: (class, method) -> ((counter, items of one call), ...).  Counts are
#: taken at the call boundary, so records handled by engines that are
#: later decommissioned still count.
ITEM_COUNTERS: Dict[Tuple[str, str], Tuple[Tuple[str, Callable], ...]] = {
    ("IndexBuildPipeline", "build_version"): (
        ("indexing.entries", lambda args, result: result.entry_count),
    ),
    ("Deduplicator", "process"): (
        ("bifrost.dedup.entries", lambda args, result: result.total_entries),
        (
            "bifrost.dedup.unchanged",
            lambda args, result: result.deduplicated_entries,
        ),
    ),
    ("NodeGroup", "put"): (("mint.group.items", _ONE),),
    ("NodeGroup", "get"): (("mint.group.items", _ONE),),
    ("NodeGroup", "delete"): (("mint.group.items", _ONE),),
    ("NodeGroup", "put_batch"): (("mint.group.items", _BATCH),),
    ("NodeGroup", "multi_get"): (("mint.group.items", _BATCH),),
    ("NodeGroup", "delete_batch"): (("mint.group.items", _BATCH),),
    ("IntegrityIndex", "absorb"): (
        ("mint.integrity.records", lambda args, result: len(args[2])),
    ),
    ("QinDB", "put"): (("qindb.put_items", _ONE),),
    ("QinDB", "put_batch"): (("qindb.put_items", _BATCH),),
    ("QinDB", "get"): (("qindb.get_items", _ONE),),
    ("QinDB", "get_batch"): (("qindb.get_items", _BATCH),),
    ("Memtable", "put"): (("qindb.memtable.items", _ONE),),
    ("Memtable", "put_batch"): (("qindb.memtable.items", _BATCH),),
    ("Memtable", "put_batch_pairs"): (("qindb.memtable.items", _BATCH),),
    ("AofManager", "read"): (("qindb.aof.records_read", _ONE),),
    ("AofManager", "read_many"): (("qindb.aof.records_read", _BATCH),),
}


class _TimedSteps:
    """Iterator proxy timing each resumption of a wrapped generator.

    Implements the protocol the kernel's ``Process`` and ``yield from``
    use (``send``/``throw``/``close``/``__next__``), delegating each
    to the real generator inside one span.
    """

    __slots__ = ("_gen", "_step")

    def __init__(self, gen, step) -> None:
        self._gen = gen
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


class LayerTrace:
    """Wrappers plus the spans and per-layer aggregates they record.

    Use as a context manager around exactly the region to attribute;
    wrappers exist only inside the block.  At most ``MAX_SPANS`` spans
    are kept for the span file (the aggregates count every call).
    """

    def __init__(self) -> None:
        self.layers: List[str] = list(LAYERS)
        self.names: List[str] = []
        self.self_ns = [0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        #: self time and calls per span name (codec split, single puts)
        self.name_self_ns: List[int] = []
        self.name_calls: List[int] = []
        self.counters: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.span_count = 0
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        for layer_id, layer in enumerate(self.layers):
            for module_name, class_name, methods in LAYERS[layer]:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods.split():
                    self._install(cls, method, layer_id)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _install(self, cls: type, method: str, layer_id: int) -> None:
        original = cls.__dict__[method]
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__name__}.{method} is not a plain method")
        name = f"{self.layers[layer_id]}:{cls.__name__}.{method}"
        counts = ITEM_COUNTERS.get((cls.__name__, method), ())
        if inspect.isgeneratorfunction(original):
            step = self._timer(self._name_id(name + "[step]"), layer_id, ())
            create = self._timer(self._name_id(name), layer_id, counts)

            def wrapper(*args, **kwargs):
                gen = create(original, *args, **kwargs)
                return _TimedSteps(gen, step)
        else:
            timed = self._timer(self._name_id(name), layer_id, counts)

            def wrapper(*args, **kwargs):
                return timed(original, *args, **kwargs)

        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__doc__ = original.__doc__
        self._saved.append((cls, method, original))
        setattr(cls, method, wrapper)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.name_self_ns.append(0)
        self.name_calls.append(0)
        return len(self.names) - 1

    def _timer(self, name_id: int, layer_id: int, counts):
        """One span per call of ``fn``: self time and counts per layer."""
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        name_self_ns = self.name_self_ns
        name_calls = self.name_calls
        spans = self.spans
        counters = self.counters
        trace = self

        def call(fn, *args, **kwargs):
            span_id = trace.span_count
            trace.span_count = span_id + 1
            frame = [0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                self_ns[layer_id] += own
                name_self_ns[name_id] += own
                name_calls[name_id] += 1
                calls[layer_id] += 1
                if parent is not None:
                    parent[0] += duration
                if span_id < MAX_SPANS:
                    spans.append(
                        (
                            span_id,
                            name_id,
                            start,
                            end,
                            parent[1] if parent is not None else -1,
                        )
                    )
            for counter, items in counts:
                counters[counter] = counters.get(counter, 0) + items(
                    args, result
                )
            return result

        return call

    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return {
            layer: self.self_ns[index] / 1e9
            for index, layer in enumerate(self.layers)
        }

    def layer_calls(self) -> Dict[str, int]:
        return {
            layer: self.calls[index] for index, layer in enumerate(self.layers)
        }

    def method_self_s(self, prefix: str) -> float:
        """Summed self time of the span names starting with ``prefix``."""
        return sum(
            ns
            for name, ns in zip(self.names, self.name_self_ns)
            if name.startswith(prefix)
        ) / 1e9

    def method_calls(self, name: str) -> int:
        return self.name_calls[self.names.index(name)]

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def write_spans(self, path: str, run_id: str) -> None:
        """JSON lines: a header, then one span per line (start order
        is not guaranteed; ``parent`` refers to a span ``id``)."""
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "run": run_id,
                        "spans_total": self.span_count,
                        "spans_written": len(self.spans),
                        "clock": "perf_counter_ns",
                    }
                )
                + "\n"
            )
            names = self.names
            for span_id, name_id, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": names[name_id],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )


def layer_metrics(trace: LayerTrace, out: Dict[str, float]) -> Dict:
    """Per-layer metrics: wrapper aggregates plus the program's own
    counters from the unit's outputs.  name -> (value, unit)."""
    self_s = trace.layer_self_s()
    calls = trace.layer_calls()
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in trace.layers:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    events = out["events"]
    entries = trace.counter("bifrost.dedup.entries")
    single_puts = trace.method_calls("qindb:QinDB.put")
    put_calls = single_puts + trace.method_calls("qindb:QinDB.put_batch")
    put_items = trace.counter("qindb.put_items")
    batches = out.get("serving_batches", 0)
    metrics.update(
        {
            "simulation.events": (events, "count"),
            "simulation.self_us_per_event": (
                self_s["simulation"] * 1e6 / events,
                "us",
            ),
            "indexing.entries": (trace.counter("indexing.entries"), "count"),
            "bifrost.dedup.unchanged_ratio": (
                trace.counter("bifrost.dedup.unchanged") / entries
                if entries
                else 0.0,
                "ratio",
            ),
            "bifrost.encoding.encode_self_s": (
                trace.method_self_s("bifrost.encoding:WireEncoder"),
                "s",
            ),
            "bifrost.encoding.decode_self_s": (
                trace.method_self_s("bifrost.encoding:WireDecoder"),
                "s",
            ),
            "bifrost.encoding.wire_ratio": (out["wire_ratio"], "ratio"),
            "mint.group.items": (trace.counter("mint.group.items"), "count"),
            "mint.group.failover_gets": (out["failover_gets"], "count"),
            "mint.group.shed_gets": (out["shed_gets"], "count"),
            "mint.integrity.records": (
                trace.counter("mint.integrity.records"),
                "count",
            ),
            "qindb.put_items": (put_items, "count"),
            "qindb.put_calls_single": (single_puts, "count"),
            "qindb.mean_put_batch": (
                put_items / put_calls if put_calls else 0.0,
                "items",
            ),
            "qindb.get_items": (trace.counter("qindb.get_items"), "count"),
            "qindb.gc_runs": (out["gc_runs"], "count"),
            "qindb.gc_bytes_reappended": (out["gc_bytes_reappended"], "B"),
            "qindb.memtable.items": (
                trace.counter("qindb.memtable.items"),
                "count",
            ),
            "qindb.aof.records_read": (
                trace.counter("qindb.aof.records_read"),
                "count",
            ),
            "ssd.pages_written": (out["pages_written"], "count"),
            "ssd.pages_read": (out["pages_read"], "count"),
            "ssd.device_busy_s": (out["device_busy_s"], "sim_s"),
            "serving.batches": (batches, "count"),
            "serving.mean_batch": (
                out.get("serving_batched_keys", 0) / batches if batches else 0.0,
                "items",
            ),
            "faults.repair.records_copied": (out.get("repair_keys", 0), "count"),
            "elastic.records_moved": (out.get("records_moved", 0), "count"),
            "elastic.bytes_moved": (out.get("bytes_moved", 0), "B"),
        }
    )
    return metrics
