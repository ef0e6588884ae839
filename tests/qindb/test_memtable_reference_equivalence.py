"""Engine-level equivalence: QinDB over the column skip list behaves
exactly as QinDB over the linked reference skip list.

One seeded history — single and batched puts, reads over dedup chains,
batched deletes, GC, a scan with a put in the middle, and a checkpointed
crash and recovery — runs on an engine with the memtable as shipped and
on one whose memtable indexes through ``LinkedSkipListMap``.  Every step
must return the same value and leave the same device clock: the engine
charges CPU time from the memtable's search step counts, so an equal
clock means an equal charge, including on the paths where the column
form no longer computes a descent nobody charges.
"""

from __future__ import annotations

import random

from reference_skiplist import LinkedSkipListMap

import repro.qindb.memtable as memtable_module
from repro.errors import KeyNotFoundError
from repro.qindb.checkpoint import Checkpoint, crash, recover
from repro.qindb.engine import QinDB, QinDBConfig

CAPACITY = 16 * 1024 * 1024
KEYS = [b"key-%03d" % index for index in range(48)]


class LinkedIndex(LinkedSkipListMap):
    """The linked skip list plus the key -> value dict the memtable reads."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.entries = {}

    def insert(self, key, value):
        self.entries[key] = value
        return super().insert(key, value)

    def insert_batch(self, pairs):
        results = super().insert_batch(pairs)
        self.entries.update(pairs)
        return results

    def remove(self, key):
        value = super().remove(key)
        del self.entries[key]
        return value


def _outcome(call):
    try:
        return call()
    except KeyNotFoundError:
        return "not found"


def run_history(seed: int):
    """Drive one engine through the history; return its per-step trace."""
    rng = random.Random(seed)
    engine = QinDB.with_capacity(
        CAPACITY, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    trace = []

    def step(label, result=None):
        trace.append((label, result, engine.device.now))

    stored = []  # (key, version) pairs put so far
    live = set()
    valued = set()  # keys with a value-bearing version: chains resolve
    checkpoint = None
    for version in range(1, 9):
        batch = []
        for key in rng.sample(KEYS, 36):
            # Value-less half the time once a base exists: dedup chains.
            if key in valued and rng.random() < 0.5:
                value = None
            else:
                value = rng.randbytes(rng.randint(200, 4000))
                valued.add(key)
            batch.append((key, version, value))
        batch.append(batch[0][:2] + (b"rewritten",))  # last writer wins
        engine.put_batch(batch)
        step("put_batch")
        for key, _version, _value in batch:
            stored.append((key, version))
            live.add((key, version))
        for key in rng.sample(KEYS, 4):
            engine.put(key, version, rng.randbytes(300))
            valued.add(key)
            stored.append((key, version))
            live.add((key, version))
            step("put")

        for key, item_version in rng.sample(stored, 12):
            step("get", _outcome(lambda: engine.get(key, item_version)))
        reads = rng.sample(stored, 24) + rng.sample(stored, 4)
        step("get_batch", engine.get_batch(reads))

        doomed = rng.sample(sorted(live), 10)
        engine.delete_batch(doomed)
        live.difference_update(doomed)
        step("delete_batch")

        sealed = [
            segment.segment_id
            for segment in engine.aofs.segments
            if segment.segment_id != engine.aofs.active_segment_id
        ]
        if sealed and version % 2 == 0:
            engine.collect_segment(sealed[0])
            step("collect_segment", sealed[0])

        scan = engine.scan(KEYS[8], KEYS[30])
        scanned = [next(scan) for _ in range(3)]
        engine.put(KEYS[20], version, b"during-scan")
        stored.append((KEYS[20], version))
        live.add((KEYS[20], version))
        scanned.extend(scan)
        step("scan", scanned)

        if version == 5:
            checkpoint = Checkpoint.write(engine)
            step("checkpoint")
        if version == 7:
            # Flushed first: a torn tail is a storage matter, not this one.
            engine.flush()
            valid = engine.checkpoint_valid
            engine = recover(
                crash(engine),
                config=engine.config,
                checkpoint=checkpoint,
                checkpoint_valid=valid,
            )
            step("recover", valid)
    step(
        "final",
        (
            [
                (k, v, item.location, item.deleted)
                for k, v, item in engine.memtable.items()
            ],
            engine.memtable.approximate_bytes,
            engine.stats(),
        ),
    )
    return trace, engine


def test_engine_over_columns_matches_linked_reference(monkeypatch):
    for seed in (1, 2):
        columns, column_engine = run_history(seed)
        with monkeypatch.context() as patch:
            patch.setattr(memtable_module, "SkipListMap", LinkedIndex)
            linked, linked_engine = run_history(seed)
        assert isinstance(linked_engine.memtable._items, LinkedIndex)
        assert not isinstance(column_engine.memtable._items, LinkedIndex)
        assert [label for label, _r, _t in columns] == [
            label for label, _r, _t in linked
        ]
        for column_step, linked_step in zip(columns, linked):
            assert column_step == linked_step
        labels = {label for label, _r, _t in columns}
        assert {"collect_segment", "recover", "checkpoint"} <= labels
