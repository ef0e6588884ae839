"""Crash recovery: full AOF scan, optionally accelerated by a checkpoint.

The paper accepts a longer recovery in exchange for write throughput: "we
have to scan all AOFs for reconstruction of the memtable and the GC
table", mitigated by (a) periodic memtable checkpoints and (b) Mint's
replicas hiding a recovering node.  This module implements both the scan
and the checkpoint.

Ordering: the physical order of records on disk is *not* the logical
order of mutations, because GC re-appends old records into newer
segments.  Every record therefore carries its logical sequence number,
and the scan applies last-writer-wins by sequence:

* a ``PUT`` installs the item only if its sequence exceeds the sequence
  already installed for ``(key, version)``;
* a ``DELETE`` tombstone kills the item only if the tombstone's sequence
  exceeds the installed put's (a re-put after a delete resurrects the
  item, exactly as in the live engine);
* tombstones seen before their target (GC can move a put past its
  tombstone) are remembered and applied when the put arrives.

A checkpoint serializes the memtable and GC table to a native unit with an
AOF watermark; recovery loads it and replays only records past the
watermark — sealed segments older than the watermark are not even read,
which is what makes checkpoints cheaper than the full scan.  A GC run
invalidates outstanding checkpoints (it rewrites locations), falling back
to the full scan — the conservative choice the paper's "checkpointed
periodically" allows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.metrics import BatchCounters
from repro.errors import CorruptionError
from repro.qindb.aof import AofManager, RecordLocation
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.gctable import GCTable
from repro.qindb.memtable import Memtable
from repro.qindb.readcache import RecordCache
from repro.qindb.records import RecordType
from repro.ssd.native import NativeBlockInterface, NativeUnit

#: key_len, version, sequence, segment, offset, length, flags
_ROW = struct.Struct("<H Q Q q q l B")
#: magic, item_count, max_sequence, watermark_seg, watermark_size
_HEADER = struct.Struct("<4s q q q q")
_MAGIC = b"QCKP"

_FLAG_DEDUP = 0x01
_FLAG_DELETED = 0x02


@dataclass
class Checkpoint:
    """A durable snapshot of the memtable, tied to an AOF watermark."""

    unit: NativeUnit
    watermark_segment: int
    watermark_size: int
    item_count: int
    max_sequence: int

    @classmethod
    def write(cls, engine: QinDB, tag: str = "checkpoint") -> "Checkpoint":
        """Serialize the engine's memtable to a fresh native unit."""
        engine.flush()
        active_id = engine.aofs.active_segment_id
        if active_id is None:
            watermark_segment, watermark_size = -1, 0
        else:
            watermark_segment = active_id
            watermark_size = engine.aofs.segment(active_id).size
        native = NativeBlockInterface(engine.device)
        unit = native.open_unit(tag=tag)
        count = 0
        rows = bytearray()
        for key, version, item in engine.memtable.items():
            flags = (_FLAG_DEDUP if item.deduplicated else 0) | (
                _FLAG_DELETED if item.deleted else 0
            )
            rows += _ROW.pack(
                len(key),
                version,
                item.sequence,
                item.location.segment_id,
                item.location.offset,
                item.location.length,
                flags,
            )
            rows += key
            count += 1
        unit.append(
            _HEADER.pack(
                _MAGIC, count, engine._sequence, watermark_segment, watermark_size
            )
        )
        unit.append(bytes(rows))
        unit.flush()
        engine._gc_since_checkpoint = False
        return cls(unit, watermark_segment, watermark_size, count, engine._sequence)

    @property
    def size(self) -> int:
        """Bytes the checkpoint occupies."""
        return self.unit.size

    def load_into(self, engine: QinDB) -> None:
        """Rebuild ``engine``'s memtable and GC table from this snapshot."""
        header = self.unit.read(0, _HEADER.size)
        magic, count, max_sequence, _wseg, _wsize = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise CorruptionError("bad checkpoint magic")
        body = self.unit.read(_HEADER.size, self.unit.size - _HEADER.size)
        offset = 0
        for _ in range(count):
            key_len, version, sequence, seg, off, length, flags = _ROW.unpack_from(
                body, offset
            )
            offset += _ROW.size
            key = bytes(body[offset : offset + key_len])
            offset += key_len
            location = RecordLocation(seg, off, length)
            engine.memtable.put(
                key, version, location, bool(flags & _FLAG_DEDUP), sequence
            )
            engine.gc_table.record_appended(seg, length)
            if flags & _FLAG_DELETED:
                engine.memtable.mark_deleted(key, version)
                engine.gc_table.record_dead(seg, length)
        engine._sequence = max(engine._sequence, max_sequence)

    def discard(self) -> None:
        """Erase the checkpoint's blocks."""
        self.unit.erase()


def crash(engine: QinDB) -> AofManager:
    """Simulate a power failure: the memtable vanishes, buffered partial
    pages are lost, and only what was programmed onto flash remains.

    Returns the surviving on-disk state (the AOF manager); feed it to
    :func:`recover`.
    """
    for segment in engine.aofs.segments:
        # Bytes still in the page-fill buffer never hit flash.
        segment._unit.discard_unprogrammed()
    engine._closed = True
    return engine.aofs


def recover(
    aofs: AofManager,
    config: Optional[QinDBConfig] = None,
    checkpoint: Optional[Checkpoint] = None,
    checkpoint_valid: bool = True,
) -> QinDB:
    """Rebuild a QinDB from surviving AOFs (plus an optional checkpoint).

    Without a checkpoint this is the paper's full scan: every segment is
    read sequentially and the memtable and GC table are reconstructed.
    With a valid checkpoint, only records past the watermark are replayed.
    """
    engine = QinDB.__new__(QinDB)
    engine.device = aofs.device
    engine.config = config or QinDBConfig()
    engine.aofs = aofs
    engine.memtable = Memtable(seed=engine.config.memtable_seed)
    engine.gc_table = GCTable(threshold=engine.config.gc_occupancy_threshold)
    # The read cache is volatile: a recovered node starts cold.
    engine.read_cache = (
        RecordCache(engine.config.read_cache_bytes)
        if engine.config.read_cache_bytes
        else None
    )
    engine.user_bytes_written = 0
    engine.user_bytes_read = 0
    engine.gc_runs = 0
    engine.gc_bytes_reappended = 0
    engine.batch_counters = BatchCounters()
    engine.reads_in_flight = 0
    engine._gc_since_checkpoint = False
    engine._closed = False
    engine._sequence = 0
    engine.latest_checkpoint = None
    engine._bytes_at_last_checkpoint = 0
    engine.trace = None

    watermark_segment, watermark_size = -1, -1
    if checkpoint is not None and checkpoint_valid:
        checkpoint.load_into(engine)
        watermark_segment = checkpoint.watermark_segment
        watermark_size = checkpoint.watermark_size

    def replay_records():
        """Records past the watermark; fully-covered segments are not
        even read (this is what makes checkpoints cheaper than scans)."""
        for segment in aofs.segments:
            if segment.segment_id < watermark_segment:
                continue
            for offset, record in segment.scan():
                if (
                    segment.segment_id == watermark_segment
                    and offset < watermark_size
                ):
                    continue
                yield segment.segment_id, offset, record

    #: highest tombstone sequence seen per (key, version)
    pending_tombstones: Dict[Tuple[bytes, int], int] = {}
    for segment_id, offset, record in replay_records():
        engine._sequence = max(engine._sequence, record.sequence)
        key_version = (record.key, record.version)
        if record.type is RecordType.DELETE:
            previous_tomb = pending_tombstones.get(key_version, -1)
            pending_tombstones[key_version] = max(previous_tomb, record.sequence)
            item = engine.memtable.get(record.key, record.version)
            if (
                item is not None
                and not item.deleted
                and record.sequence > item.sequence
            ):
                engine.memtable.mark_deleted(record.key, record.version)
                engine.gc_table.record_dead(
                    item.location.segment_id, item.location.length
                )
            # Account the tombstone's own bytes (appended and dead).
            size = record.encoded_size
            engine.gc_table.record_appended(segment_id, size)
            engine.gc_table.record_dead(segment_id, size)
            continue

        location = RecordLocation(segment_id, offset, record.encoded_size)
        engine.gc_table.record_appended(segment_id, location.length)
        existing = engine.memtable.get(record.key, record.version)
        if existing is not None and record.sequence <= existing.sequence:
            # A stale physical copy (GC duplicate); its bytes are dead.
            engine.gc_table.record_dead(segment_id, location.length)
            continue
        previous = engine.memtable.put(
            record.key,
            record.version,
            location,
            record.type is RecordType.PUT_DEDUP,
            sequence=record.sequence,
        )
        if previous is not None and not previous.deleted:
            engine.gc_table.record_dead(
                previous.location.segment_id, previous.location.length
            )
        tombstone_sequence = pending_tombstones.get(key_version, -1)
        if tombstone_sequence > record.sequence:
            # GC moved this put physically past its tombstone; the
            # delete still logically follows it.
            engine.memtable.mark_deleted(record.key, record.version)
            engine.gc_table.record_dead(segment_id, location.length)
    return engine
