"""QinDB's memtable: sorted ``(key, version)`` items over a skip list.

Each item is the paper's skip-list entry — the AOF offset of the record
plus the ``r`` flag (``deduplicated``: the value field was removed
upstream) and the ``d`` flag (``deleted``).  Items of one key sort
adjacent in increasing version order, so:

* GET's *traceback* ("find the nearest older version that still carries a
  value") is a descending neighbour walk, and
* GC's *referent check* ("is this dead record still resolved to by a newer
  deduplicated version?") is an ascending neighbour walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.qindb.aof import RecordLocation
from repro.qindb.skiplist import SkipListMap

#: a (key, version) composite; tuples compare key-first then version,
#: giving exactly the paper's "same keys naturally aggregated in the order
#: of increasing version numbers".
ItemKey = Tuple[bytes, int]


@dataclass(slots=True)
class IndexItem:
    """One memtable entry: where the record lives, plus the two flags."""

    location: RecordLocation
    deduplicated: bool = False  # the paper's ``r`` flag
    deleted: bool = False  # the paper's ``d`` flag
    #: sequence number of the put that created this item (recovery order)
    sequence: int = 0

    @property
    def has_value(self) -> bool:
        """Whether the record at ``location`` carries a value field."""
        return not self.deduplicated


class Memtable:
    """The in-memory index: every live (key, version) the engine knows."""

    def __init__(self, seed: int = 0x51DB) -> None:
        self._items = SkipListMap(seed=seed)
        #: (key, version) -> item: the skip list's own value dict, for
        #: O(1) point lookups that do *not* model a search (see
        #: :meth:`lookup`)
        self._by_key: Dict[ItemKey, IndexItem] = self._items.entries
        #: approximate resident bytes (keys + per-item overhead), the ``M``
        #: term in the RUM accounting
        self.approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    def put(
        self,
        key: bytes,
        version: int,
        location: RecordLocation,
        deduplicated: bool,
        sequence: int = 0,
    ) -> Optional[IndexItem]:
        """Insert or replace the item for (key, version).

        Returns the *previous* item if one was replaced (its record bytes
        just became dead), else None.
        """
        item_key: ItemKey = (key, version)
        previous = self._by_key.get(item_key)
        item = IndexItem(
            location=location, deduplicated=deduplicated, sequence=sequence
        )
        # The insert is the one search the CPU cost model charges.
        if self._items.insert(item_key, item):
            self.approximate_bytes += len(key) + 8 + 40
        return previous

    def put_batch(
        self,
        entries: list,
    ) -> list:
        """Insert a pre-sorted batch of items in one fingered pass.

        ``entries`` is a list of ``(key, version, location, deduplicated,
        sequence)`` tuples sorted by ``(key, version)`` (stable, so a
        duplicated pair applies in input order — last writer wins, same
        as sequential puts).  Returns the replaced previous
        :class:`IndexItem` (or None) per entry, in the same order.
        """
        return self.put_batch_pairs(
            [
                (
                    (key, version),
                    IndexItem(location, deduplicated, False, sequence),
                )
                for key, version, location, deduplicated, sequence in entries
            ]
        )

    def put_batch_pairs(self, pairs: list) -> list:
        """:meth:`put_batch` over pre-built ``(item_key, item)`` pairs.

        The hot ingest path: the engine constructs the
        ``((key, version), IndexItem)`` pairs directly (sorted by item
        key, stable), skipping the intermediate 5-tuple unpack.
        """
        results = self._items.insert_batch(pairs)
        self.approximate_bytes += sum(
            len(pair[0][0]) + 48
            for pair, result in zip(pairs, results)
            if result[0]
        )
        return [replaced for _was_new, replaced in results]

    def get(self, key: bytes, version: int) -> Optional[IndexItem]:
        """The item for (key, version), or None.

        Counts as a skip-list search, so :attr:`last_search_steps`
        models the lookup's cost.
        """
        return self._items.get((key, version), default=None)

    def lookup(self, key: bytes, version: int) -> Optional[IndexItem]:
        """O(1) point lookup via the value dict.

        Does NOT touch :attr:`last_search_steps` — for callers that
        validate many items but charge only one search (the batched
        delete path), or that account their cost elsewhere.
        """
        return self._by_key.get((key, version))

    def mark_deleted(self, key: bytes, version: int) -> Optional[IndexItem]:
        """Set the ``d`` flag; returns the item, or None if absent."""
        item = self.get(key, version)
        if item is not None:
            item.deleted = True
        return item

    def drop(self, key: bytes, version: int) -> None:
        """Remove the item entirely (GC of an unreferenced dead record)."""
        self._items.remove((key, version))
        self.approximate_bytes -= len(key) + 8 + 40

    def resolve(
        self, key: bytes, version: int
    ) -> Tuple[Optional[IndexItem], Optional[IndexItem]]:
        """Single-descent read path: the item *and* its traceback target.

        One skip-list search descends to the start of ``key``'s version
        chain (the 1-tuple ``(key,)`` sorts before every ``(key, v)``,
        so it reaches the chain regardless of the smallest stored
        version), then level-0 neighbour hops walk the chain in
        ascending version order.  Along the way the newest value-bearing
        item below ``version`` is remembered — exactly the record GET's
        traceback would resolve a deduplicated item to (the ``d`` flag
        is ignored, per the paper's referent rule).

        Returns ``(item, older)``: the item at ``(key, version)`` or
        None, and the nearest older value-bearing item or None.  The
        walk hops are charged into :attr:`last_search_steps` so the CPU
        cost model sees one search plus the hops — not one fresh
        O(log n) search per hop as the old per-hop traceback paid.
        """
        target: Optional[IndexItem] = None
        older: Optional[IndexItem] = None
        hops = 0
        for (item_key, item_version), item in self._items.items_from(
            (key,), inclusive=True
        ):
            if item_key != key or item_version > version:
                break
            if item_version == version:
                target = item
                break  # every older version was already walked
            if item.has_value:
                older = item
            hops += 1
        self._items.charge_steps(hops)
        return target, older

    # ------------------------------------------------------------------
    # Neighbourhood walks
    # ------------------------------------------------------------------
    def older_versions(
        self, key: bytes, version: int
    ) -> Iterator[Tuple[int, IndexItem]]:
        """Items of ``key`` with smaller versions, newest first."""
        for (item_key, item_version), item in self._items.items_before(
            (key, version)
        ):
            if item_key != key:
                return
            yield item_version, item

    def newer_versions(
        self, key: bytes, version: int
    ) -> Iterator[Tuple[int, IndexItem]]:
        """Items of ``key`` with larger versions, oldest first."""
        for (item_key, item_version), item in self._items.items_from(
            (key, version), inclusive=False
        ):
            if item_key != key:
                return
            yield item_version, item

    def versions_of(self, key: bytes) -> Iterator[Tuple[int, IndexItem]]:
        """All items of ``key`` in increasing version order."""
        for (item_key, item_version), item in self._items.items_from(
            (key, 0), inclusive=True
        ):
            if item_key != key:
                return
            yield item_version, item

    def latest_version(self, key: bytes) -> Optional[Tuple[int, IndexItem]]:
        """The newest item of ``key``, or None."""
        entry = self._items.lower((key, 0xFFFFFFFFFFFFFFFF + 1))
        if entry is None:
            return None
        (item_key, item_version), item = entry
        if item_key != key:
            return None
        return item_version, item

    def scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """Items with ``start_key <= key < end_key``, sorted."""
        for (item_key, item_version), item in self._items.range(
            (start_key, 0), (end_key, 0)
        ):
            yield item_key, item_version, item

    def items(self) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """Every item in sorted order."""
        for (item_key, item_version), item in self._items:
            yield item_key, item_version, item

    @property
    def last_search_steps(self) -> int:
        """Comparisons in the most recent skip-list search (cost model)."""
        return self._items.last_search_steps
