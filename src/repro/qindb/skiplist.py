"""A skip list (Pugh, CACM 1990) — the paper's memtable data structure.

A probabilistic sorted map with ordered traversal from any key.  QinDB
keys it by ``(key_bytes, version)`` so all versions of one key sit
adjacent "in the order of increasing version numbers", which is what
makes GET's traceback and GC's referent checks cheap neighbourhood walks.

Stored as columns, not linked nodes: ``_levels[l]`` is the sorted list
of keys whose node is taller than ``l``, and one dict maps keys to
values.  Heights come from the same seeded ``random()`` stream, drawn in
the same order, as the linked list's, so the columns are its levels and
each search's ``last_search_steps`` (the linked descent's forward hops
plus its level count, which the engines charge as CPU time) follows from
column ranks: a point search hops, per level, over the keys between the
level-above predecessor and the probe; a sorted batch's finger visits
every node below its largest key once per level it spans.

Steps are counted lazily, when read: a search records its probe and
level count.  That is exact because every column change is itself the
insert or remove of its own probe, which moves no rank below it.  So the
searches nobody charges cost a dict lookup or one level-0 bisect.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError

MAX_LEVEL = 32
_P = 0.25

#: "no key" marker: an absent dict entry, or no search waiting to be costed
_ABSENT = object()
#: :meth:`SkipListMap.insert_batch`'s result for a fresh key
_FRESH = (True, None)


def _merged(column: List[Any], keys: List[Any]) -> List[Any]:
    """``column`` with the ascending ``keys`` (none already in it) merged
    in: one bisect per key and one slice copy of each gap between them."""
    if not column:
        return keys
    merged: List[Any] = []
    extend = merged.extend
    add = merged.append
    start = 0
    for key in keys:
        index = bisect_left(column, key, start)
        extend(column[start:index])
        add(key)
        start = index
    extend(column[start:])
    return merged


class SkipListMap:
    """A sorted mapping with ordered iteration and neighbour queries."""

    def __init__(self, seed: int = 0x51DB) -> None:
        #: ``_levels[l]``: sorted keys of the nodes taller than ``l``;
        #: ``len(_levels)`` is the skip list's level count
        self._levels: List[List[Any]] = [[]]
        #: key -> value; reading it directly models no search
        self.entries: Dict[Any, Any] = {}
        self._random = random.Random(seed)
        #: bumped whenever the columns change, so a suspended iterator
        #: knows to re-find its cursor
        self._changes = 0
        #: probe -> descent hops on the current columns (reads repeat
        #: hot keys between writes); emptied by every change
        self._hops: Dict[Any, int] = {}
        # last_search_steps == _steps + the hops owed for _probe: the
        # descent to it (point search) or every key below it (batch)
        self._steps = 0
        self._probe: Any = _ABSENT
        self._probe_batch = False

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Any) -> bool:
        self._search(key)
        return key in self.entries

    # ------------------------------------------------------------------
    @property
    def last_search_steps(self) -> int:
        """Comparisons performed by the most recent search (cost model)."""
        probe = self._probe
        if probe is not _ABSENT:
            self._probe = _ABSENT
            levels = self._levels
            if self._probe_batch:
                self._steps += sum(bisect_left(col, probe) for col in levels)
            else:
                memo = self._hops
                hops = memo.get(probe)
                if hops is None:
                    hops = self._descent_hops(probe)
                    if len(memo) > len(self.entries):
                        memo.clear()
                    memo[probe] = hops
                self._steps += hops
        return self._steps

    def _descent_hops(self, probe: Any) -> int:
        """Forward hops of the linked descent to ``probe``'s predecessor.

        Top-down, as the linked descent runs.  The predecessor found on
        the level above sits in this column too, as the same object: the
        hops on this level are the keys between it and the probe's rank,
        found by an identity walk back from that rank.
        """
        hops = 0
        index = 0
        predecessor: Any = _ABSENT  # the head
        levels = self._levels
        for level in range(len(levels) - 1, -1, -1):
            col = levels[level]
            index = bisect_left(col, probe, index)
            if predecessor is _ABSENT:
                hops += index
            else:
                back = index - 1
                while col[back] is not predecessor:
                    back -= 1
                hops += index - 1 - back
            if index:
                predecessor = col[index - 1]
        return hops

    def _changed(self) -> None:
        self._changes += 1
        self._hops.clear()

    def _search(self, key: Any) -> None:
        """Record a point search for ``key``; its hops are counted lazily."""
        self._steps = len(self._levels)
        self._probe = key
        self._probe_batch = False

    def charge_steps(self, steps: int) -> None:
        """Add neighbour-walk hops to :attr:`last_search_steps`.

        Callers that descend once and then walk level-0 neighbours (the
        single-descent traceback) account the hops here so the cost model
        sees descent + walk as one search.
        """
        self._steps += steps

    def _random_level(self) -> int:
        level = 1
        while level < MAX_LEVEL and self._random.random() < _P:
            level += 1
        return level

    def _stack(self, key: Any, low: int, height: int) -> None:
        """Add ``key`` to the columns of levels ``low`` to ``height - 1``."""
        levels = self._levels
        while len(levels) < height:
            levels.append([])
        for col in levels[low:height]:
            col.insert(bisect_left(col, key), key)

    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> bool:
        """Insert or replace; returns True if the key was new."""
        self._search(key)
        entries = self.entries
        if key in entries:
            entries[key] = value
            return False
        self._stack(key, 0, self._random_level())
        entries[key] = value
        self._changed()
        return True

    def insert_batch(
        self, pairs: List[Tuple[Any, Any]]
    ) -> List[Tuple[bool, Any]]:
        """Insert non-descending ``(key, value)`` pairs in one pass.

        Equal keys replace in order (last writer wins).  Returns one
        ``(was_new, previous_value)`` per pair (``previous_value`` is
        None for fresh keys).  Fresh keys draw their heights in input
        order and merge into level 0 in one pass of slices.  The whole
        batch charges :attr:`last_search_steps` as one fingered search:
        the heights of the nodes below the largest key plus the level
        count, both taken after the batch.
        """
        levels = self._levels
        if not pairs:
            self._steps = len(levels)
            self._probe = _ABSENT
            return []
        entries = self.entries
        get = entries.get
        random_fn = self._random.random
        results: List[Tuple[bool, Any]] = []
        append_result = results.append
        fresh: List[Any] = []
        add_fresh = fresh.append
        #: (key, height) of the fresh keys taller than one level
        tall: List[Tuple[Any, int]] = []
        previous_key = pairs[0][0]
        misordered = False
        for key, value in pairs:
            if key < previous_key:
                misordered = True
                break
            previous = get(key, _ABSENT)
            if previous is _ABSENT:
                # The same random() calls _random_level makes, inlined.
                height = 1
                while height < MAX_LEVEL and random_fn() < _P:
                    height += 1
                add_fresh(key)
                if height > 1:
                    tall.append((key, height))
                append_result(_FRESH)
            else:
                append_result((False, previous))
            entries[key] = value
            previous_key = key
        if misordered:
            # Keys before the offending pair stay inserted; the previous
            # search's cost must be settled before the columns change.
            self.last_search_steps
        if fresh:
            # In place: a fresh list would be young, and every young GC
            # pass would walk all of its references.
            levels[0][:] = _merged(levels[0], fresh)
            for key, height in tall:
                self._stack(key, 1, height)
            self._changed()
        if misordered:
            raise ValueError("insert_batch requires non-descending keys")
        self._steps = len(levels)
        self._probe = previous_key
        self._probe_batch = True
        return results

    def get(self, key: Any, default: Any = KeyNotFoundError) -> Any:
        """Look up ``key``; raises :class:`KeyNotFoundError` by default."""
        self._search(key)
        value = self.entries.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        if default is KeyNotFoundError:
            raise KeyNotFoundError(f"key not in skip list: {key!r}")
        return default

    def remove(self, key: Any) -> Any:
        """Delete ``key`` and return its value; raises if absent."""
        self._search(key)
        value = self.entries.pop(key, _ABSENT)
        if value is _ABSENT:
            raise KeyNotFoundError(f"key not in skip list: {key!r}")
        levels = self._levels
        for col in levels:
            index = bisect_left(col, key)
            if index == len(col) or col[index] != key:
                break
            del col[index]
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
        self._changed()
        return value

    # ------------------------------------------------------------------
    # Ordered navigation
    # ------------------------------------------------------------------
    def _entry(self, col: List[Any], index: int) -> Optional[Tuple[Any, Any]]:
        if 0 <= index < len(col):
            key = col[index]
            return (key, self.entries[key])
        return None

    def first(self) -> Optional[Tuple[Any, Any]]:
        """The smallest (key, value), or None when empty."""
        return self._entry(self._levels[0], 0)

    def floor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Greatest entry with ``entry.key <= key``, or None."""
        self._search(key)
        col = self._levels[0]
        return self._entry(col, bisect_right(col, key) - 1)

    def lower(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Greatest entry with ``entry.key < key``, or None."""
        self._search(key)
        col = self._levels[0]
        return self._entry(col, bisect_left(col, key) - 1)

    def ceiling(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Smallest entry with ``entry.key >= key``, or None."""
        self._search(key)
        col = self._levels[0]
        return self._entry(col, bisect_left(col, key))

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _walk(self, start: Any, find) -> Iterator[Tuple[Any, Any]]:
        """Ascending entries from ``find(level 0, start)``, or from the
        smallest key when ``start`` is ``_ABSENT``; a search for ``start``
        is recorded when the walk begins, as the linked list's descent
        ran on the first step.

        Mutation between steps is allowed: after any change to the
        columns the cursor is re-found by key, so keys inserted past it
        are seen and removed ones are not.
        """
        entries = self.entries
        col = self._levels[0]
        changes = self._changes
        if start is _ABSENT:
            index = 0
        else:
            self._search(start)
            index = find(col, start)
        while index < len(col):
            key = col[index]
            yield (key, entries[key])
            if self._changes == changes:
                index += 1
            else:
                changes = self._changes
                col = self._levels[0]
                index = bisect_right(col, key)

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        return self._walk(_ABSENT, None)

    def items_from(self, key: Any, inclusive: bool = True) -> Iterator[Tuple[Any, Any]]:
        """Ascending entries starting at ``key`` (or just after it)."""
        return self._walk(key, bisect_left if inclusive else bisect_right)

    def range(self, start: Any, end: Any) -> Iterator[Tuple[Any, Any]]:
        """Entries with ``start <= key < end`` in ascending order."""
        for key, value in self.items_from(start, inclusive=True):
            if not key < end:
                return
            yield (key, value)

    def items_before(self, key: Any) -> Iterator[Tuple[Any, Any]]:
        """Descending entries strictly below ``key``, one :meth:`lower`
        search per step (the linked list has no backward pointers, and
        the step counts model it)."""
        current = key
        while True:
            entry = self.lower(current)
            if entry is None:
                return
            yield entry
            current = entry[0]
