"""The linked skip list (Pugh, CACM 1990): the reference model for
:class:`repro.qindb.skiplist.SkipListMap`.

Nodes with per-level forward pointers, searched by the textbook
descent, with the same seeded level generator as the column form.  Its
``last_search_steps`` counts the forward hops each search really takes;
the tests drive both forms through the same histories and require equal
results and equal step counts, which is what keeps the engines' CPU
charges unchanged.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError

MAX_LEVEL = 32
_P = 0.25


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * level


class LinkedSkipListMap:
    """A sorted mapping over linked nodes: the reference model."""

    def __init__(self, seed: int = 0x51DB) -> None:
        self._head = _Node(None, None, MAX_LEVEL)
        self._level = 1
        self._length = 0
        self._random = random.Random(seed)
        #: comparisons performed by the most recent search, for cost models
        self.last_search_steps = 0
        #: sum of every live node's height — lets :meth:`insert_batch`
        #: compute its charged hop count in closed form (see there)
        self._total_heights = 0

    def __len__(self) -> int:
        return self._length

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not None

    # ------------------------------------------------------------------
    def _random_level(self) -> int:
        level = 1
        while level < MAX_LEVEL and self._random.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: Any) -> List[_Node]:
        """Per-level nodes after which ``key`` would be inserted."""
        update: List[_Node] = [self._head] * MAX_LEVEL
        node = self._head
        steps = 0
        level = self._level - 1
        while level >= 0:
            next_node = node.forward[level]
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forward[level]
                steps += 1
            update[level] = node
            level -= 1
        self.last_search_steps = steps + self._level
        return update

    def charge_steps(self, steps: int) -> None:
        """Add neighbour-walk hops to :attr:`last_search_steps`.

        Callers that descend once and then walk level-0 neighbours (the
        single-descent traceback) account the hops here so the cost model
        sees descent + walk as one search.
        """
        self.last_search_steps += steps

    def _find(self, key: Any) -> Optional[_Node]:
        # Same descent (and step accounting) as _find_predecessors, but
        # point lookups skip materialising the 32-slot update list.
        node = self._head
        steps = 0
        level = self._level - 1
        while level >= 0:
            next_node = node.forward[level]
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forward[level]
                steps += 1
            level -= 1
        self.last_search_steps = steps + self._level
        node = node.forward[0]
        if node is not None and node.key == key:
            return node
        return None

    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> bool:
        """Insert or replace; returns True if the key was new."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            node.value = value
            return False
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._length += 1
        self._total_heights += level
        return True

    def insert_batch(
        self, pairs: List[Tuple[Any, Any]]
    ) -> List[Tuple[bool, Any]]:
        """Insert ascending ``(key, value)`` pairs, reusing the search
        finger between adjacent keys.

        Keys must be non-descending (equal keys replace in order, last
        writer wins).  Instead of descending from the head for every key,
        each per-level search resumes from the previous key's predecessor
        at that level — adjacent keys cost only the hops *between* them,
        so a sorted batch pays one O(log n) descent plus O(batch span)
        walk rather than len(batch) full descents.

        Returns one ``(was_new, previous_value)`` per pair
        (``previous_value`` is None for fresh keys).  The whole batch
        charges :attr:`last_search_steps` as a single search: total hops
        plus one descent's level count.

        The charged hop count has a closed form.  A sorted batch's
        search finger visits every level-``l`` node below the batch's
        largest key exactly once per level it appears on, so the total
        is simply the sum of the heights of all nodes (at batch end)
        whose key precedes the largest batch key.  That lets this method
        skip the O(span) finger walk entirely: each key is placed with
        an ordinary O(log n) descent, and the charge comes from the
        maintained :attr:`_total_heights` minus a short walk over the
        nodes *past* the largest key — identical ``last_search_steps``
        to the walked form, without touching the span.
        """
        if not pairs:
            self.last_search_steps = self._level
            return []
        results: List[Tuple[bool, Any]] = []
        append_result = results.append
        head = self._head
        update: List[_Node] = [head] * MAX_LEVEL
        #: per-level search finger: ``nexts[level]`` mirrors
        #: ``update[level].forward[level]`` so levels whose successor is
        #: already past the next key cost one cached compare
        nexts: List[Optional[_Node]] = list(head.forward)
        previous_key: Any = None
        # Hot loop: locals bound once per batch.  The inlined level draw
        # makes the identical sequence of ``random()`` calls the
        # out-of-line ``_random_level`` would, so seeded structures are
        # unchanged.
        random_fn = self._random.random
        new_node = object.__new__
        node_cls = _Node
        for key, value in pairs:
            if previous_key is not None and key < previous_key:
                raise ValueError("insert_batch requires non-descending keys")
            # Finger walk on levels >= 1 only: level 0 holds ~all nodes,
            # so fingering it would visit the whole batch span.  Instead
            # the level-0 predecessor is reached by a short walk from the
            # nearer of the level-1 predecessor and the previous key's
            # level-0 predecessor (both provably precede ``key``).
            #
            # The walk runs bottom-up and stops at the first level whose
            # cached successor is already at or past ``key``: finger keys
            # are nondecreasing in level (each insert writes its own key
            # into every level it spans, walks only move fingers forward
            # in key order), so no higher level can need movement either
            # — its stale ``update`` entry is still the predecessor.
            top = self._level
            level = 1
            while level < top:
                next_node = nexts[level]
                if next_node is None or not next_node.key < key:
                    break
                node = next_node
                next_node = node.forward[level]
                while next_node is not None and next_node.key < key:
                    node = next_node
                    next_node = node.forward[level]
                update[level] = node
                nexts[level] = next_node
                level += 1
            node = update[0]
            other = update[1]
            if other is not head and (node is head or node.key < other.key):
                node = other
            next_node = node.forward[0]
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forward[0]
            update[0] = node
            if next_node is not None and next_node.key == key:
                append_result((False, next_node.value))
                next_node.value = value
            else:
                level = 1
                while level < MAX_LEVEL and random_fn() < _P:
                    level += 1
                if level > self._level:
                    self._level = level
                node = new_node(node_cls)
                node.key = key
                node.value = value
                node.forward = forward = [None] * level
                if level == 1:
                    # 1 - _P of inserts have height 1; skip the loop.
                    predecessor = update[0]
                    forward[0] = predecessor.forward[0]
                    predecessor.forward[0] = node
                    nexts[0] = node
                else:
                    for i in range(level):
                        predecessor = update[i]
                        forward[i] = predecessor.forward[i]
                        predecessor.forward[i] = node
                        nexts[i] = node
                self._length += 1
                self._total_heights += level
                append_result((True, None))
            previous_key = key
        # Charge the finger-walk hop count in closed form: heights of
        # everything below the largest key = total heights minus the
        # tail at or past it.  ``update[0]`` still holds the largest
        # key's predecessor, so the tail walk starts at that key's node.
        tail = 0
        node = update[0].forward[0]
        while node is not None:
            tail += len(node.forward)
            node = node.forward[0]
        self.last_search_steps = self._total_heights - tail + self._level
        return results

    def get(self, key: Any, default: Any = KeyNotFoundError) -> Any:
        """Look up ``key``; raises :class:`KeyNotFoundError` by default."""
        node = self._find(key)
        if node is not None:
            return node.value
        if default is KeyNotFoundError:
            raise KeyNotFoundError(f"key not in skip list: {key!r}")
        return default

    def remove(self, key: Any) -> Any:
        """Delete ``key`` and return its value; raises if absent."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is None or node.key != key:
            raise KeyNotFoundError(f"key not in skip list: {key!r}")
        for i in range(len(node.forward)):
            if update[i].forward[i] is node:
                update[i].forward[i] = node.forward[i]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._length -= 1
        self._total_heights -= len(node.forward)
        return node.value

    # ------------------------------------------------------------------
    # Ordered navigation
    # ------------------------------------------------------------------
    def first(self) -> Optional[Tuple[Any, Any]]:
        """The smallest (key, value), or None when empty."""
        node = self._head.forward[0]
        return None if node is None else (node.key, node.value)

    def floor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Greatest entry with ``entry.key <= key``, or None."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            return (node.key, node.value)
        prev = update[0]
        if prev is self._head:
            return None
        return (prev.key, prev.value)

    def lower(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Greatest entry with ``entry.key < key``, or None."""
        prev = self._find_predecessors(key)[0]
        if prev is self._head:
            return None
        return (prev.key, prev.value)

    def ceiling(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Smallest entry with ``entry.key >= key``, or None."""
        node = self._find_predecessors(key)[0].forward[0]
        return None if node is None else (node.key, node.value)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield (node.key, node.value)
            node = node.forward[0]

    def items_from(self, key: Any, inclusive: bool = True) -> Iterator[Tuple[Any, Any]]:
        """Ascending entries starting at ``key`` (or just after it)."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key and not inclusive:
            node = node.forward[0]
        while node is not None:
            yield (node.key, node.value)
            node = node.forward[0]

    def range(self, start: Any, end: Any) -> Iterator[Tuple[Any, Any]]:
        """Entries with ``start <= key < end`` in ascending order."""
        for key, value in self.items_from(start, inclusive=True):
            if not key < end:
                return
            yield (key, value)

    def items_before(self, key: Any) -> Iterator[Tuple[Any, Any]]:
        """Descending entries strictly below ``key``.

        Skip lists have no backward pointers; this walks down one
        predecessor at a time (an O(log n) search per step), which is fine
        for the short version chains GET traceback inspects.
        """
        current = key
        while True:
            entry = self.lower(current)
            if entry is None:
                return
            yield entry
            current = entry[0]
