"""Unit + property tests for the skip list, and its equivalence with the
linked reference model (``reference_skiplist.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_skiplist import LinkedSkipListMap

from repro.errors import KeyNotFoundError
from repro.qindb.skiplist import SkipListMap


def test_insert_get_roundtrip():
    sl = SkipListMap()
    assert sl.insert(5, "five")
    assert sl.get(5) == "five"
    assert len(sl) == 1


def test_insert_replaces_value():
    sl = SkipListMap()
    assert sl.insert(1, "a")
    assert not sl.insert(1, "b")
    assert sl.get(1) == "b"
    assert len(sl) == 1


def test_get_missing_raises_or_defaults():
    sl = SkipListMap()
    with pytest.raises(KeyNotFoundError):
        sl.get(99)
    assert sl.get(99, default="fallback") == "fallback"


def test_remove():
    sl = SkipListMap()
    sl.insert(1, "a")
    sl.insert(2, "b")
    assert sl.remove(1) == "a"
    assert len(sl) == 1
    assert 1 not in sl
    with pytest.raises(KeyNotFoundError):
        sl.remove(1)


def test_iteration_is_sorted():
    sl = SkipListMap()
    for key in (5, 1, 9, 3, 7):
        sl.insert(key, str(key))
    assert [k for k, _v in sl] == [1, 3, 5, 7, 9]


def test_floor_lower_ceiling():
    sl = SkipListMap()
    for key in (10, 20, 30):
        sl.insert(key, key)
    assert sl.floor(20) == (20, 20)
    assert sl.floor(25) == (20, 20)
    assert sl.floor(5) is None
    assert sl.lower(20) == (10, 10)
    assert sl.lower(10) is None
    assert sl.ceiling(15) == (20, 20)
    assert sl.ceiling(31) is None
    assert sl.first() == (10, 10)


def test_items_from_inclusive_and_exclusive():
    sl = SkipListMap()
    for key in range(0, 10, 2):
        sl.insert(key, key)
    assert [k for k, _v in sl.items_from(4)] == [4, 6, 8]
    assert [k for k, _v in sl.items_from(4, inclusive=False)] == [6, 8]
    assert [k for k, _v in sl.items_from(3)] == [4, 6, 8]


def test_range_half_open():
    sl = SkipListMap()
    for key in range(10):
        sl.insert(key, key)
    assert [k for k, _v in sl.range(3, 7)] == [3, 4, 5, 6]
    assert list(sl.range(7, 3)) == []


def test_items_before_descends():
    sl = SkipListMap()
    for key in range(5):
        sl.insert(key, key)
    assert [k for k, _v in sl.items_before(3)] == [2, 1, 0]
    assert list(sl.items_before(0)) == []


def test_tuple_keys_sort_lexicographically():
    """The (key, version) composite ordering QinDB relies on."""
    sl = SkipListMap()
    sl.insert((b"b", 1), "b1")
    sl.insert((b"a", 2), "a2")
    sl.insert((b"a", 1), "a1")
    sl.insert((b"a", 10), "a10")
    keys = [k for k, _v in sl]
    assert keys == [(b"a", 1), (b"a", 2), (b"a", 10), (b"b", 1)]


def test_deterministic_given_same_seed():
    def build(seed):
        sl = SkipListMap(seed=seed)
        for key in range(200):
            sl.insert((key * 7919) % 1000, key)
        sl.get(500, default=None)
        return sl.last_search_steps

    assert build(1) == build(1)


def test_search_steps_counter_moves():
    sl = SkipListMap()
    for key in range(500):
        sl.insert(key, key)
    sl.get(499)
    assert sl.last_search_steps > 0


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "get"]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=300,
    )
)
def test_property_matches_dict_model(ops):
    """The skip list behaves exactly like a sorted dict."""
    sl = SkipListMap(seed=7)
    model = {}
    for action, key in ops:
        if action == "insert":
            assert sl.insert(key, key * 2) == (key not in model)
            model[key] = key * 2
        elif action == "remove":
            if key in model:
                assert sl.remove(key) == model.pop(key)
            else:
                with pytest.raises(KeyNotFoundError):
                    sl.remove(key)
        else:
            assert sl.get(key, default=None) == model.get(key)
    assert len(sl) == len(model)
    assert [k for k, _v in sl] == sorted(model)


@settings(max_examples=25, deadline=None)
@given(
    keys=st.sets(st.integers(min_value=0, max_value=1000), max_size=100),
    probe=st.integers(min_value=-5, max_value=1005),
)
def test_property_floor_matches_model(keys, probe):
    sl = SkipListMap(seed=3)
    for key in keys:
        sl.insert(key, key)
    expected_floor = max((k for k in keys if k <= probe), default=None)
    expected_lower = max((k for k in keys if k < probe), default=None)
    expected_ceiling = min((k for k in keys if k >= probe), default=None)
    floor = sl.floor(probe)
    lower = sl.lower(probe)
    ceiling = sl.ceiling(probe)
    assert (floor[0] if floor else None) == expected_floor
    assert (lower[0] if lower else None) == expected_lower
    assert (ceiling[0] if ceiling else None) == expected_ceiling


# ----------------------------------------------------------------- batching
def test_insert_batch_matches_sequential_inserts():
    batched = SkipListMap(seed=5)
    sequential = SkipListMap(seed=5)
    pairs = [(key, key * 10) for key in range(0, 100, 3)]
    results = batched.insert_batch(pairs)
    for key, value in pairs:
        sequential.insert(key, value)
    assert [k for k, _v in batched] == [k for k, _v in sequential]
    assert [v for _k, v in batched] == [v for _k, v in sequential]
    assert all(was_new for was_new, _prev in results)


def test_insert_batch_reports_replacements():
    sl = SkipListMap(seed=2)
    sl.insert(10, "old")
    results = sl.insert_batch([(5, "a"), (10, "new"), (15, "b")])
    assert results == [(True, None), (False, "old"), (True, None)]
    assert sl.get(10) == "new"
    assert len(sl) == 3


def test_insert_batch_rejects_descending_keys():
    sl = SkipListMap(seed=2)
    with pytest.raises(ValueError):
        sl.insert_batch([(5, "a"), (3, "b")])


def test_insert_batch_allows_equal_keys_last_wins():
    sl = SkipListMap(seed=2)
    results = sl.insert_batch([(7, "first"), (7, "second")])
    assert results == [(True, None), (False, "first")]
    assert sl.get(7) == "second"
    assert len(sl) == 1


def test_insert_batch_interleaves_with_existing_keys():
    """The search finger must descend correctly between existing nodes."""
    sl = SkipListMap(seed=9)
    for key in range(0, 200, 2):  # evens pre-exist
        sl.insert(key, "even")
    sl.insert_batch([(key, "odd") for key in range(1, 200, 2)])
    assert len(sl) == 200
    assert [k for k, _v in sl] == list(range(200))
    assert sl.get(151) == "odd"
    assert sl.get(150) == "even"


# ------------------------------------------------- linked reference model
_END = object()
_KEYS = st.integers(min_value=0, max_value=60)
_POINT_OPS = st.tuples(
    st.sampled_from(["insert", "remove", "get", "floor", "lower"]), _KEYS
)
_BATCH_OPS = st.tuples(
    st.just("insert_batch"),
    # sorted with repeats: equal adjacent keys replace in order
    st.lists(_KEYS, max_size=25).map(sorted),
)
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["insert", "remove"]), _KEYS), _BATCH_OPS
)
_OPS = st.one_of(
    _POINT_OPS,
    _BATCH_OPS,
    st.tuples(st.just("drain"), st.booleans()),
    st.tuples(
        st.just("items_from"),
        _KEYS,
        st.booleans(),
        st.lists(_MUTATIONS, max_size=6),
    ),
)


def _outcome(call):
    try:
        return ("ok", call())
    except (KeyNotFoundError, ValueError) as exc:
        return ("raised", type(exc))


def _same(column, linked, call):
    """Run ``call`` on both maps; results and step counts must agree."""
    result = _outcome(lambda: call(column))
    assert result == _outcome(lambda: call(linked))
    assert column.last_search_steps == linked.last_search_steps
    return result


def _apply(column, linked, op, tag):
    action, arg = op[0], op[1]
    if action == "insert":
        _same(column, linked, lambda m: m.insert(arg, tag))
    elif action == "insert_batch":
        _same(
            column,
            linked,
            lambda m: m.insert_batch([(k, (tag, i)) for i, k in enumerate(arg)]),
        )
    elif action == "remove":
        _same(column, linked, lambda m: m.remove(arg))
    elif action == "get":
        _same(column, linked, lambda m: m.get(arg, default=None))
    elif action in ("floor", "lower"):
        _same(column, linked, lambda m: getattr(m, action)(arg))


def _walk_with_mutations(column, linked, start, inclusive, mutations, tag):
    """Step both iterators in lockstep, mutating both between steps.

    A mutation never removes the key the cursor stands on: the linked
    walk would then follow the removed node's stale forward pointer
    (and could yield entries removed after it), which the column walk,
    re-finding its cursor by key, deliberately does not reproduce.
    """
    walks = (column.items_from(start, inclusive), linked.items_from(start, inclusive))
    pending = list(mutations)
    while True:
        steps = [next(walk, _END) for walk in walks]
        assert steps[0] == steps[1]
        assert column.last_search_steps == linked.last_search_steps
        if steps[0] is _END:
            return
        if pending:
            op = pending.pop(0)
            if op[0] == "remove" and op[1] == steps[0][0]:
                continue
            _apply(column, linked, op, tag)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=60), seed=st.integers(0, 3))
def test_columns_match_linked_reference(ops, seed):
    """Identical results and ``last_search_steps`` after every operation
    of a random history, so the engines' CPU charges are unchanged."""
    column, linked = SkipListMap(seed=seed), LinkedSkipListMap(seed=seed)
    for tag, op in enumerate(ops):
        if op[0] == "drain":
            # remove down to empty: the level count shrinks back to one
            for key, _value in sorted(linked, reverse=op[1]):
                _apply(column, linked, ("remove", key), tag)
            assert len(column) == 0
        elif op[0] == "items_from":
            _walk_with_mutations(column, linked, op[1], op[2], op[3], tag)
        else:
            _apply(column, linked, op, tag)
        assert list(column) == list(linked)
        assert len(column) == len(linked)
    assert column.last_search_steps == linked.last_search_steps


def test_misordered_batch_keeps_its_prefix_like_the_reference():
    column, linked = SkipListMap(seed=1), LinkedSkipListMap(seed=1)
    for m in (column, linked):
        for key in range(0, 40, 3):
            m.insert(key, "old")
        m.get(21)
    pairs = [(1, "a"), (9, "b"), (4, "c"), (30, "d")]
    for m in (column, linked):
        with pytest.raises(ValueError):
            m.insert_batch(pairs)
    assert list(column) == list(linked)
    assert column.last_search_steps == linked.last_search_steps
