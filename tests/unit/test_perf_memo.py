"""Unit tests for the memo registry and its bounded cache."""

import pytest
from hypothesis import given, strategies as st

import repro.core.immune  # noqa: F401  (importing the stack registers every memo)
from repro import perf
from repro.crypto import md4
from repro.perf import BytesKeyedCache

BOUND = perf.MEMO_BOUND


def test_clear_caches_empties_registered_caches_and_counters():
    cache = perf.register_cache(BytesKeyedCache("test.clear"))
    cache.put(b"k", 1)
    cache.get(b"k")
    assert len(cache) == 1
    perf.clear_caches()
    assert len(cache) == 0
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 0, "bytes": 0}


def test_bytes_keyed_cache_hit_miss_accounting():
    cache = BytesKeyedCache("test.stats")
    assert cache.get(b"a") is None
    cache.put(b"a", "va")
    assert cache.get(b"a") == "va"
    assert cache.get(b"b", "default") == "default"
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["size"] == 1


def test_bytes_keyed_cache_evicts_oldest_half_when_full():
    cache = BytesKeyedCache("test.evict")
    for i in range(BOUND):
        cache.put(("k", i), i)
    assert len(cache) == BOUND
    cache.put(("k", BOUND), BOUND)
    assert len(cache) == BOUND // 2 + 1
    # the newest entry always survives an eviction
    assert cache.get(("k", BOUND)) == BOUND
    # the oldest half is what goes, the younger half stays
    assert cache.get(("k", BOUND // 2 - 1)) is None
    assert cache.get(("k", BOUND // 2)) == BOUND // 2


def test_a_table_never_holds_more_than_the_bound():
    cache = BytesKeyedCache("test.bound")
    for i in range(5 * BOUND + 3):
        cache.put(i, i)
        assert len(cache) <= BOUND


@pytest.mark.parametrize("before", [0, BOUND // 2 - 1, BOUND - 1, BOUND + 7])
def test_an_entry_survives_half_the_bound_of_later_insertions(before):
    """Wherever an entry lands in the table, it outlives ``BOUND // 2``
    later insertions; put at a half boundary or in the last slot, it
    goes on the next one."""
    cache = BytesKeyedCache("test.lifetime")
    for i in range(before):
        cache.put(("old", i), i)
    cache.put("entry", "value")
    for i in range(BOUND // 2):
        cache.put(("new", i), i)
    assert cache.get("entry") == "value"
    if before in (BOUND // 2 - 1, BOUND - 1):
        cache.put("one more", 0)
        assert cache.get("entry") is None


def test_clear_empties_a_table_and_zeroes_its_counters():
    cache = BytesKeyedCache("test.clear_one")
    for i in range(BOUND + 1):
        cache.put(i, i)
    cache.get(0)
    cache.get(BOUND)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 0, "bytes": 0}
    assert cache.get(BOUND) is None


@given(
    bound=st.sampled_from([2, 4, 6, 16]),
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 24)), max_size=200
    ),
)
def test_the_table_matches_a_dict_with_drop_oldest_half_eviction(bound, ops):
    """Any put/get sequence, against a reference model of the policy:
    a dict plus a list of its keys in insertion order, of which a put
    that finds ``bound`` entries first drops the oldest ``bound // 2``."""
    model, order, hits, misses = {}, [], 0, 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perf, "MEMO_BOUND", bound)
        cache = BytesKeyedCache("test.model")
        for serial, (op, key) in enumerate(ops):
            if op == "put":
                if len(model) >= bound:
                    for stale in order[: bound // 2]:
                        del model[stale]
                    del order[: bound // 2]
                if key not in model:
                    order.append(key)
                model[key] = serial
                assert cache.put(key, serial) == serial
            else:
                expected = model.get(key)
                hits += expected is not None
                misses += expected is None
                assert cache.get(key) == expected
            assert len(cache) == len(model) <= bound
        assert cache.stats() == {
            "hits": hits, "misses": misses, "size": len(model),
            "bytes": len(model) * perf.ENTRY_BYTES,
        }


KIB4 = 4096
BUDGET = BOUND * perf.ENTRY_BYTES


def test_an_entry_is_charged_the_bytes_in_its_key_or_the_floor():
    floor = perf.ENTRY_BYTES
    assert perf.charge(b"x" * KIB4) == KIB4
    assert perf.charge(b"x" * 100) == floor
    assert perf.charge(("template", 3, 7)) == floor
    assert perf.charge(12345) == floor
    # crypto.digest's (function, payload) and crypto.verify's triple
    assert perf.charge((md4.md4_digest, b"x" * KIB4)) == KIB4
    assert perf.charge((object(), b"s" * 3000, b"g" * 128)) == 3128
    # idl.marshal's (tags, args): the bytes in a nested tuple count
    assert perf.charge((("octets", "ulong"), (b"p" * KIB4, 7))) == KIB4
    assert perf.charge(((b"a" * 300,), ((b"b" * 300,),))) == 600
    # only ``bytes`` count: a string is charged nothing beyond the floor
    assert perf.charge(("x" * KIB4,)) == floor


def test_a_lowered_bound_is_reached_on_the_next_put():
    """A table filled under the default bound shrinks to a lowered one at
    once; it used to drop ``MEMO_BOUND // 2`` entries per put and add one,
    so 600 entries stayed 600 under a bound of 2."""
    cache = BytesKeyedCache("test.lowered")
    for i in range(600):
        cache.put(i, i)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perf, "MEMO_BOUND", 2)
        for i in range(10):
            cache.put(("after", i), i)
            assert len(cache) <= 2
    assert cache.get(("after", 9)) == 9


def test_a_table_of_4k_keys_holds_its_budget_and_drops_to_half():
    cache = BytesKeyedCache("test.4k")
    held = BUDGET // KIB4
    for i in range(held):
        cache.put(bytes([i % 256, i // 256]) * (KIB4 // 2), i)
    assert len(cache) == held
    assert cache.stats()["bytes"] == BUDGET
    cache.put(b"n" * KIB4, "new")
    assert len(cache) == held // 2 + 1
    assert cache.stats()["bytes"] == BUDGET // 2 + KIB4
    # the oldest half went, the younger half and the new entry stayed
    assert cache.get(bytes([held // 2 - 1, 0]) * (KIB4 // 2)) is None
    assert cache.get(bytes([held // 2, 0]) * (KIB4 // 2)) == held // 2


@pytest.mark.parametrize("before", [0, 30, 64, 127, 200])
def test_a_4k_entry_outlives_half_the_budget_of_later_4k_insertions(before):
    """Wherever it lands, a 4 KiB entry outlives the later 4 KiB
    insertions that, with it, fill half the budget: 63 of them."""
    cache = BytesKeyedCache("test.4k_lifetime")
    for i in range(before):
        cache.put(("old", b"o" * KIB4, i), i)
    cache.put(b"e" * KIB4, "entry")
    for i in range(BUDGET // 2 // KIB4 - 1):
        cache.put(("new", b"n" * KIB4, i), i)
    assert cache.get(b"e" * KIB4) == "entry"


def test_a_held_key_put_again_is_not_charged_again():
    cache = BytesKeyedCache("test.reput")
    cache.put(b"k" * KIB4, 1)
    cache.put(b"k" * KIB4, 2)
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 1, "bytes": KIB4}
    assert cache.get(b"k" * KIB4) == 2


def test_a_key_larger_than_the_budget_is_held_alone():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perf, "MEMO_BOUND", 2)
        cache = BytesKeyedCache("test.huge")
        cache.put(b"small", 0)
        cache.put(b"h" * KIB4, "huge")
        assert cache.stats()["size"] == 1
        assert cache.stats()["bytes"] == KIB4
        assert cache.get(b"h" * KIB4) == "huge"
        cache.put(b"small", 0)
        assert cache.stats()["size"] == 1
        assert cache.stats()["bytes"] == perf.ENTRY_BYTES


def _model_charge(key):
    """The charge rule as plainly as it can be said (the table's is a type
    dispatch for speed)."""

    def walk(part):
        if isinstance(part, bytes):
            return len(part)
        if isinstance(part, tuple):
            return sum(walk(inner) for inner in part)
        return 0

    return max(walk(key), perf.ENTRY_BYTES)


def _sized_key(shape, serial, size):
    """A key of ``shape`` carrying ``size`` bytes, like those of the
    registered memos, and unlike any other ``serial``'s."""
    data = (serial.to_bytes(2, "big") * size)[:size]
    if shape == "bytes":
        return data
    if shape == "pair":
        return (serial, data)
    if shape == "nested":
        return ((serial, "tags"), (data[: size // 3], 7, (data[size // 3:],)))
    return (serial, "template")


#: a new key (shape, size), a held or dropped one again (put / get the
#: n-th key put so far), or a clear
BYTE_OPS = st.one_of(
    st.tuples(
        st.just("new"),
        st.sampled_from(["bytes", "pair", "nested", "small"]),
        st.sampled_from([2, 511, 512, 513, 700, 1500, 5000]),
    ),
    st.tuples(st.sampled_from(["again", "get"]), st.integers(0, 199), st.none()),
    st.just(("clear", None, None)),
)


@given(bound=st.sampled_from([2, 3, 8]), ops=st.lists(BYTE_OPS, min_size=10, max_size=200))
def test_the_table_matches_a_model_of_the_byte_budget(bound, ops):
    """Any sequence of puts of new keys of drawn sizes and shapes, puts
    and gets of earlier keys, and clears, against a reference model of
    the policy: a dict, its keys in insertion order and their charges;
    a put whose charge would take the held bytes over
    ``bound × ENTRY_BYTES`` first drops the oldest keys until half the
    budget is held (or less, for a key larger than half of it), and a
    held key is not charged again."""
    budget = bound * perf.ENTRY_BYTES
    keys, model, order, charges, held, hits, misses = [], {}, [], {}, 0, 0, 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perf, "MEMO_BOUND", bound)
        cache = BytesKeyedCache("test.byte_model")
        for serial, (op, arg, size) in enumerate(ops):
            if op == "clear":
                model, order, charges, held, hits, misses = {}, [], {}, 0, 0, 0
                cache.clear()
                assert cache.stats() == {"hits": 0, "misses": 0, "size": 0, "bytes": 0}
                continue
            if op == "new":
                keys.append(_sized_key(arg, serial, size))
                key = keys[-1]
            elif keys:
                key = keys[arg % len(keys)]
            else:
                continue
            if op == "get":
                expected = model.get(key)
                hits += expected is not None
                misses += expected is None
                assert cache.get(key) == expected
            else:
                cost = _model_charge(key)
                assert perf.charge(key) == cost
                if held + cost > budget:
                    while order and held > min(budget // 2, budget - cost):
                        stale = order.pop(0)
                        held -= charges.pop(stale)
                        del model[stale]
                if key not in model:
                    order.append(key)
                    charges[key] = cost
                    held += cost
                model[key] = serial
                assert cache.put(key, serial) == serial
            assert cache.stats() == {
                "hits": hits, "misses": misses, "size": len(model), "bytes": held,
            }
            # within the budget, unless one key larger than it is held alone
            assert held <= budget or len(model) == 1


def test_cache_stats_reports_registered_named_caches():
    cache = perf.register_cache(BytesKeyedCache("test.snapshot"))
    cache.put(b"x", 1)
    cache.get(b"x")
    stats = perf.cache_stats()
    assert stats["test.snapshot"]["hits"] == 1
    assert stats["test.snapshot"]["misses"] == 0


def test_the_digest_functions_hold_no_memo_of_their_own():
    """``crypto.digest``, the key store's table, is the one digest memo.

    ``tests.support.defeat_memos`` defeats ``BytesKeyedCache.get`` and
    nothing else, so it is complete only while every registered memo is
    one and the raw digest functions behind the table are plain.
    """
    assert "crypto.digest" in perf.cache_stats()
    assert "md4.digest" not in perf.cache_stats()
    assert all(type(cache) is BytesKeyedCache for cache in perf._CACHES)
    for fn in (md4.md4_digest, md4._digest, md4._python_digest):
        assert not hasattr(fn, "cache_info"), fn
