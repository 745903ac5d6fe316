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
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}


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
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}
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
        assert cache.stats() == {"hits": hits, "misses": misses, "size": len(model)}


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
