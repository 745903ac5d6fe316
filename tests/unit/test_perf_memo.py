"""Unit tests for the memo registry and its bounded cache."""

import repro.core.immune  # noqa: F401  (importing the stack registers every memo)
from repro import perf
from repro.crypto import md4, md5
from repro.perf import BytesKeyedCache


def test_clear_caches_empties_registered_caches_and_counters():
    cache = perf.register_cache(BytesKeyedCache("test.clear", 16))
    cache.put(b"k", 1)
    cache.get(b"k")
    assert len(cache) == 1
    perf.clear_caches()
    assert len(cache) == 0
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}


def test_bytes_keyed_cache_hit_miss_accounting():
    cache = BytesKeyedCache("test.stats", 16)
    assert cache.get(b"a") is None
    cache.put(b"a", "va")
    assert cache.get(b"a") == "va"
    assert cache.get(b"b", "default") == "default"
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["size"] == 1


def test_bytes_keyed_cache_evicts_oldest_half_when_full():
    cache = BytesKeyedCache("test.evict", 8)
    for i in range(9):
        cache.put(("k", i), i)
    assert len(cache) <= 8
    # the newest entry always survives an eviction
    assert cache.get(("k", 8)) == 8
    # the oldest entries are the ones dropped
    assert cache.get(("k", 0)) is None


def test_cache_stats_reports_registered_named_caches():
    cache = perf.register_cache(BytesKeyedCache("test.snapshot", 4))
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
    for fn in (md4.md4_digest, md4._digest, md4._python_digest, md5.md5_digest):
        assert not hasattr(fn, "cache_info"), fn
