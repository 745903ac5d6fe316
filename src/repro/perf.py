"""Registry of the wall-clock memo tables.

The simulator's hot loop memoises several pure functions of immutable
bytes — shared fan-out frame decoding, digests, RSA verification, GIOP
and IDL encodes.  In a broadcast simulation N receivers compute the
same function of byte-identical input, so the host does the work once.
None of this may change a single simulated timestamp: simulated CPU
time is charged by the cost model *before* any memo is consulted, so a
hit saves host CPU, never simulated CPU.
``tests/integration/test_memo_invisible.py`` proves it by running the
seeded drills cold, warm and with every memo forced to miss, and
requiring byte-identical observability exports.

Each memo registers itself here so that a benchmark can start cold
(:func:`clear_caches`) and report hit rates (:func:`cache_stats`).
"""

_CACHES = []


def register_cache(cache):
    """Register anything with ``clear()`` (and, if named, ``stats()``)."""
    _CACHES.append(cache)
    return cache


def clear_caches():
    """Empty every registered cache (timing runs start cold)."""
    for cache in _CACHES:
        cache.clear()


def cache_stats():
    """Hit/miss/size snapshot of every named cache, keyed by name."""
    stats = {}
    for cache in _CACHES:
        name = getattr(cache, "name", None)
        if name is not None:
            stats[name] = cache.stats()
    return stats


class BytesKeyedCache:
    """A bounded memo table for pure functions of immutable keys.

    Used for the shared fan-out decode and crypto memos: in a broadcast
    simulation the same frame bytes arrive at every receiver, so the
    expensive pure computation (CDR decode, MD4, RSA verify) is done
    once and the result shared.  Corrupted frames differ in bytes and
    miss naturally.  Eviction drops the oldest half of the entries when
    the table exceeds ``maxsize`` — insertion order is a good enough
    proxy for age in a sliding simulation window, and bulk eviction
    keeps the common-case hit path a single dict lookup.
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "_table")

    def __init__(self, name, maxsize=8192):
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._table = {}

    def get(self, key, default=None):
        value = self._table.get(key, default)
        if value is default:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value):
        table = self._table
        if len(table) >= self.maxsize:
            for stale in list(table)[: self.maxsize // 2]:
                del table[stale]
        table[key] = value
        return value

    def clear(self):
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._table)

    def stats(self):
        return {"hits": self.hits, "misses": self.misses, "size": len(self._table)}
