"""Registry of the wall-clock memo tables.

The simulator's hot loop memoises several pure functions of immutable
bytes — shared fan-out frame decoding, digests, RSA verification, GIOP
and IDL encodes.  In a broadcast simulation N receivers compute the
same function of byte-identical input, so the host does the work once.
None of this may change a single simulated timestamp: simulated CPU
time is charged by the cost model *before* any memo is consulted, so a
hit saves host CPU, never simulated CPU.
``tests/integration/test_memo_invisible.py`` proves it by running the
seeded drills cold, warm, with every memo forced to miss and with
every table bounded to two entries, and requiring byte-identical
observability exports.

Each memo registers itself here so that a benchmark can start cold
(:func:`clear_caches`) and report hit rates (:func:`cache_stats`).

**One bound for every table.**  A table holds at most
:data:`MEMO_BOUND` entries and, when a put finds it full, drops the
oldest half, so an entry lives for at least ``MEMO_BOUND // 2`` later
insertions into its table.  That is the lifetime contract, and it is
enough for one broadcast's fan-out, which is all the sharing there is:
a receiver asks for what another receiver of the same frame (or replica
of the same invocation) put a moment before.  The largest put→hit
distance, in insertions into the same table, on the ladder's reference
rungs (seed 7, nothing evicted): 13 on ``ring_oneway_64b``, 29 on
``ring_signed_twoway_4k``, 606 on ``ring_fault_drill_obs``, whose
certificates re-vouch token digests up to a batch old (52 of its
909 431 digest hits are lost).  ``wan_mixed_twoway``'s cross-site
gateways reuse digests and GIOP frames after a 50 ms flight, up to
39 285 insertions later, and lose 65 of 115 065 digest hits and 126 of
11 730 GIOP decode hits.  Whatever a table kept past that was memory
the run paid for and no lookup used.
``tests/integration/test_memo_bound.py`` holds two rings to it.
"""

#: entries per memo table; an entry survives ``MEMO_BOUND // 2`` later
#: insertions.  Read at every put, so a test may patch it.
MEMO_BOUND = 1024

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
    """A memo table of at most :data:`MEMO_BOUND` entries for pure
    functions of immutable keys.

    Used for the shared fan-out decode and crypto memos: in a broadcast
    simulation the same frame bytes arrive at every receiver, so the
    expensive pure computation (CDR decode, MD4, RSA verify) is done
    once and the result shared.  Corrupted frames differ in bytes and
    miss naturally.  Eviction drops the oldest half of the entries when
    a put finds the table full — insertion order is a good enough proxy
    for age in a sliding simulation window, and bulk eviction keeps the
    common-case hit path a single dict lookup.
    """

    __slots__ = ("name", "hits", "misses", "_table")

    def __init__(self, name):
        self.name = name
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
        if len(table) >= MEMO_BOUND:
            for stale in list(table)[: MEMO_BOUND // 2]:
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
