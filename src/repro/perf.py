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
every table's budget cut to two small entries, and requiring byte-identical
observability exports.

Each memo registers itself here so that a benchmark can start cold
(:func:`clear_caches`) and report hit rates (:func:`cache_stats`).

**One budget in bytes for every table.**  An entry is charged the total
length of the ``bytes`` in its key, nested tuples included, or
:data:`ENTRY_BYTES`, whichever is larger (:func:`charge`).  A table
holds entries whose charges sum to at most ``MEMO_BOUND × ENTRY_BYTES``
(512 KiB), and a put that would overrun it first drops the oldest
entries until half the budget is held (less, for a key larger than half
the budget; a key larger than the whole budget is held alone).  So an
entry outlives the later insertions into its table whose charges, with
its own, come to half the budget: 511 small keys (a table of small keys
holds 1 024 and drops the oldest 512, as the old entry-count bound
did), 63 keys of 4 KiB, three of 64 KiB.  That is the lifetime
contract, and it is enough for one broadcast's fan-out, which is all
the sharing there is: a receiver asks for what another receiver of the
same frame (or replica of the same invocation) put a moment before.
The largest put→hit distance on the ladder's reference rungs (seed 7,
nothing evicted), in insertions into the same table and in their key
bytes: 13 (7 KiB) on ``ring_oneway_64b``, 29 (43 KiB) on
``ring_signed_twoway_4k``, 606 (315 KiB) on ``ring_fault_drill_obs``,
whose certificates re-vouch token digests up to a batch old (77 of its
909 923 digest hits are lost; 47 were under the entry count).
``wan_mixed_twoway``'s cross-site gateways reuse digests and GIOP
frames after a 50 ms flight, up to 39 285 insertions (19 MiB) later,
and lose 230 of 115 230 digest hits and 126 of 11 730 GIOP decode hits,
as they did under the entry count.  Whatever a table kept past that
was memory the run paid for and no lookup used.
``tests/integration/test_memo_bound.py`` holds two rings to it.
"""

from itertools import islice

#: budget units per memo table: a table holds ``MEMO_BOUND`` small
#: entries, or ``MEMO_BOUND × ENTRY_BYTES`` bytes of keys.  Read at
#: every put, so a test may patch it.
MEMO_BOUND = 1024

#: the least an entry is charged, in bytes (what a small key costs)
ENTRY_BYTES = 512

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
    """Hit/miss/size/bytes snapshot of every named cache, keyed by name."""
    stats = {}
    for cache in _CACHES:
        name = getattr(cache, "name", None)
        if name is not None:
            stats[name] = cache.stats()
    return stats


def charge(key):
    """What holding ``key`` costs its table: the total length of the
    ``bytes`` in it, tuples searched at any depth, at least
    :data:`ENTRY_BYTES`.

    A type dispatch, not a generic walk: it runs at every insertion.
    """
    kind = type(key)
    if kind is bytes:
        size = len(key)
    elif kind is tuple:
        size = _tuple_bytes(key)
    else:
        return ENTRY_BYTES
    return size if size > ENTRY_BYTES else ENTRY_BYTES


def _tuple_bytes(key):
    size = 0
    for part in key:
        kind = type(part)
        if kind is bytes:
            size += len(part)
        elif kind is tuple:
            size += _tuple_bytes(part)
    return size


class BytesKeyedCache:
    """A memo table for pure functions of immutable keys, holding at
    most ``MEMO_BOUND × ENTRY_BYTES`` bytes of :func:`charge`.

    Used for the shared fan-out decode and crypto memos: in a broadcast
    simulation the same frame bytes arrive at every receiver, so the
    expensive pure computation (CDR decode, MD4, RSA verify) is done
    once and the result shared.  Corrupted frames differ in bytes and
    miss naturally.  A put that would overrun the budget first drops the
    oldest entries down to half of it — insertion order is a good enough
    proxy for age in a sliding simulation window, and bulk eviction
    keeps the common-case hit path a single dict lookup.  The charges
    sit in a list parallel to the dict's insertion order.  Every put is
    checked against the budget as if its key were new, as the old
    entry-count bound was; a key the table still holds afterwards keeps
    its place and is not charged again.
    """

    __slots__ = ("name", "hits", "misses", "_held", "_table", "_charges")

    def __init__(self, name):
        self.name = name
        self.hits = 0
        self.misses = 0
        #: bytes charged for the entries held
        self._held = 0
        self._table = {}
        self._charges = []

    def get(self, key, default=None):
        value = self._table.get(key, default)
        if value is default:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value):
        cost = charge(key)
        budget = MEMO_BOUND * ENTRY_BYTES
        if self._held + cost > budget:
            self._evict(min(budget // 2, budget - cost))
        table = self._table
        if key not in table:
            self._charges.append(cost)
            self._held += cost
        table[key] = value
        return value

    def _evict(self, target):
        """Drop the oldest entries until at most ``target`` bytes are held."""
        charges, held, count = self._charges, self._held, 0
        while held > target and count < len(charges):
            held -= charges[count]
            count += 1
        table = self._table
        for stale in list(islice(table, count)):
            del table[stale]
        del charges[:count]
        self._held = held

    def clear(self):
        self._table.clear()
        self._charges.clear()
        self._held = 0
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._table)

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._table),
            "bytes": self._held,
        }
