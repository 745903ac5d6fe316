"""The memo budget holds a broadcast's fan-out, proved by counts.

Every ``repro.perf`` table holds entries charged at most
``perf.MEMO_BOUND × perf.ENTRY_BYTES`` bytes of key between them, and a
put that would overrun that drops the oldest entries down to half of it.
An entry survives later insertions into its table that, with it, are
charged half the budget: 511 small keys, 63 of 4 KiB.  The
sharing the memos exist for is over within a broadcast's fan-out — the
receivers of one frame and the replicas of one invocation ask within a
few dozen insertions of the put — so the budget must cost no hit.  Each
ring below runs twice on one seed: under the budget, and with the bound
patched to ``1 << 20`` so that nothing is ever evicted.  On a
per-visit-signed ring of 4 KiB two-way puts the hits are exactly the
unbounded run's and every hit reads an entry fewer than half the budget
of key bytes old, so traffic that outgrows the budget fails here
instead of silently costing host time.  On a batch ring shaped like the
ladder's fault drill, whose certificates re-vouch token digests up to a
batch old, at least 99.9% of them.  On both rings the unbounded run's
largest table outgrows the budget, which is what makes the comparison
mean something (on the signed ring, so does every table keyed by
4 KiB payloads), and no bounded table does.

The signed ring is also the first shape of the run-length guard: what
the memos and codecs retain does not grow with the payloads carried.
"""

import gc
import random
import tracemalloc
import zlib

import pytest

from repro import perf
from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from tests.support import memo_reuse_distances

STORE_IDL = InterfaceDef(
    "Store",
    [
        OperationDef("put", [ParamDef("data", "octets")], result="ulong"),
        OperationDef("echo", [ParamDef("n", "ulong")], result="ulong"),
    ],
)

UNBOUNDED = 1 << 20


@pytest.fixture(autouse=True)
def _cold():
    """Start cold, and leave no unbounded table behind for later tests."""
    perf.clear_caches()
    yield
    perf.clear_caches()


class Store:
    def put(self, data):
        return zlib.crc32(data)

    def echo(self, n):
        return n


#: 4 KiB puts the signed ring carries: enough that each table keyed by
#: payloads (GIOP frames, IDL arguments) outgrows the budget unbounded
SIGNED_PAYLOADS = 160


def signed_system():
    """Six processors, per-visit RSA."""
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7)
    return ImmuneSystem(6, config=config, trace_kinds=frozenset())


def signed_ring(count=SIGNED_PAYLOADS, immune=None):
    """4 KiB two-way puts at 75/s on ``immune`` (a fresh
    :func:`signed_system` by default)."""
    rng = random.Random(7)
    payloads = [k.to_bytes(4, "big") + rng.randbytes(4092) for k in range(count)]
    return _run(immune or signed_system(), [0, 1, 2], [3, 4, 5], "put", payloads, 75.0)


def batch_ring():
    """Eight processors on the batch-signature pipeline, five-way server,
    three-way client, echoes at 150/s."""
    config = ImmuneConfig(
        case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7, batch_signatures=True
    )
    return _run(ImmuneSystem(8, config=config, trace_kinds=frozenset()),
                [0, 1, 2, 6, 7], [3, 4, 5], "echo", list(range(150)), 150.0)


def _run(immune, servers, clients, op, args, rate):
    server = immune.deploy("store", STORE_IDL, lambda pid: Store(), servers)
    client = immune.deploy_client("driver", clients)
    immune.start()
    stubs = immune.client_stubs(client, STORE_IDL, server)
    replies = []

    def fire(arg):
        for _pid, stub in stubs:
            getattr(stub, op)(arg, reply_to=replies.append)

    for k, arg in enumerate(args):
        immune.scheduler.at(0.05 + k / rate, fire, arg)
    immune.run(until=0.05 + len(args) / rate + 0.5)
    assert len(replies) == len(clients) * len(args)
    return sorted(replies), perf.cache_stats()


def _unbounded(ring, monkeypatch):
    """The ring with nothing ever evicted: its result, memo stats and
    the put→hit distances of its hits."""
    with monkeypatch.context() as patch:
        patch.setattr(perf, "MEMO_BOUND", UNBOUNDED)
        distances = memo_reuse_distances(patch)
        replies, stats = ring()
    return replies, stats, distances


def _hits(stats):
    return {name: table["hits"] for name, table in stats.items()}


BUDGET = perf.MEMO_BOUND * perf.ENTRY_BYTES


def _check_sizes(stats, unbounded_stats):
    assert max(table["bytes"] for table in unbounded_stats.values()) > BUDGET
    assert all(table["bytes"] <= BUDGET for table in stats.values()), stats


def test_a_signed_ring_keeps_every_hit_under_the_bound(monkeypatch):
    replies, unbounded, distances = _unbounded(signed_ring, monkeypatch)
    perf.clear_caches()
    bounded_replies, stats = signed_ring()
    assert bounded_replies == replies
    assert _hits(stats) == _hits(unbounded)
    assert sum(_hits(unbounded).values()) > 0
    # every charge is at least ENTRY_BYTES, so this also holds each hit
    # to fewer than MEMO_BOUND // 2 insertions
    farthest = {name: max(b for _, b in d) for name, d in distances.items()}
    assert all(b < BUDGET // 2 for b in farthest.values()), farthest
    for name in ("giop.decode", "giop.encode", "idl.marshal"):
        assert unbounded[name]["bytes"] > BUDGET, (name, unbounded[name])
    _check_sizes(stats, unbounded)


def test_a_batch_ring_keeps_its_hits_under_the_bound(monkeypatch):
    replies, unbounded, distances = _unbounded(batch_ring, monkeypatch)
    perf.clear_caches()
    bounded_replies, stats = batch_ring()
    assert bounded_replies == replies
    for name, hits in _hits(unbounded).items():
        assert stats[name]["hits"] >= 0.999 * hits, (name, stats[name], hits)
    # Reported, not gated: the ladder drill's certificate digests reach
    # 606 insertions (315 KiB of key) and lose 77 of 909 923 hits.
    print("largest put->hit distance per table (insertions, key bytes):",
          {name: (max(n for n, _ in d), max(b for _, b in d))
           for name, d in sorted(distances.items())})
    _check_sizes(stats, unbounded)


#: how far the retained heap of the memos and codecs may move between
#: the signed ring at N and at 2N payloads.  Bounded, each table swings
#: between half its budget and all of it; unbounded, N more payloads
#: retain about 7 MB more.
RUN_LENGTH_SLACK = 1 << 20

#: where the memo tables' keys and values are allocated
MEMO_SOURCES = (
    "*/repro/orb/*",
    "*/repro/crypto/*",
    "*/repro/core/identifiers.py",
    "*/repro/multicast/messages.py",
)


def _retained(count):
    """Heap bytes allocated under :data:`MEMO_SOURCES` and still live
    at the end of a signed ring of ``count`` payloads."""
    perf.clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        immune = signed_system()
        signed_ring(count, immune)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    sources = [tracemalloc.Filter(True, pattern) for pattern in MEMO_SOURCES]
    return sum(stat.size for stat in snapshot.filter_traces(sources).statistics("filename"))


def test_a_signed_ring_retains_no_more_for_twice_the_payloads():
    """Run-length guard (signed ring): N and 2N payloads leave the same
    heap behind, within :data:`RUN_LENGTH_SLACK`.  With the bound patched
    to ``1 << 20`` the 2N run retains megabytes more, and this fails."""
    short, long = _retained(SIGNED_PAYLOADS), _retained(2 * SIGNED_PAYLOADS)
    assert abs(long - short) <= RUN_LENGTH_SLACK, (short, long)
