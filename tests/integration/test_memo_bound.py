"""The memo bound holds a broadcast's fan-out, proved by counts.

Every ``repro.perf`` table keeps at most ``perf.MEMO_BOUND`` entries and
an entry survives ``MEMO_BOUND // 2`` later insertions into its table.
The sharing the memos exist for is over within a broadcast's fan-out —
the receivers of one frame and the replicas of one invocation ask
within a few dozen insertions of the put — so the bound must cost no
hit.  Each ring below runs twice on one seed: under the bound, and with
it patched to ``1 << 20`` so that nothing is ever evicted.  On a
per-visit-signed ring of 4 KiB two-way puts the hits are exactly the
unbounded run's and every hit reads an entry fewer than
``MEMO_BOUND // 2`` insertions old, so traffic that outgrows the bound
fails here instead of silently costing host time.  On a batch ring
shaped like the ladder's fault drill, whose certificates re-vouch token
digests up to a batch old, at least 99.9% of them.  On both rings the
unbounded run's largest table outgrows the bound, which is what makes
the comparison mean something, and no bounded table does.
"""

import random
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


def signed_ring():
    """Six processors, per-visit RSA, 4 KiB two-way puts at 75/s."""
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7)
    rng = random.Random(7)
    payloads = [k.to_bytes(4, "big") + rng.randbytes(4092) for k in range(60)]
    return _run(ImmuneSystem(6, config=config, trace_kinds=frozenset()),
                [0, 1, 2], [3, 4, 5], "put", payloads, 75.0)


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


def _check_sizes(stats, unbounded_stats):
    assert max(table["size"] for table in unbounded_stats.values()) > perf.MEMO_BOUND
    assert all(table["size"] <= perf.MEMO_BOUND for table in stats.values()), stats


def test_a_signed_ring_keeps_every_hit_under_the_bound(monkeypatch):
    replies, unbounded, distances = _unbounded(signed_ring, monkeypatch)
    perf.clear_caches()
    bounded_replies, stats = signed_ring()
    assert bounded_replies == replies
    assert _hits(stats) == _hits(unbounded)
    assert sum(_hits(unbounded).values()) > 0
    largest = {name: max(d) for name, d in distances.items()}
    assert all(d < perf.MEMO_BOUND // 2 for d in largest.values()), largest
    _check_sizes(stats, unbounded)


def test_a_batch_ring_keeps_its_hits_under_the_bound(monkeypatch):
    replies, unbounded, distances = _unbounded(batch_ring, monkeypatch)
    perf.clear_caches()
    bounded_replies, stats = batch_ring()
    assert bounded_replies == replies
    for name, hits in _hits(unbounded).items():
        assert stats[name]["hits"] >= 0.999 * hits, (name, stats[name], hits)
    # Reported, not gated: the ladder drill's certificate digests reach
    # 606 insertions and lose 52 hits of 909 431 to the bound.
    print("largest put->hit distance per table:",
          {name: max(d) for name, d in sorted(distances.items())})
    _check_sizes(stats, unbounded)
