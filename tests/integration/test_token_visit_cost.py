"""A token visit costs the host O(1) per receiver: exact counts, no timing.

On a seeded, loss-free six-processor ring every per-visit structure must
stay bounded while hundreds of (mostly idle) visits go by: the token
history holds one window, the seq records empty once everything is
delivered and acknowledged, the progress timers are re-armed in place
instead of littering the scheduler heap with cancelled entries, and no
frame is ever parsed, because ``encode()`` seeded the decode memo with
the originator's own object.  A visit pays only for what it changed: a
ring without batch signatures holds each visit's bytes in a record with
no authentication state, and a token that vouches no message does not
scan delivery.

The same traffic under message loss and corruption takes the general
path — retransmission requests, covering-token resends, corrupted
(unseeded) frames, progress timers that actually fire — and must still
deliver everything, everywhere, in one order.
"""

import pytest

from repro import perf
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.multicast.delivery import _TOKEN_HISTORY, DeliveryProtocol
from repro.sim.faults import FaultPlan, LinkFaults
from tests.support import MulticastWorld

PROCESSORS = 6
MESSAGES = 60

#: what a batch ring's visit record adds to the held bytes
_AUTHENTICATION = ("digest", "seq", "claims", "agreed", "variants", "certs")


def _authentication_fields(evidence):
    return tuple(name for name in _AUTHENTICATION if hasattr(evidence, name))


def _world(security, fault_plan=None, batch=False):
    perf.clear_caches()
    config = MulticastConfig(security=security, batch_signatures=batch)
    world = MulticastWorld(
        num=PROCESSORS, seed=11, config=config, fault_plan=fault_plan
    ).start()
    for i in range(MESSAGES):
        world.scheduler.at(
            0.02 + 0.01 * i,
            world.endpoints[i % PROCESSORS].multicast,
            "g",
            b"payload-%03d" % i,
        )
    return world


def _newest_visit(world):
    return max(
        endpoint.delivery._last_accepted.visit
        for endpoint in world.endpoints.values()
        if endpoint.delivery._last_accepted is not None
    )


def _count_scans(monkeypatch):
    """Count, per accepted token, whether its digest list was empty and
    whether ``_advance_delivery`` was entered while it was accepted."""
    counts = {"empty": 0, "empty scanned": 0, "vouching": 0, "vouching scanned": 0}
    accepting = []
    accept, advance = DeliveryProtocol._accept_token, DeliveryProtocol._advance_delivery

    def counted_accept(protocol, token, raw):
        kind = "vouching" if token.message_digest_list else "empty"
        counts[kind] += 1
        accepting.append(kind)
        try:
            accept(protocol, token, raw)
        finally:
            accepting.pop()

    def counted_advance(protocol):
        if accepting:
            counts[accepting[-1] + " scanned"] += 1
        advance(protocol)

    monkeypatch.setattr(DeliveryProtocol, "_accept_token", counted_accept)
    monkeypatch.setattr(DeliveryProtocol, "_advance_delivery", counted_advance)
    return counts


def test_loss_free_ring_keeps_per_visit_state_constant(monkeypatch):
    scans = _count_scans(monkeypatch)
    world = _world(SecurityLevel.DIGESTS)
    parses_at = {}
    now = 0.0
    while now < 1.0:
        now += 0.01
        world.run(until=now)
        visit = _newest_visit(world)
        for mark in (100, 500):
            if visit >= mark:
                parses_at.setdefault(mark, perf.cache_stats()["multicast.decode"]["misses"])
        assert world.scheduler.cancelled_pending <= PROCESSORS
        for endpoint in world.endpoints.values():
            assert len(endpoint.delivery._visits) <= _TOKEN_HISTORY + 1
            for evidence in endpoint.delivery._visits.values():
                assert _authentication_fields(evidence) == ()

    # The traffic ended at 0.62 s: the ring has long been quiescent.
    assert _newest_visit(world) >= 500
    # Only a token that vouches a message can unlock a delivery: the
    # others (the idle ring's, nearly all) never scan.
    assert scans["empty"] > 500 * (PROCESSORS - 1)
    assert scans["empty scanned"] == 0
    assert scans["vouching scanned"] == scans["vouching"] > 0
    assert parses_at[100] == parses_at[500] == perf.cache_stats()["multicast.decode"]["misses"]
    assert perf.cache_stats()["multicast.decode"]["hits"] > 500 * (PROCESSORS - 1)
    for pid, endpoint in world.endpoints.items():
        delivery = endpoint.delivery
        assert len(world.delivered[pid]) == MESSAGES
        assert not delivery._seqs
    assert len({tuple(world.delivered_payloads(pid)) for pid in world.endpoints}) == 1


def test_loss_free_batch_ring_keeps_one_record_per_visit_in_the_window():
    """On a batch-signature ring each visit's evidence is one record,
    held with the visit's raw bytes; a certificate lives in the record
    of its span's last visit, so every retained one ends in the window."""
    world = _world(SecurityLevel.SIGNATURES, batch=True)
    now = 0.0
    while now < 1.0:
        now += 0.01
        world.run(until=now)
        for endpoint in world.endpoints.values():
            delivery = endpoint.delivery
            records = delivery._visits
            assert len(records) <= _TOKEN_HISTORY + 1
            if delivery._last_accepted is None:
                continue
            window_low = delivery._last_accepted.visit - _TOKEN_HISTORY
            assert min(records, default=window_low) >= window_low
            for visit, evidence in records.items():
                assert _authentication_fields(evidence) == _AUTHENTICATION
                for _signer, _first, last in evidence.certs:
                    assert last == visit

    assert _newest_visit(world) >= 500
    for pid, endpoint in world.endpoints.items():
        delivery = endpoint.delivery
        assert len(world.delivered[pid]) == MESSAGES
        assert sum(len(e.certs) for e in delivery._visits.values()) > 0
        assert not delivery._seqs
    assert len({tuple(world.delivered_payloads(pid)) for pid in world.endpoints}) == 1


@pytest.mark.parametrize(
    "security, faults",
    [
        # Unsigned tokens cannot survive corruption (nothing authenticates
        # them below SIGNATURES), so the DIGESTS ring only loses frames.
        (SecurityLevel.DIGESTS, LinkFaults(loss_prob=0.01)),
        (SecurityLevel.SIGNATURES, LinkFaults(loss_prob=0.01, corrupt_prob=0.01)),
    ],
)
def test_lossy_ring_still_delivers_everything_in_one_order(security, faults):
    world = _world(security, FaultPlan(default=faults))
    world.scheduler.events_by_label = fired = {}
    world.run(until=6.0)
    assert world.network.stats["dropped"] > 20
    assert _newest_visit(world) >= 500
    assert sum(e.delivery.stats["retransmits"] for e in world.endpoints.values()) > 0
    assert fired.get("token.timeout", 0) > 0
    for pid in world.endpoints:
        assert len(world.delivered[pid]) == MESSAGES
    assert len({tuple(world.delivered_payloads(pid)) for pid in world.endpoints}) == 1
