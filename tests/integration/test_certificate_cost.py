"""A signed frame's signable bytes are encoded once per LAN: exact counts, no timing.

``encode()`` seals a token or certificate with the signable bytes it
just wrote, and the decode memo hands every receiver of an uncorrupted
broadcast the originator's own object.  So on a seeded, loss-free ring
the CDR encoder runs over a certificate's ~1.3 KB of vouched digests
once — at the issuer, which signs what it then frames — and over a
per-visit-signed token once, however many processors verify it.

A copy corrupted in transit is other bytes: it misses the memo, is
parsed into an object of the receiver's own that carries no seal, and
is re-encoded to be checked exactly as before; the signature fails, the
copy is dropped and retransmission repairs the loss.
"""

import pytest

from repro import perf
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.multicast.token import Token, TokenCertificate
from repro.sim.faults import FaultPlan, LinkFaults
from tests.support import MulticastWorld

PROCESSORS = 6
MESSAGES = 60


def _world(batch, fault_plan=None):
    perf.clear_caches()
    config = MulticastConfig(security=SecurityLevel.SIGNATURES, batch_signatures=batch)
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


@pytest.fixture
def encodings(monkeypatch):
    """How often each signed frame kind's fields went through the encoder."""
    calls = {Token: 0, TokenCertificate: 0}

    def counted(kind):
        real = kind.signable_bytes

        def signable_bytes(self):
            calls[kind] += 1
            return real(self)

        monkeypatch.setattr(kind, "signable_bytes", signable_bytes)

    counted(Token)
    counted(TokenCertificate)
    return calls


def _total(world, layer, key):
    return sum(getattr(e, layer).stats[key] for e in world.endpoints.values())


def _assert_everything_delivered_in_one_order(world):
    for pid in world.endpoints:
        assert len(world.delivered[pid]) == MESSAGES
    assert len({tuple(world.delivered_payloads(pid)) for pid in world.endpoints}) == 1


def test_a_certificate_is_encoded_once_at_its_issuer_and_never_by_a_receiver(encodings):
    world = _world(batch=True).run(until=1.5)
    issued = _total(world, "delivery", "certs_signed")
    verified = _total(world, "delivery", "certs_verified")
    assert issued > 20
    # loss-free: everyone verified each one (the newest may be in flight)
    assert (issued - 1) * (PROCESSORS - 1) <= verified <= issued * (PROCESSORS - 1)
    # One encoding per certificate, all of them the issuers': signing
    # needs the bytes, so nothing is left over for any receiver.
    assert encodings[TokenCertificate] == issued
    # Batch mode circulates tokens unsigned; one encoding per origination.
    assert encodings[Token] == _total(world, "delivery", "token_rotations")
    _assert_everything_delivered_in_one_order(world)


def test_a_signed_token_is_encoded_once_however_many_verify_it(encodings):
    world = _world(batch=False).run(until=1.5)
    signed = _total(world, "delivery", "tokens_signed")
    assert signed > 100
    assert _total(world, "signing", "verify_ops") >= (signed - 1) * (PROCESSORS - 1)
    assert encodings[Token] == signed == _total(world, "delivery", "token_rotations")
    assert encodings[TokenCertificate] == 0
    _assert_everything_delivered_in_one_order(world)


def test_a_corrupted_signed_token_is_still_re_encoded_rejected_and_repaired(encodings):
    plan = FaultPlan(default=LinkFaults(loss_prob=0.01, corrupt_prob=0.03))
    world = _world(batch=False, fault_plan=plan).run(until=6.0)
    assert world.network.stats["corrupted"] > 20
    # Receivers of corrupted-but-parseable copies hold unsealed objects
    # of their own and pay the encoder to find the signature bad.
    assert encodings[Token] > _total(world, "delivery", "tokens_signed") > 0
    assert _total(world, "delivery", "retransmits") > 0
    _assert_everything_delivered_in_one_order(world)
    for endpoint in world.endpoints.values():
        assert endpoint.members == tuple(range(PROCESSORS))


def test_a_corrupted_certificate_is_still_re_encoded_rejected_and_repaired(encodings):
    """Every second certificate reaches one receiver with a bit of its
    first vouched digest flipped.  (Link corruption at large is not for
    a batch ring: its tokens circulate unsigned, ROADMAP item 2.)"""
    world = _world(batch=True)
    network, broadcast = world.network, world.network.broadcast
    seen = {"certificates": 0, "corrupted": 0}

    def corrupting_broadcast(src_id, dst_port, payload):
        if payload[0] == TokenCertificate.frame_type:
            seen["certificates"] += 1
            if seen["certificates"] % 2 == 0:
                seen["corrupted"] += 1
                bad = bytearray(payload)
                bad[40] ^= 0x01
                victim = (src_id + 1) % PROCESSORS
                for pid in world.endpoints:
                    if pid != src_id:
                        network.unicast(
                            src_id, pid, dst_port, bytes(bad) if pid == victim else payload
                        )
                return
        broadcast(src_id, dst_port, payload)

    network.broadcast = corrupting_broadcast
    world.run(until=1.5)
    issued = _total(world, "delivery", "certs_signed")
    assert issued > 20 and seen["corrupted"] >= issued // 2
    # One encoding by each issuer, two by each victim: ``decode_frame``
    # re-encodes what it parsed to see that the bytes are canonical, and
    # the parsed copy carries no seal, so its signature is checked — and
    # fails — over bytes recomputed from the fields ...
    assert encodings[TokenCertificate] == issued + 2 * seen["corrupted"]
    assert _total(world, "delivery", "certs_verified") < issued * (PROCESSORS - 1)
    # ... and the next certificate from any holder re-vouches the span.
    _assert_everything_delivered_in_one_order(world)
    for endpoint in world.endpoints.values():
        assert endpoint.detector.suspects() == set()
