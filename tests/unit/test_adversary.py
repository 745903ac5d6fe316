"""Unit tests for the Byzantine behaviour injectors (mechanics only).

The end-to-end effects are covered by the integration suites; these
tests verify the injectors themselves: activation times, one-shot
semantics, restoration, and that each produces exactly the artefact it
claims to.
"""

from repro.multicast.adversary import (
    ByzantineBehaviour,
    CrashBehaviour,
    MalformedTokenBehaviour,
    MasqueradeBehaviour,
    MutantTokenBehaviour,
    ReceiveOmissionBehaviour,
    SilentBehaviour,
    TokenRewriteBehaviour,
    rewrite,
)
from repro.multicast.config import SecurityLevel
from repro.multicast.messages import decode_frame, RegularMessage
from repro.multicast.token import Token
from tests.support import MulticastWorld


def test_crash_behaviour_crashes_at_time():
    world = MulticastWorld(num=3, seed=50)
    CrashBehaviour(at_time=0.5).compromise(world.endpoints[2])
    world.start().run(until=1.0)
    assert world.processors[2].crashed
    assert world.processors[2].crash_time == 0.5


def test_silent_behaviour_counts_swallowed_tokens():
    world = MulticastWorld(num=3, seed=51)
    behaviour = SilentBehaviour(at_time=0.1).compromise(world.endpoints[0])
    world.start().run(until=0.5)
    assert behaviour.activations >= 1


def test_receive_omission_blocks_only_regular_messages():
    world = MulticastWorld(num=3, seed=52)
    behaviour = ReceiveOmissionBehaviour(at_time=0.0).compromise(world.endpoints[1])
    world.start()
    world.endpoints[0].multicast("g", b"dropped-at-1")
    world.run(until=1.0)
    assert behaviour.activations >= 1
    assert world.delivered_payloads(1) == []
    assert world.delivered_payloads(2) == [b"dropped-at-1"]
    # Tokens still flow through it: it keeps accepting token visits.
    assert world.endpoints[1].delivery.stats["token_visits"] > 0


class WireTap:
    """A pass-through stage that records every datagram its processor
    receives: what is on the wire, after the sender's edge."""

    def __init__(self, seen):
        self.seen = seen

    def outbound(self, port, payload, dst):
        return [(payload, dst)]

    def inbound(self, datagram):
        self.seen.append(datagram)
        return datagram


def tap_wire(world, *compromised):
    """Record on every processor but the ``compromised`` ones."""
    seen = []
    for pid, processor in world.processors.items():
        if pid not in compromised:
            processor.stage = WireTap(seen)
    return seen


def frames_from(seen, src, kind):
    """``(receiver, frame, raw)`` for every ``kind`` frame ``src`` put on
    the wire."""
    out = []
    for datagram in seen:
        if datagram.src == src:
            frame = decode_frame(datagram.payload)
            if isinstance(frame, kind):
                out.append((datagram.dst, frame, datagram.payload))
    return out


def token_variants(seen, src):
    """Visits for which ``src`` put more than one token on the wire."""
    frames = {}
    for _dst, token, raw in frames_from(seen, src, Token):
        frames.setdefault((token.ring_id, token.visit), set()).add(raw)
    return [v for v in frames.values() if len(v) > 1]


def test_mutant_behaviour_sends_two_valid_signed_variants():
    world = MulticastWorld(num=4, seed=53)
    seen = tap_wire(world, 0)
    behaviour = MutantTokenBehaviour(at_time=0.05).compromise(world.endpoints[0])
    world.start().run(until=0.5)
    behaviour.restore()
    assert behaviour.activations == 1
    variants = token_variants(seen, 0)
    assert variants, "the behaviour must have sent two token variants"
    # Both variants carry valid signatures from the compromised holder.
    signing = world.endpoints[1].signing
    for raw in variants[0]:
        token = decode_frame(raw)
        assert signing.verify(token.sender_id, token.signable_bytes(), token.signature)
    # Unicast: the original to P1, the mutant (seq + 1) to P2 and P3.
    receivers = {}
    for dst, token, raw in frames_from(seen, 0, Token):
        if raw in variants[0] and dst is not None:
            receivers.setdefault(token.seq, set()).add(dst)
    low = min(receivers)
    assert receivers == {low: {1}, low + 1: {2, 3}}


def test_mutant_behaviour_restore_untaps_network():
    world = MulticastWorld(num=3, seed=54)
    seen = tap_wire(world, 0)
    behaviour = MutantTokenBehaviour().compromise(world.endpoints[0])
    assert world.processors[0].stage is not None
    behaviour.restore()
    assert world.processors[0].stage is None
    world.start().run(until=0.5)
    assert behaviour.activations == 0
    assert frames_from(seen, 0, Token), "P0 still forwards the token"
    assert token_variants(seen, 0) == []


def test_restoring_one_mutant_leaves_another_equivocating():
    """Each behaviour is a rule on its own processor's edge: taking one
    off leaves another processor's rule in place."""
    world = MulticastWorld(num=4, seed=57)
    first = MutantTokenBehaviour(at_time=0.2).compromise(world.endpoints[0])
    second = MutantTokenBehaviour(at_time=0.2).compromise(world.endpoints[1])
    first.restore()
    world.start().run(until=3.0)
    assert first.activations == 0
    assert second.activations == 1
    for pid in (0, 2, 3):
        assert "mutant_token" not in world.endpoints[pid].detector.reasons_for(0)
    assert any(
        "mutant_token" in world.endpoints[pid].detector.reasons_for(1) for pid in (0, 2, 3)
    )


def test_masquerade_injects_forged_sender_id():
    world = MulticastWorld(num=3, seed=55)
    seen = tap_wire(world, 2)
    MasqueradeBehaviour(victim_id=1, dest_group="g", payload=b"FORGED", at_time=0.2).compromise(
        world.endpoints[2]
    )
    world.start().run(until=0.5)
    forged = [
        (message.sender_id, dst)
        for dst, message, _raw in frames_from(seen, 2, RegularMessage)
        if message.payload == b"FORGED"
    ]
    # One broadcast by P2 claiming P1, received by both others.
    assert forged == [(1, None), (1, None)]


def test_malformed_token_behaviour_emits_ill_formed_token():
    world = MulticastWorld(num=3, seed=56)
    seen = tap_wire(world, 2)
    MalformedTokenBehaviour(at_time=0.2).compromise(world.endpoints[2])
    world.start().run(until=0.5)
    # The behaviour's token is flagged; later tokens of the post-
    # exclusion ring (0, 1) also fail the three-member form check, so
    # only assert that the injected one is present.
    bogus = [
        token for _dst, token, _raw in frames_from(seen, 2, Token)
        if not token.well_formed((0, 1, 2))
    ]
    assert any(t.sender_id == 2 and t.aru > t.seq for t in bogus)


def test_an_aru_rewrite_convicts_its_sender_on_a_signed_ring():
    """A new Table 1 behaviour is data: one rewritten field.  The token
    it sends claims ``aru = seq + 1``, signed with the sender's own key,
    so the token-form check convicts the sender."""
    world = MulticastWorld(num=4, seed=58)
    behaviour = TokenRewriteBehaviour((("aru", "seq", 1),), at_time=0.3)
    behaviour.compromise(world.endpoints[2])
    world.start().run(until=4.0)
    assert behaviour.activations == 1
    for pid in (0, 1, 3):
        assert "malformed_token" in world.endpoints[pid].detector.reasons_for(2)
        assert 2 not in world.endpoints[pid].members


def test_an_inbound_rewrite_is_what_the_processor_receives():
    """A rule that rewrites what arrives hands the endpoint the
    rewritten frame, encoded afresh."""
    world = MulticastWorld(num=3, security=SecurityLevel.NONE, seed=59)

    class Shout(ByzantineBehaviour):
        def inbound(self, frame):
            if isinstance(frame, RegularMessage):
                return rewrite(frame, payload=frame.payload.upper())
            return frame

    Shout().compromise(world.endpoints[1])
    world.start()
    world.endpoints[0].multicast("g", b"quiet")
    world.run(until=1.0)
    assert world.delivered_payloads(1) == [b"QUIET"]
    assert world.delivered_payloads(2) == [b"quiet"]
