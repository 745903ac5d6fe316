"""White-box unit tests for the message delivery protocol.

These drive one :class:`DeliveryProtocol` instance directly, feeding it
hand-built tokens and messages, so the ordering, retransmission, aru,
idle-parking, and garbage-collection rules are each pinned down in
isolation (the integration suites cover the emergent behaviour).
"""

import random

import pytest

from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keystore import KeyStore
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.multicast.delivery import DeliveryProtocol
from repro.multicast.detector import ByzantineFaultDetector
from repro.multicast.messages import MulticastCodecError, RegularMessage, decode_frame
from repro.multicast.token import Token
from repro.sim.network import Network, NetworkParams
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler


class Harness:
    """One delivery protocol under test on processor 0 of a 3-ring."""

    def __init__(self, security=SecurityLevel.DIGESTS, members=(0, 1, 2)):
        self.scheduler = Scheduler()
        self.network = Network(
            self.scheduler,
            params=NetworkParams(jitter=0.0),
            rng=RngStreams(1).stream("net"),
        )
        self.keystore = KeyStore(random.Random(3), modulus_bits=256)
        costs = CryptoCostModel(modulus_bits=256)
        self.processors = {}
        self.signings = {}
        for pid in members:
            proc = Processor(pid, self.scheduler)
            self.network.add_processor(proc)
            self.processors[pid] = proc
            self.signings[pid] = self.keystore.signing_service(proc, costs)
        self.config = MulticastConfig(security=security)
        self.config.resolve_timeouts(costs, len(members))
        self.delivered = []
        self.detector = ByzantineFaultDetector(0, self.scheduler)
        self.protocol = DeliveryProtocol(
            self.processors[0],
            self.scheduler,
            self.network,
            self.signings[0],
            self.config,
            self.detector,
            lambda sender, seq, group, payload: self.delivered.append(
                (seq, sender, group, payload)
            ),
        )
        self.protocol.active = True
        self.protocol.circulating = False  # drive by hand; no timers
        self.protocol.install_members(members)
        self.protocol.ring_id = 1
        from collections import deque

        self.protocol._recent_arus = deque(maxlen=len(members))

    def message(self, sender, seq, payload=b"x", group="g"):
        msg = RegularMessage(sender, 1, seq, group, payload)
        return msg, msg.encode()

    def feed_message(self, sender, seq, payload=b"x", group="g"):
        msg, raw = self.message(sender, seq, payload, group)
        self.protocol.on_regular(msg, raw)
        return raw

    def token(self, sender, visit, seq, aru=0, digests=(), **kw):
        members = self.protocol.members
        ordered = sorted(members)
        successor = ordered[(ordered.index(sender) + 1) % len(ordered)]
        token = Token(
            sender_id=sender,
            ring_id=1,
            visit=visit,
            seq=seq,
            aru=aru,
            successor=successor,
            message_digest_list=list(digests),
            **kw,
        )
        if self.config.security.signatures_enabled:
            token.signature = self.signings[sender].sign(token.signable_bytes())
        return token, token.encode()

    def feed_token(self, sender, visit, seq, aru=0, digests=(), **kw):
        token, raw = self.token(sender, visit, seq, aru, digests, **kw)
        self.protocol.on_token(token, raw)
        return token, raw

    def digest_of(self, raw):
        return self.keystore.digest_fn(raw)


def test_message_without_covering_token_is_not_delivered():
    h = Harness()
    h.feed_message(1, 1)
    assert h.delivered == []


def test_message_delivered_once_token_brings_digest():
    h = Harness()
    raw = h.feed_message(1, 1, b"payload")
    h.feed_token(1, visit=1, seq=1, digests=[(1, h.digest_of(raw))])
    assert h.delivered == [(1, 1, "g", b"payload")]


def test_out_of_order_messages_delivered_in_seq_order():
    h = Harness()
    raw2 = h.feed_message(1, 2, b"two")
    raw1 = h.feed_message(1, 1, b"one")
    h.feed_token(
        1, visit=1, seq=2, digests=[(1, h.digest_of(raw1)), (2, h.digest_of(raw2))]
    )
    assert [p for _, _, _, p in h.delivered] == [b"one", b"two"]


def test_gap_blocks_delivery_until_filled():
    h = Harness()
    raw1 = h.feed_message(1, 1, b"one")
    raw3 = h.feed_message(1, 3, b"three")
    h.feed_token(
        1, visit=1, seq=3,
        digests=[(1, h.digest_of(raw1)), (2, b"?" * 16), (3, h.digest_of(raw3))],
    )
    assert [p for _, _, _, p in h.delivered] == [b"one"]
    raw2 = h.feed_message(1, 2, b"two")
    # Digest mismatch for seq 2 (token says "?"*16): not delivered.
    assert [p for _, _, _, p in h.delivered] == [b"one"]


def test_corrupt_variant_rejected_good_variant_delivered():
    h = Harness()
    good = h.feed_message(1, 1, b"good")
    h.feed_message(1, 1, b"evil")  # mutant variant, same seq
    h.feed_token(1, visit=1, seq=1, digests=[(1, h.digest_of(good))])
    assert [p for _, _, _, p in h.delivered] == [b"good"]


def test_masqueraded_sender_rejected_at_delivery():
    h = Harness()
    # Message claims sender 2, but the covering token was originated
    # (and its digest vouched for) by holder 1.
    msg, raw = h.message(2, 1, b"forged")
    h.protocol.on_regular(msg, raw)
    h.feed_token(1, visit=1, seq=1, digests=[(1, h.digest_of(raw))])
    assert h.delivered == []


def test_none_level_delivers_without_digests():
    h = Harness(security=SecurityLevel.NONE)
    h.feed_message(1, 1, b"payload")
    assert h.delivered == [(1, 1, "g", b"payload")]


def test_duplicate_message_ignored():
    h = Harness(security=SecurityLevel.NONE)
    h.feed_message(1, 1)
    h.feed_message(1, 1)
    assert len(h.delivered) == 1


def test_absurd_seq_is_rejected():
    h = Harness()
    h.feed_message(1, 2**40)
    assert 2**40 not in h.protocol._seqs
    assert h.protocol._max_seq_seen == 0


def test_token_extends_seq_horizon():
    h = Harness()
    h.feed_token(1, visit=1, seq=50)
    assert h.protocol._max_seq_seen == 50


def test_stale_ring_token_ignored():
    h = Harness()
    token, raw = h.token(1, visit=1, seq=5)
    token.ring_id = 9
    h.protocol.on_token(token, raw)
    assert h.protocol._last_accepted is None


def test_malformed_token_suspected():
    h = Harness(security=SecurityLevel.SIGNATURES)
    token, _ = h.token(1, visit=1, seq=5)
    token.aru = 10  # aru > seq: malformed
    token.signature = h.signings[1].sign(token.signable_bytes())
    h.protocol.on_token(token, token.encode())
    assert "malformed_token" in h.detector.reasons_for(1)


@pytest.mark.parametrize("security", [SecurityLevel.DIGESTS, SecurityLevel.NONE])
def test_an_unsigned_malformed_token_is_dropped_not_evidence(security):
    """Below SIGNATURES nothing authenticates a token, so one flipped
    ``aru`` bit or a masquerader must not make its claimed sender a
    ``malformed_token`` suspect — a provable reason, excluded for good."""
    h = Harness(security=security)
    _token, raw = h.token(1, visit=1, seq=5, aru=9)  # aru > seq: malformed
    h.protocol.on_token(decode_frame(raw), raw)
    assert h.protocol._last_accepted is None
    assert h.protocol._max_seq_seen == 0
    assert h.detector.reasons_for(1) == set()


def test_bad_signature_dropped_silently():
    h = Harness(security=SecurityLevel.SIGNATURES)
    token, _ = h.token(1, visit=1, seq=0)
    token.signature = 12345  # forged
    h.protocol.on_token(token, token.encode())
    assert h.protocol._last_accepted is None
    assert h.detector.suspects() == set()


def test_mutant_tokens_convict_sender():
    h = Harness(security=SecurityLevel.SIGNATURES)
    h.feed_token(1, visit=1, seq=0)
    mutant, raw = h.token(1, visit=1, seq=1)  # same visit, different seq
    h.protocol.on_token(mutant, raw)
    assert "mutant_token" in h.detector.reasons_for(1)


@pytest.mark.parametrize("security", [SecurityLevel.SIGNATURES, SecurityLevel.DIGESTS])
def test_a_flipped_padding_bit_never_reaches_the_mutant_check(security):
    """A token whose CDR padding was flipped in transit re-encodes to the
    holder's signed fields: accepted as a frame it would verify, differ
    from the stored copy of its visit, and convict an honest holder of
    ``mutant_token`` (permanent).  It is not a frame."""
    h = Harness(security=security)
    token, raw = h.token(1, visit=1, seq=0)
    h.protocol.on_token(token, raw)
    for index in (1, 2, 3):  # the padding after the frame-type octet
        bad = bytearray(raw)
        bad[index] ^= 1
        with pytest.raises(MulticastCodecError, match="non-canonical"):
            h.protocol.on_token(decode_frame(bytes(bad)), bytes(bad))
    assert h.detector.suspects() == set()


def test_retransmitted_identical_token_is_benign():
    h = Harness(security=SecurityLevel.SIGNATURES)
    token, raw = h.feed_token(1, visit=1, seq=0)
    h.protocol.on_token(token, raw)  # exact retransmission
    assert h.detector.suspects() == set()


def test_historical_token_absorbed_without_moving_chain_head():
    h = Harness()
    h.feed_token(1, visit=5, seq=0)
    head = h.protocol._last_accepted
    raw1 = h.feed_message(1, 1, b"late")
    h.feed_token(1, visit=3, seq=1, digests=[(1, h.digest_of(raw1))])
    assert h.protocol._last_accepted is head  # chain head unchanged
    assert [p for _, _, _, p in h.delivered] == [b"late"]  # digest recovered


def test_originate_sends_queued_messages_up_to_j():
    h = Harness(security=SecurityLevel.NONE)
    h.protocol.circulating = True
    h.protocol.start_ring((0, 1, 2), 1, 0)
    for i in range(10):
        h.protocol.queue_message("g", b"q%d" % i)
    h.scheduler.run(until=0.1)
    # j = 6 messages maximum in the first visit.
    sent_after_first_visit = h.protocol.stats["sent"]
    assert sent_after_first_visit >= 6
    assert h.protocol.queue_length() <= 4


def test_aru_update_lowers_to_own_coverage():
    h = Harness()
    protocol = h.protocol
    previous, _ = h.token(2, visit=4, seq=10, aru=8)
    protocol._max_seq_seen = 10
    protocol._delivered_up_to = 5
    aru, aru_id = protocol._update_aru(previous)
    assert (aru, aru_id) == (5, 0)


def test_aru_update_raises_own_pin():
    h = Harness()
    protocol = h.protocol
    protocol._delivered_up_to = 9
    protocol._max_seq_seen = 10
    previous, _ = h.token(2, visit=4, seq=10, aru=5, aru_id=0)
    aru, aru_id = protocol._update_aru(previous)
    assert aru == 9
    assert aru_id == 0  # still below seq: we keep the pin


def test_aru_update_respects_other_pin():
    h = Harness()
    protocol = h.protocol
    protocol._delivered_up_to = 10
    protocol._max_seq_seen = 10
    previous, _ = h.token(2, visit=4, seq=10, aru=3, aru_id=1)
    aru, aru_id = protocol._update_aru(previous)
    assert (aru, aru_id) == (3, 1)  # P1 pinned it; not ours to raise


def test_gc_waits_for_full_rotation_window():
    h = Harness(security=SecurityLevel.NONE, members=(0, 1, 2))
    protocol = h.protocol
    h.feed_message(1, 1)
    assert 1 in protocol._seqs
    # Fewer arus than the window: no collection yet.
    protocol._collect_garbage(5)
    assert 1 in protocol._seqs
    protocol._collect_garbage(5)
    protocol._collect_garbage(5)
    assert 1 not in protocol._seqs  # 3-member window complete


def test_gc_uses_minimum_of_window():
    h = Harness(security=SecurityLevel.NONE)
    protocol = h.protocol
    h.feed_message(1, 1)
    protocol._collect_garbage(5)
    protocol._collect_garbage(0)  # someone still lacks everything
    protocol._collect_garbage(5)
    assert 1 in protocol._seqs  # min of window is 0


def test_history_sweep_catches_a_replayed_ancient_token():
    """Pruning pops the visit that fell out of the window — and a visit
    replayed *below* the window is still gone after the next token."""
    h = Harness()
    history = h.protocol._visits
    for visit in range(1, 101):
        h.feed_token(1, visit=visit, seq=0)
    assert sorted(history) == list(range(36, 101))
    h.feed_token(2, visit=3, seq=0)  # a token missed long ago, rebroadcast
    assert 3 in history
    h.feed_token(1, visit=101, seq=0)
    assert sorted(history) == list(range(37, 102))
    h.feed_token(1, visit=5000, seq=0)  # a jump: the table is the shorter walk
    assert sorted(history) == [5000]


def test_garbage_sweep_catches_digests_replayed_below_the_bound():
    h = Harness()
    protocol = h.protocol
    raws = [h.feed_message(1, seq, b"m%d" % seq) for seq in (1, 2, 3)]
    digests = [(seq, h.digest_of(raw)) for seq, raw in zip((1, 2, 3), raws)]
    h.feed_token(1, visit=1, seq=3, aru=3, digests=digests)
    assert len(h.delivered) == 3
    h.feed_token(2, visit=2, seq=3, aru=3)
    assert protocol._seqs  # no full rotation of arus seen yet
    h.feed_token(0, visit=3, seq=3, aru=3)
    assert not protocol._seqs
    # The covering token is replayed after its digests were collected
    # (visit 1 was dropped from the history to make it a stranger).
    del protocol._visits[1]
    h.feed_token(1, visit=1, seq=3, aru=3, digests=digests)
    vouches = {seq: (r.digest, r.visit) for seq, r in protocol._seqs.items()}
    assert vouches == {seq: (digest, 1) for seq, digest in digests}
    h.feed_token(1, visit=4, seq=3, aru=3)
    assert not protocol._seqs


def test_missing_seqs_include_digestless_messages():
    h = Harness()
    raw = h.feed_message(1, 1)
    h.protocol._max_seq_seen = 2
    missing = h.protocol._missing_seqs()
    assert missing == {1, 2}  # 1 lacks its digest, 2 lacks bytes


def _originated(protocol):
    """The seqs whose send-queue entry this processor still holds."""
    return [seq for seq, r in protocol._seqs.items() if r.originated is not None]


@pytest.mark.parametrize("above_the_cut", [1, 0])
def test_an_installation_resends_a_straddling_fragmented_payload_whole(above_the_cut):
    """Chunk 0 delivered below the cut, then ``above_the_cut`` chunks
    sequenced above it, the rest still queued: every member drops its
    partial reassembly at the install, so the originator queues all
    three again, in index order, and the payload is handed up once."""
    h = Harness(security=SecurityLevel.NONE)
    protocol = h.protocol
    protocol.config.fragment_payload_bytes = 64
    protocol.config.max_messages_per_token_visit = 1
    payload = bytes(range(64)) * 3
    protocol.queue_message("g", payload)
    protocol._send_new_messages()  # chunk 0 as seq 1
    protocol._advance_delivery()
    protocol.freeze_delivery()  # a reconfiguration starts: the cut is 1
    for _ in range(above_the_cut):
        protocol._send_new_messages()  # chunk 1 as seq 2
    assert h.delivered == [] and len(_originated(protocol)) == above_the_cut

    protocol.start_ring((0, 1, 2), ring_id=2, start_seq=1)
    queued = list(protocol._send_queue)
    assert [entry[1] for entry in queued] == [payload[i : i + 64] for i in (0, 64, 128)]
    assert [entry[2][1:] for entry in queued] == [(0, 3), (1, 3), (2, 3)]
    protocol.config.max_messages_per_token_visit = 6
    protocol._send_new_messages()
    protocol._advance_delivery()
    assert h.delivered == [(4, 0, "g", payload)]
    assert not _originated(protocol) and not protocol._send_queue


def test_a_rejoining_processor_resends_nothing_it_sequenced_before():
    h = Harness(security=SecurityLevel.NONE)
    protocol = h.protocol
    protocol.queue_message("g", b"sequenced before the exclusion")
    protocol._send_new_messages()
    protocol.drop_originated()
    protocol.start_ring((0, 1, 2), ring_id=5, start_seq=0)
    assert not protocol._send_queue
