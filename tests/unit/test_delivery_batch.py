"""White-box tests for the batch-signature pipelined delivery protocol.

One :class:`DeliveryProtocol` on processor 0 of a 3-ring, driven by
hand-built *unsigned* tokens and hand-signed
:class:`TokenCertificate` frames, pinning down the authentication
horizon, delivery gating, certificate arbitration, conviction rules,
and payload fragmentation of the batch pipeline.
"""

import random
from collections import deque

import pytest

from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keystore import KeyStore
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.multicast.delivery import DeliveryProtocol
from repro.multicast.detector import ByzantineFaultDetector
from repro.multicast.messages import MessageFragment, RegularMessage, decode_frame
from repro.multicast.token import Token, TokenCertificate
from repro.sim.network import Network, NetworkParams
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler


class BatchHarness:
    """Delivery protocol under test on P0 with batch_signatures on."""

    def __init__(self, members=(0, 1, 2)):
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
        self.config = MulticastConfig(security=SecurityLevel.SIGNATURES, batch_signatures=True)
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
        self.protocol._recent_arus = deque(maxlen=len(members))

    def feed_message(self, sender, seq, payload=b"x", group="g"):
        msg = RegularMessage(sender, 1, seq, group, payload)
        raw = msg.encode()
        self.protocol.on_regular(msg, raw)
        return raw

    def token(self, sender, visit, seq, aru=0, digests=(), signed=False, **kw):
        ordered = sorted(self.protocol.members)
        successor = ordered[(ordered.index(sender) + 1) % len(ordered)]
        token = Token(
            sender_id=sender,
            ring_id=1,
            visit=visit,
            seq=seq,
            aru=aru,
            successor=successor,
            message_digest_list=list(digests),
            **kw
        )
        if signed:
            # A Byzantine holder may still sign a token it equivocates
            # about; batch mode does not *require* the signature.
            token.signature = self.signings[sender].sign(token.signable_bytes())
        return token, token.encode()

    def feed_token(self, sender, visit, seq, aru=0, digests=(), signed=False, **kw):
        token, raw = self.token(sender, visit, seq, aru, digests, signed, **kw)
        self.protocol.on_token(token, raw)
        return token, raw

    def certificate(self, signer, first_visit, raws):
        cert = TokenCertificate(
            signer_id=signer,
            ring_id=1,
            first_visit=first_visit,
            digests=[self.digest_of(raw) for raw in raws],
        )
        cert.signature = self.signings[signer].sign_batch(
            cert.signable_bytes(), len(cert.digests)
        )
        return cert, cert.encode()

    def feed_certificate(self, signer, first_visit, raws):
        cert, raw = self.certificate(signer, first_visit, raws)
        self.protocol.on_certificate(cert, raw)
        return cert, raw

    def digest_of(self, raw):
        return self.keystore.digest_fn(raw)


def test_unsigned_token_accepted_in_batch_mode():
    h = BatchHarness()
    token, _ = h.feed_token(1, visit=1, seq=0)
    assert token.signature == 0
    assert h.protocol._last_accepted is token


def test_delivery_gated_on_authentication_horizon():
    h = BatchHarness()
    raw = h.feed_message(1, 1, b"payload")
    _, traw = h.feed_token(1, visit=1, seq=1, digests=[(1, h.digest_of(raw))])
    # Token ordered the message, but no certificate vouches visit 1 yet.
    assert h.delivered == []
    assert h.protocol._auth_visit == 0
    h.feed_certificate(1, first_visit=1, raws=[traw])
    assert h.protocol._auth_visit == 1
    assert h.delivered == [(1, 1, "g", b"payload")]


def test_certificate_spanning_many_visits_settles_all():
    h = BatchHarness()
    token_raws = []
    for visit in (1, 2, 3):
        holder = 1 if visit % 2 else 2
        seq = visit
        mraw = h.feed_message(holder, seq, b"m%d" % seq)
        _, traw = h.feed_token(
            holder, visit=visit, seq=seq, digests=[(seq, h.digest_of(mraw))]
        )
        token_raws.append(traw)
    assert h.delivered == []
    h.feed_certificate(2, first_visit=1, raws=token_raws)
    assert h.protocol._auth_visit == 3
    assert [p for _, _, _, p in h.delivered] == [b"m1", b"m2", b"m3"]


def test_own_certificate_echo_is_ignored():
    h = BatchHarness()
    _, traw = h.feed_token(1, visit=1, seq=0)
    cert, craw = h.certificate(0, first_visit=1, raws=[traw])
    h.protocol.on_certificate(cert, craw)
    # Our own certificate looped back through recovery must not
    # double-apply (the vouches were applied at issue time — and this
    # harness never issued, so nothing settles).
    assert h.protocol._auth_visit == 0


def test_conflicting_certificates_authenticate_nothing():
    h = BatchHarness()
    _, genuine = h.feed_token(1, visit=1, seq=0)
    _, mutant = h.token(1, visit=1, seq=0, rtr_list=[7])
    h.feed_certificate(1, first_visit=1, raws=[genuine])
    assert h.protocol._auth_visit == 1
    h2 = BatchHarness()
    _, genuine2 = h2.feed_token(1, visit=1, seq=0)
    _, mutant2 = h2.token(1, visit=1, seq=0, rtr_list=[7])
    # Two honest-looking signers vouch different bytes: neither is
    # convicted (either may have honestly stored the mutant), and the
    # visit never settles on conflicting testimony.
    h2.feed_certificate(1, first_visit=1, raws=[genuine2])
    h2.feed_certificate(2, first_visit=1, raws=[mutant2])
    assert h2.protocol._auth_visit == 1  # already settled before conflict
    assert h2.detector.suspects() == set()


def test_signer_equivocating_across_certificates_is_convicted():
    h = BatchHarness()
    _, genuine = h.feed_token(1, visit=1, seq=0)
    _, mutant = h.token(1, visit=1, seq=0, rtr_list=[7])
    h.feed_certificate(2, first_visit=1, raws=[genuine])
    # Same signer later vouches different bytes for the same visit:
    # provable certificate equivocation.
    h.feed_certificate(2, first_visit=1, raws=[mutant])
    assert 2 in h.detector.suspects()
    assert "mutant_token" in h.detector.reasons_for(2)


def test_signed_token_contradicting_own_certificate_convicts_holder():
    h = BatchHarness()
    # P1's *signed* mutant token arrives first and becomes the stored copy.
    _, mutant = h.feed_token(1, visit=1, seq=0, rtr_list=[7], signed=True)
    # P1's own certificate then vouches the genuine bytes for visit 1.
    _, genuine = h.token(1, visit=1, seq=0)
    h.feed_certificate(1, first_visit=1, raws=[genuine])
    assert 1 in h.detector.suspects()
    assert "mutant_token" in h.detector.reasons_for(1)
    # An honest co-signer vouching the same genuine bytes is untouched.
    h.feed_certificate(2, first_visit=1, raws=[genuine])
    assert h.detector.suspects() == {1}


def test_vouched_variant_replaces_contradicted_stored_copy():
    h = BatchHarness()
    raw = h.feed_message(1, 1, b"payload")
    # The mutant copy (bad digest for seq 1) is stored first.
    _, mutant = h.feed_token(1, visit=1, seq=1, digests=[(1, b"?" * 16)])
    # The genuine variant arrives as a rebroadcast (same visit).
    genuine_token, genuine = h.token(
        1, visit=1, seq=1, digests=[(1, h.digest_of(raw))]
    )
    h.protocol.on_token(genuine_token, genuine)
    assert h.delivered == []
    # A certificate vouching the genuine bytes arbitrates: the genuine
    # variant is harvested and the message delivers.
    h.feed_certificate(2, first_visit=1, raws=[genuine])
    assert [p for _, _, _, p in h.delivered] == [b"payload"]


def test_large_payload_fragments_and_reassembles(monkeypatch):
    monkeypatch.setattr(MulticastConfig, "fragment_payload_bytes", 64)
    h = BatchHarness()
    payload = bytes(range(256)) * 2  # 512 bytes -> 8 fragments of 64
    h.protocol.queue_message("g", payload)
    queued = list(h.protocol._send_queue)
    assert len(queued) == 8
    frag_msgs = []
    for seq, (group, chunk, frag, _ctx) in enumerate(queued, start=1):
        frag_id, frag_index, frag_total = frag
        assert frag_total == 8 and frag_index == seq - 1
        msg = MessageFragment(1, 1, seq, group, frag_id, frag_index, frag_total, chunk)
        raw = msg.encode()
        assert isinstance(decode_frame(raw), MessageFragment)
        h.protocol.on_regular(msg, raw)
        frag_msgs.append(raw)
    digests = [(seq, h.digest_of(raw)) for seq, raw in enumerate(frag_msgs, start=1)]
    _, traw = h.feed_token(1, visit=1, seq=8, digests=digests)
    h.feed_certificate(1, first_visit=1, raws=[traw])
    # One reassembled delivery, carrying the final fragment's seq.
    assert h.delivered == [(8, 1, "g", payload)]


def test_backpressure_forces_synchronous_certificate(monkeypatch):
    monkeypatch.setattr(MulticastConfig, "pipeline_depth", 1)
    monkeypatch.setattr(MulticastConfig, "signature_batch_visits", 64)
    h = BatchHarness(members=(0, 1))
    h.protocol.circulating = True
    # P1's token hands the ring to P0 with authentication far behind:
    # visits 1..4 are ordered, none vouched, lag > depth * n = 2.
    raws = []
    for visit in (1, 2, 3):
        _, traw = h.feed_token(1, visit=visit, seq=0)
        raws.append(traw)
    assert h.protocol.stats["certs_signed"] == 0
    h.protocol._originate_token(1)
    assert h.protocol.stats["certs_signed"] == 1
    # Our certificate vouched everything we hold, so the horizon moved.
    assert h.protocol._auth_visit >= 3


# A provisional token that loses certificate arbitration must leave no
# trace in the seq horizon: the next origination's ``_missing_seqs()``
# ranges up to ``_max_seq_seen``, so a made-up seq of 10**12 would have
# it build a set of 10**12 entries.  Both a seq far above the genuine
# one and genuine + 1 (what ``MutantTokenBehaviour`` sends) are covered.


@pytest.mark.parametrize("mutant_seq", [10**12, 1])
def test_a_contradicted_token_drops_its_seq_from_the_horizon(mutant_seq):
    h = BatchHarness()
    _, mutant = h.feed_token(1, visit=1, seq=mutant_seq)
    assert h.protocol._max_seq_seen == mutant_seq
    _, genuine = h.token(1, visit=1, seq=0)
    # The genuine bytes are vouched but not held: our copy is dropped.
    h.feed_certificate(2, first_visit=1, raws=[genuine])
    h.feed_certificate(1, first_visit=1, raws=[genuine])
    assert h.protocol._visits[1].raw is None
    assert h.protocol._max_seq_seen == 0
    assert h.protocol._missing_seqs() == set()


@pytest.mark.parametrize("mutant_seq", [10**12, 1])
def test_a_reharvested_variant_replaces_the_losers_seq(mutant_seq):
    h = BatchHarness()
    h.feed_token(1, visit=1, seq=mutant_seq)
    genuine_token, genuine = h.token(1, visit=1, seq=0)
    h.protocol.on_token(genuine_token, genuine)  # held as a variant
    assert h.protocol._max_seq_seen == mutant_seq
    h.feed_certificate(2, first_visit=1, raws=[genuine])
    assert h.protocol._visits[1].raw == genuine
    assert h.protocol._max_seq_seen == 0
    assert h.protocol._missing_seqs() == set()


def test_the_horizon_keeps_the_highest_seq_still_held():
    h = BatchHarness()
    raw = h.feed_message(1, 1, b"payload")
    _, first = h.feed_token(1, visit=1, seq=1, digests=[(1, h.digest_of(raw))])
    h.feed_token(2, visit=2, seq=10**12)
    _, genuine = h.token(2, visit=2, seq=1)
    h.feed_certificate(1, first_visit=1, raws=[first, genuine])
    assert h.protocol._max_seq_seen == 1  # visit 1's token is still held
    assert [p for _, _, _, p in h.delivered] == [b"payload"]


def test_history_sweep_catches_a_replayed_ancient_certificate():
    """The batch twin of the history sweep: a visit's record goes with
    its raw bytes, and a certificate whose span ends below the window
    (rebroadcast long after) is swept with its record by the next
    token."""
    h = BatchHarness()
    protocol = h.protocol
    raws = {}
    for visit in range(1, 101):
        _, raws[visit] = h.feed_token(1, visit=visit, seq=0)
    assert sorted(protocol._visits) == list(range(36, 101))
    h.feed_token(1, visit=3, seq=0)  # a token missed long ago, rebroadcast
    assert protocol._visits[3].raw == raws[3]
    _, ancient = h.feed_certificate(2, first_visit=2, raws=[raws[2], raws[3]])
    assert sorted(protocol._visits)[:2] == [2, 3]
    assert protocol._visits[2].raw is None
    assert protocol._visits[3].digest == h.digest_of(raws[3])
    assert protocol._visits[3].certs == {(2, 2, 3): ancient}
    assert ancient in protocol.recovery_frames(0)
    h.feed_token(1, visit=101, seq=0)
    assert sorted(protocol._visits) == list(range(37, 102))
    assert all(protocol._visits[visit].raw == raws[visit] for visit in range(37, 101))
    assert ancient not in protocol.recovery_frames(0)
    h.feed_token(1, visit=5000, seq=0)  # a jump: the table is the shorter walk
    assert sorted(protocol._visits) == [5000]
    assert protocol._visits[5000].raw is not None
