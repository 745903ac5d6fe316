"""The token of the message delivery protocol.

A logical ring is imposed on the processor membership, and a token
controls multicasting: only the token holder originates regular
messages.  The token fields follow Table 3 of the paper exactly:

=====================  ==============================================
field                  copes with
=====================  ==============================================
sender_id, ring_id,    message loss, receive omission, crash
seq, aru, rtr_list
message_digest_list    message corruption
signature,             malicious processors (masquerade, mutant
prev_token_digest,     tokens, improperly formed tokens)
rtg_list
=====================  ==============================================

``visit`` numbers successive token visits so that two *different*
tokens claiming the same position (mutant tokens) can be recognised by
any receiver, and ``successor`` names the processor entitled to
originate the next token.  The signature covers every field except
itself; ``prev_token_digest`` chains each token to its predecessor so
that a malicious holder cannot rewrite history it did not create.
"""

from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.multicast.messages import (
    FRAME_CERTIFICATE,
    FRAME_TOKEN,
    _int_to_octets,
    _octets_to_int,
    _seeded,
)

DIGEST_ENTRY_TAG = ("struct", (("seq", "ulonglong"), ("digest", "octets")))

#: hard cap on the visits one certificate may vouch (memory/abuse bound)
MAX_CERT_SPAN = 1024


class _SignedFrame:
    """The framing tokens and certificates share, and its seal.

    On the wire a signed frame is its type octet, the signable bytes
    and the signature.  ``encode()`` *seals* the frame: it keeps the
    signable bytes it just wrote, so the receivers of an uncorrupted
    broadcast — who are handed this very object by the decode memo and
    may not change it (``_seeded``) — check the signature over those
    bytes instead of running the CDR encoder once each.  A frame parsed
    off the wire is not sealed; :meth:`signable_bytes` stays a pure
    function of the fields.

    The same contract carries the frame's observability summary: every
    recorder that logs a sealed frame is handed one dict
    (:meth:`sealed_summary`), built when the first of them asks.
    """

    __slots__ = ("_sealed", "_summary")

    def _encode(self, signable=None):
        """The wire bytes; seals nothing and seeds no memo."""
        encoder = CdrEncoder()
        encoder.write_octet(self.frame_type)
        encoder.write_octets(self.signable_bytes() if signable is None else signable)
        encoder.write_octets(_int_to_octets(self.signature))
        return encoder.getvalue()

    def _seal(self, signable):
        """Frame ``signable``, the encoding of the fields as they are now."""
        self._sealed = signable
        self._summary = None
        return _seeded(self._encode(signable), self)

    def encode(self):
        return self._seal(self.signable_bytes())

    def encode_signed(self, sign):
        """Set the signature and encode, over one encoding of the fields.

        ``sign`` maps the signable bytes to the signature.
        """
        signable = self.signable_bytes()
        self.signature = sign(signable)
        return self._seal(signable)

    def sealed_bytes(self):
        """What the signature is checked over: the signable bytes
        ``encode()`` wrote, recomputed for a frame that was parsed."""
        sealed = self._sealed
        return self.signable_bytes() if sealed is None else sealed

    def sealed_summary(self):
        """:meth:`forensic_summary` for the observability sinks, which
        keep what they are given: one shared, read-only dict per sealed
        frame, a dict of the caller's own for a frame that was parsed."""
        summary = self._summary
        if summary is None:
            summary = self.forensic_summary()
            if self._sealed is not None:
                self._summary = summary
        return summary


class Token(_SignedFrame):
    """One visit's token."""

    frame_type = FRAME_TOKEN

    #: sentinel for "no processor is currently pinning the aru"
    NO_ARU_ID = 0xFFFFFFFF

    __slots__ = (
        "sender_id",
        "ring_id",
        "visit",
        "seq",
        "aru",
        "aru_id",
        "successor",
        "rtr_list",
        "rtg_list",
        "message_digest_list",
        "prev_token_digest",
        "signature",
        "_form_members",
        "_form_ok",
    )

    def __init__(
        self,
        sender_id,
        ring_id,
        visit,
        seq,
        aru,
        successor,
        aru_id=NO_ARU_ID,
        rtr_list=(),
        rtg_list=(),
        message_digest_list=(),
        prev_token_digest=b"",
        signature=0,
    ):
        self.sender_id = sender_id
        self.ring_id = ring_id
        self.visit = visit
        self.seq = seq
        self.aru = aru
        #: which processor lowered the aru (Totem's aru_id): lets the
        #: lagging processor raise the aru again once it catches up
        self.aru_id = aru_id
        self.successor = successor
        self.rtr_list = list(rtr_list)
        self.rtg_list = list(rtg_list)
        #: list of (seq, digest) pairs for messages originated this visit
        self.message_digest_list = list(message_digest_list)
        self.prev_token_digest = prev_token_digest
        self.signature = signature
        self._sealed = self._summary = None
        #: the membership :meth:`well_formed` last checked against
        self._form_members = None
        self._form_ok = False

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def signable_bytes(self):
        """All fields except the signature, in canonical order.

        Sequences are emitted with the direct primitive methods
        (length then elements, structs field by field) — byte-identical
        to the generic ``("sequence", ...)`` tags this encoding used to
        be written with, as ``tests/unit/test_token.py`` asserts.
        """
        encoder = CdrEncoder()
        encoder.write_ulong(self.sender_id)
        encoder.write_ulong(self.ring_id)
        encoder.write_ulonglong(self.visit)
        encoder.write_ulonglong(self.seq)
        encoder.write_ulonglong(self.aru)
        encoder.write_ulong(self.aru_id)
        encoder.write_ulong(self.successor)
        encoder.write_ulong(len(self.rtr_list))
        for seq in self.rtr_list:
            encoder.write_ulonglong(seq)
        encoder.write_ulong(len(self.rtg_list))
        for seq in self.rtg_list:
            encoder.write_ulonglong(seq)
        encoder.write_ulong(len(self.message_digest_list))
        for seq, digest in self.message_digest_list:
            encoder.write_ulonglong(seq)
            encoder.write_octets(digest)
        encoder.write_octets(self.prev_token_digest)
        return encoder.getvalue()

    @classmethod
    def decode(cls, decoder):
        signable = decoder.read_octets()
        signature = _octets_to_int(decoder.read_octets())
        inner = CdrDecoder(signable)
        token = cls(
            sender_id=inner.read_ulong(),
            ring_id=inner.read_ulong(),
            visit=inner.read_ulonglong(),
            seq=inner.read_ulonglong(),
            aru=inner.read_ulonglong(),
            aru_id=inner.read_ulong(),
            successor=inner.read_ulong(),
            rtr_list=[inner.read_ulonglong() for _ in range(inner.read_ulong())],
            rtg_list=[inner.read_ulonglong() for _ in range(inner.read_ulong())],
            message_digest_list=[
                (inner.read_ulonglong(), inner.read_octets())
                for _ in range(inner.read_ulong())
            ],
            prev_token_digest=inner.read_octets(),
            signature=signature,
        )
        return token

    # ------------------------------------------------------------------
    # integrity checks
    # ------------------------------------------------------------------

    def digest_for(self, seq):
        """The digest the token carries for message ``seq``, or None."""
        for entry_seq, digest in self.message_digest_list:
            if entry_seq == seq:
                return digest
        return None

    def well_formed(self, ring_members):
        """Structural validity checks (the detector's token-form check).

        Verifies the invariants any correct holder maintains: the
        sender and successor are ring members, the successor follows
        the sender on the ring, aru never exceeds seq, and the digest
        list covers exactly the seq range this visit added.

        Every receiver on a LAN asks this of the one shared decoded
        frame, so the answer is kept with the membership *value* it was
        computed for; a token met again on another ring is re-checked.
        """
        if ring_members == self._form_members:
            return self._form_ok
        self._form_ok = self._check_form(ring_members)
        self._form_members = tuple(ring_members)
        return self._form_ok

    def _check_form(self, ring_members):
        if self.sender_id not in ring_members:
            return False
        if self.successor not in ring_members:
            return False
        ordered = sorted(ring_members)
        expected_successor = ordered[
            (ordered.index(self.sender_id) + 1) % len(ordered)
        ]
        if self.successor != expected_successor:
            return False
        if self.aru > self.seq:
            return False
        if self.aru_id != self.NO_ARU_ID and self.aru_id not in ring_members:
            return False
        digest_seqs = [s for s, _ in self.message_digest_list]
        if digest_seqs != sorted(digest_seqs):
            return False
        if digest_seqs and digest_seqs[-1] > self.seq:
            return False
        return True

    def trace_summary(self):
        """Attribute dict for a causal-trace token node: who held the
        token on this rotation, and which rotation it was."""
        return {
            "holder": self.sender_id,
            "visit": self.visit,
            "token_seq": self.seq,
        }

    def forensic_summary(self):
        """Compact field dict for the forensic flight recorder."""
        return {
            "holder": self.sender_id,
            "visit": self.visit,
            "token_seq": self.seq,
            "aru": self.aru,
            "successor": self.successor,
            "rtr": len(self.rtr_list),
            "digests": len(self.message_digest_list),
            "signed": bool(self.signature),
        }

    def __repr__(self):
        return "Token(P%d, ring=%d, visit=%d, seq=%d, aru=%d, ->P%d)" % (
            self.sender_id,
            self.ring_id,
            self.visit,
            self.seq,
            self.aru,
            self.successor,
        )


class TokenCertificate(_SignedFrame):
    """One RSA signature vouching a contiguous span of token visits.

    The flat batch-signature scheme (after MABS): with
    ``batch_signatures`` enabled, tokens circulate *unsigned* and each
    holder periodically broadcasts a certificate whose single signature
    covers the digests of every token visit in
    ``[first_visit, last_visit]``.  Receivers verify one signature,
    compare the vouched digests against the raw tokens they hold, and
    advance their authentication horizon — so the 3 ms signing cost is
    amortised over many visits and taken off the ring's rotation path,
    while a mutant token is still convicted the moment any verified
    certificate contradicts a validly signed variant.

    Certificates deliberately re-vouch recent history (spans reach back
    up to the token-history window): an idempotent overlap means a
    receiver that lost one certificate is healed by the next one from
    *any* holder.
    """

    frame_type = FRAME_CERTIFICATE

    __slots__ = ("signer_id", "ring_id", "first_visit", "digests", "signature")

    def __init__(self, signer_id, ring_id, first_visit, digests, signature=0):
        self.signer_id = signer_id
        self.ring_id = ring_id
        self.first_visit = first_visit
        #: digest of the raw token frame of each visit, in visit order
        self.digests = list(digests)
        self.signature = signature
        self._sealed = self._summary = None

    @property
    def last_visit(self):
        return self.first_visit + len(self.digests) - 1

    def entries(self):
        """Iterate ``(visit, digest)`` pairs of the vouched span."""
        first = self.first_visit
        for offset, digest in enumerate(self.digests):
            yield first + offset, digest

    def signable_bytes(self):
        encoder = CdrEncoder()
        encoder.write_ulong(self.signer_id)
        encoder.write_ulong(self.ring_id)
        encoder.write_ulonglong(self.first_visit)
        encoder.write_ulong(len(self.digests))
        for digest in self.digests:
            encoder.write_octets(digest)
        return encoder.getvalue()

    @classmethod
    def decode(cls, decoder):
        signable = decoder.read_octets()
        signature = _octets_to_int(decoder.read_octets())
        inner = CdrDecoder(signable)
        return cls(
            signer_id=inner.read_ulong(),
            ring_id=inner.read_ulong(),
            first_visit=inner.read_ulonglong(),
            digests=[inner.read_octets() for _ in range(inner.read_ulong())],
            signature=signature,
        )

    def well_formed(self, ring_members):
        """Structural validity: signer is a member, span sane and bounded."""
        if self.signer_id not in ring_members:
            return False
        if not self.digests or len(self.digests) > MAX_CERT_SPAN:
            return False
        if self.first_visit < 1:
            return False
        return True

    def forensic_summary(self):
        """The span of token visits one batch signature vouches: the
        flight recorder's fields and a causal-trace certificate node's
        attributes alike."""
        return {
            "signer": self.signer_id,
            "first_visit": self.first_visit,
            "last_visit": self.last_visit,
            "count": len(self.digests),
        }

    def __repr__(self):
        return "TokenCertificate(P%d, ring=%d, visits %d..%d)" % (
            self.signer_id,
            self.ring_id,
            self.first_visit,
            self.last_visit,
        )
