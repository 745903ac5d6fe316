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

from repro.multicast.messages import (
    FRAME_CERTIFICATE,
    FRAME_TOKEN,
    MulticastCodecError,
    _seeded,
    _SignedFrame,
)
from repro.orb.schema import Schema

#: one ``message_digest_list`` entry: a message's seq and its digest
DIGEST_ENTRY_TAG = ("record", (("seq", "ulonglong"), ("digest", "octets")))

#: hard cap on the visits one certificate may vouch (memory/abuse bound)
MAX_CERT_SPAN = 1024


class _SealedFrame(_SignedFrame):
    """A signed frame that seals itself when encoded.

    ``encode()`` keeps the signable bytes it just wrote, so the
    receivers of an uncorrupted broadcast — who are handed this very
    object by the decode memo and may not change it (``_seeded``) —
    check the signature over those bytes instead of running the CDR
    encoder once each.  A frame parsed off the wire is not sealed;
    :meth:`signable_bytes` stays a pure function of the fields.

    The same contract carries the frame's observability summary: every
    recorder that logs a sealed frame is handed one dict
    (:meth:`sealed_summary`), built when the first of them asks.
    """

    __slots__ = ("_sealed", "_summary")

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


class Token(_SealedFrame):
    """One visit's token."""

    frame_type = FRAME_TOKEN

    #: sentinel for "no processor is currently pinning the aru"
    NO_ARU_ID = 0xFFFFFFFF

    #: the fields in wire order: ``aru_id`` precedes ``successor``
    SCHEMA = Schema(
        ("sender_id", "ulong"),
        ("ring_id", "ulong"),
        ("visit", "ulonglong"),
        ("seq", "ulonglong"),
        ("aru", "ulonglong"),
        ("aru_id", "ulong"),
        ("successor", "ulong"),
        ("rtr_list", ("sequence", "ulonglong")),
        ("rtg_list", ("sequence", "ulonglong")),
        ("message_digest_list", ("sequence", DIGEST_ENTRY_TAG)),
        ("prev_token_digest", "octets"),
        error=MulticastCodecError,
    )
    __slots__ = SCHEMA.names + ("_form_members", "_form_ok")

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

        Verifies invariants any correct holder maintains: the sender
        and successor are ring members, the successor follows the
        sender on the ring, aru never exceeds seq, the aru holder (if
        any) is a member, and the digest list's seqs are in
        non-decreasing order (a repeat passes) with the last at most
        ``seq``.  Whether the list covers exactly the seq range this
        visit added needs the last accepted token: that relative check
        is ROADMAP item 2(a).

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


class TokenCertificate(_SealedFrame):
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

    SCHEMA = Schema(
        ("signer_id", "ulong"),
        ("ring_id", "ulong"),
        ("first_visit", "ulonglong"),
        ("digests", ("sequence", "octets")),
        error=MulticastCodecError,
    )
    __slots__ = SCHEMA.names

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
