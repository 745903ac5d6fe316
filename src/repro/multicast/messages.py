"""Wire formats for the Secure Multicast Protocols.

Three kinds of frames travel on the multicast port:

* regular data messages (:class:`RegularMessage`) carrying an opaque
  payload for a destination object group, stamped with the global
  total-order sequence number assigned by the token holder;
* tokens (:mod:`repro.multicast.token`);
* membership proposals (:class:`MembershipProposal`) exchanged by the
  processor membership protocol.

Every frame starts with a one-byte frame-type discriminator so a
receiver can parse without context.  All bodies are CDR-encoded; the
digest or signature of a frame is always computed over these exact
bytes, so a bit flipped by the network genuinely invalidates it.
"""

import struct

from repro import perf
from repro.orb.cdr import CdrDecoder, CdrEncoder, MarshalError

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

FRAME_REGULAR = 1
FRAME_TOKEN = 2
FRAME_PROPOSAL = 3
FRAME_COMMIT = 4
FRAME_JOIN_REQUEST = 5
FRAME_FRAGMENT = 6
FRAME_CERTIFICATE = 7

#: port on which all multicast protocol frames travel
MULTICAST_PORT = "secure-multicast"


class MulticastCodecError(Exception):
    """Raised when a frame cannot be parsed (corruption, truncation)."""


class RegularMessage:
    """One totally-ordered data message.

    ``seq`` is the ring-wide total-order sequence number the sender
    assigned while holding the token.  ``sender_id`` names the
    originating processor; with signatures enabled its truthfulness is
    enforced by the digest in the *signed* token (a masqueraded message
    never matches a digest the honest token holder signed).
    """

    frame_type = FRAME_REGULAR

    __slots__ = ("sender_id", "ring_id", "seq", "dest_group", "payload")

    def __init__(self, sender_id, ring_id, seq, dest_group, payload):
        self.sender_id = sender_id
        self.ring_id = ring_id
        self.seq = seq
        self.dest_group = dest_group
        self.payload = payload

    #: (sender_id, ring_id, dest_group) -> (prefix, mid) byte templates.
    #: A sender emits thousands of frames differing only in ``seq`` and
    #: ``payload``; the CDR bytes around them (alignment included) are
    #: constant, so the hot encode is two struct packs and a concat.
    _TEMPLATE_CACHE = perf.register_cache(perf.BytesKeyedCache("multicast.encode_template"))

    def encode(self):
        key = (self.sender_id, self.ring_id, self.dest_group)
        template = self._TEMPLATE_CACHE.get(key)
        if template is None:
            template = self._TEMPLATE_CACHE.put(key, self._make_template())
        prefix, mid = template
        return _seeded(
            prefix + _U64.pack(self.seq) + mid + _U32.pack(len(self.payload)) + self.payload,
            self,
        )

    def _encode(self):
        encoder = CdrEncoder()
        encoder.write_octet(FRAME_REGULAR)
        encoder.write_ulong(self.sender_id)
        encoder.write_ulong(self.ring_id)
        encoder.write_ulonglong(self.seq)
        encoder.write_string(self.dest_group)
        encoder.write_octets(self.payload)
        return encoder.getvalue()

    def _make_template(self):
        """Derive (prefix, mid) from two generic probe encodings.

        Two probes differing only in ``seq`` locate the 8-byte seq
        field; the trailing 4 bytes of an empty-payload probe are the
        payload length.  The template is checked against the generic
        encoder once, so a layout change cannot desynchronise them.
        """
        cls = type(self)
        probe = cls(self.sender_id, self.ring_id, 0, self.dest_group, b"")._encode()
        probe_hi = cls(self.sender_id, self.ring_id, 2**64 - 1, self.dest_group, b"")._encode()
        offset = next(i for i in range(len(probe)) if probe[i] != probe_hi[i])
        prefix, mid = probe[:offset], probe[offset + 8 : -4]
        rebuilt = prefix + _U64.pack(12345) + mid + _U32.pack(3) + b"xyz"
        if rebuilt != cls(self.sender_id, self.ring_id, 12345, self.dest_group, b"xyz")._encode():
            raise MulticastCodecError("RegularMessage encode template mismatch")
        return prefix, mid

    @classmethod
    def decode(cls, decoder):
        return cls(
            decoder.read_ulong(),
            decoder.read_ulong(),
            decoder.read_ulonglong(),
            decoder.read_string(),
            decoder.read_octets(),
        )

    def __repr__(self):
        return "RegularMessage(from=P%d, ring=%d, seq=%d, group=%s, %d bytes)" % (
            self.sender_id,
            self.ring_id,
            self.seq,
            self.dest_group,
            len(self.payload),
        )


class MessageFragment:
    """One chunk of a payload too large for a single regular message.

    Large payloads are split at ``fragment_payload_bytes`` boundaries;
    every fragment is an ordinary ordered message — it carries its own
    ring-wide ``seq`` and its digest travels in a token like any other
    message, so corruption of one chunk invalidates exactly that chunk.
    ``(sender_id, frag_id)`` names the reassembly group; ``frag_index``
    of ``frag_total`` positions the chunk.  Total order per sender
    guarantees chunks are delivered in index order, and the reassembled
    payload is handed up with the *last* fragment's sequence number.
    """

    frame_type = FRAME_FRAGMENT

    __slots__ = (
        "sender_id",
        "ring_id",
        "seq",
        "dest_group",
        "frag_id",
        "frag_index",
        "frag_total",
        "payload",
    )

    def __init__(
        self, sender_id, ring_id, seq, dest_group, frag_id, frag_index, frag_total, payload
    ):
        self.sender_id = sender_id
        self.ring_id = ring_id
        self.seq = seq
        self.dest_group = dest_group
        self.frag_id = frag_id
        self.frag_index = frag_index
        self.frag_total = frag_total
        self.payload = payload

    def encode(self):
        return _seeded(self._encode(), self)

    def _encode(self):
        encoder = CdrEncoder()
        encoder.write_octet(FRAME_FRAGMENT)
        encoder.write_ulong(self.sender_id)
        encoder.write_ulong(self.ring_id)
        encoder.write_ulonglong(self.seq)
        encoder.write_string(self.dest_group)
        encoder.write_ulong(self.frag_id)
        encoder.write_ulong(self.frag_index)
        encoder.write_ulong(self.frag_total)
        encoder.write_octets(self.payload)
        return encoder.getvalue()

    @classmethod
    def decode(cls, decoder):
        return cls(
            decoder.read_ulong(),
            decoder.read_ulong(),
            decoder.read_ulonglong(),
            decoder.read_string(),
            decoder.read_ulong(),
            decoder.read_ulong(),
            decoder.read_ulong(),
            decoder.read_octets(),
        )

    def __repr__(self):
        return "MessageFragment(from=P%d, ring=%d, seq=%d, group=%s, %d/%d, %d bytes)" % (
            self.sender_id,
            self.ring_id,
            self.seq,
            self.dest_group,
            self.frag_index + 1,
            self.frag_total,
            len(self.payload),
        )


class MembershipProposal:
    """One signed proposal in a membership round.

    ``candidate_set`` is the membership the proposer is willing to
    install; ``have_contiguous`` reports the highest sequence number
    below which the proposer holds every message of the old ring (used
    by the recovery/flush phase); ``round_number`` distinguishes
    successive shrinking rounds of the same reconfiguration.
    """

    frame_type = FRAME_PROPOSAL

    __slots__ = (
        "proposer",
        "old_ring_id",
        "round_number",
        "candidate_set",
        "have_contiguous",
        "suspects",
        "joining",
        "signature",
    )

    def __init__(
        self,
        proposer,
        old_ring_id,
        round_number,
        candidate_set,
        have_contiguous,
        suspects,
        joining=False,
        signature=0,
    ):
        self.proposer = proposer
        self.old_ring_id = old_ring_id
        self.round_number = round_number
        self.candidate_set = tuple(sorted(candidate_set))
        self.have_contiguous = have_contiguous
        self.suspects = tuple(sorted(suspects))
        #: True when the proposer is (re)joining: it carries no old-ring
        #: delivery obligations, so its coverage is excluded from the cut
        self.joining = joining
        self.signature = signature

    def signable_bytes(self):
        """The bytes covered by the proposal signature."""
        encoder = CdrEncoder()
        encoder.write_ulong(self.proposer)
        encoder.write_ulong(self.old_ring_id)
        encoder.write_ulong(self.round_number)
        encoder.write(("sequence", "ulong"), list(self.candidate_set))
        encoder.write_ulonglong(self.have_contiguous)
        encoder.write(("sequence", "ulong"), list(self.suspects))
        encoder.write_boolean(self.joining)
        return encoder.getvalue()

    def encode(self):
        encoder = CdrEncoder()
        encoder.write_octet(FRAME_PROPOSAL)
        encoder.write_octets(self.signable_bytes())
        encoder.write_octets(_int_to_octets(self.signature))
        return encoder.getvalue()

    _encode = encode  # seeds no memo: already what ``decode_frame`` re-checks against

    @classmethod
    def decode(cls, decoder):
        signable = decoder.read("octets")
        signature = _octets_to_int(decoder.read("octets"))
        inner = CdrDecoder(signable)
        proposal = cls(
            inner.read("ulong"),
            inner.read("ulong"),
            inner.read("ulong"),
            inner.read(("sequence", "ulong")),
            inner.read("ulonglong"),
            inner.read(("sequence", "ulong")),
            joining=inner.read("boolean"),
            signature=signature,
        )
        return proposal

    def __repr__(self):
        return "MembershipProposal(P%d, ring=%d, round=%d, set=%s)" % (
            self.proposer,
            self.old_ring_id,
            self.round_number,
            list(self.candidate_set),
        )


class JoinRequest:
    """A processor asking to (re)join the membership.

    Broadcast periodically by a processor that is not currently a
    member (a repaired machine, or a correct processor that was
    excluded during a transient outage).  Signed so that a Byzantine
    processor cannot inject joins on behalf of others; stamped with the
    requester's clock so stale replays age out.
    """

    frame_type = FRAME_JOIN_REQUEST

    __slots__ = ("proc_id", "request_time", "signature")

    def __init__(self, proc_id, request_time, signature=0):
        self.proc_id = proc_id
        self.request_time = request_time
        self.signature = signature

    def signable_bytes(self):
        encoder = CdrEncoder()
        encoder.write_ulong(self.proc_id)
        encoder.write_double(self.request_time)
        return encoder.getvalue()

    def encode(self):
        encoder = CdrEncoder()
        encoder.write_octet(FRAME_JOIN_REQUEST)
        encoder.write_octets(self.signable_bytes())
        encoder.write_octets(_int_to_octets(self.signature))
        return encoder.getvalue()

    _encode = encode  # seeds no memo: already what ``decode_frame`` re-checks against

    @classmethod
    def decode(cls, decoder):
        signable = decoder.read("octets")
        signature = _octets_to_int(decoder.read("octets"))
        inner = CdrDecoder(signable)
        return cls(inner.read("ulong"), inner.read("double"), signature)

    def __repr__(self):
        return "JoinRequest(P%d @ %.3f)" % (self.proc_id, self.request_time)


class MembershipCommit:
    """A self-certifying bundle of the unanimous proposals of one round.

    Once a member observes unanimity it broadcasts the complete set of
    (signed) proposals as evidence.  Any member — including one whose
    own proposal traffic was lost — can verify the bundle independently
    and install the same membership with the same new ring id, which is
    what keeps installations unique and totally ordered even when
    individual frames are dropped.
    """

    frame_type = FRAME_COMMIT

    __slots__ = ("sender_id", "old_ring_id", "round_number", "proposal_frames")

    def __init__(self, sender_id, old_ring_id, round_number, proposal_frames):
        self.sender_id = sender_id
        self.old_ring_id = old_ring_id
        self.round_number = round_number
        self.proposal_frames = list(proposal_frames)

    def encode(self):
        encoder = CdrEncoder()
        encoder.write_octet(FRAME_COMMIT)
        encoder.write_ulong(self.sender_id)
        encoder.write_ulong(self.old_ring_id)
        encoder.write_ulong(self.round_number)
        encoder.write(("sequence", "octets"), self.proposal_frames)
        return encoder.getvalue()

    _encode = encode  # seeds no memo: already what ``decode_frame`` re-checks against

    @classmethod
    def decode(cls, decoder):
        return cls(
            decoder.read_ulong(),
            decoder.read_ulong(),
            decoder.read_ulong(),
            decoder.read(("sequence", "octets")),
        )

    def proposals(self):
        """Decode the bundled proposals.

        Each must be a full proposal frame in its canonical encoding,
        as :func:`decode_frame` requires of a frame off the wire: the
        bundled bytes are stored and compared as the proposer's, so a
        flipped padding bit must not make an honest proposer look like
        it equivocated.
        """
        out = []
        for frame in self.proposal_frames:
            proposal = decode_frame(frame)
            if not isinstance(proposal, MembershipProposal):
                raise MulticastCodecError("commit bundle contains a non-proposal frame")
            out.append((proposal, frame))
        return out

    def __repr__(self):
        return "MembershipCommit(P%d, ring=%d, round=%d, %d proposals)" % (
            self.sender_id,
            self.old_ring_id,
            self.round_number,
            len(self.proposal_frames),
        )


def _int_to_octets(value):
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def _octets_to_int(data):
    return int.from_bytes(data, "big")


def decode_frame(data):
    """Parse one multicast frame; raises MulticastCodecError on garbage.

    Only the canonical encoding of a frame is a frame.  The parser skips
    CDR padding and whatever follows the last field, while digests and
    the mutant-token comparison are over the raw bytes and signatures
    over the *re-encoding* of the parsed fields: a token with one padding
    bit flipped in transit would verify, differ from the stored copy of
    its visit, and convict its honest holder.  So bytes that do not
    re-encode to themselves are rejected here, as corruption, before any
    protocol layer sees them.  (The check does not seal the frame.)
    """
    frame = _parse_frame(data)
    if frame._encode() != data:
        raise MulticastCodecError("non-canonical %s frame" % type(frame).__name__)
    return frame


def _parse_frame(data):
    from repro.multicast.token import Token, TokenCertificate  # local import to avoid a cycle

    decoder = CdrDecoder(data)
    try:
        frame_type = decoder.read_octet()
        if frame_type == FRAME_REGULAR:
            return RegularMessage.decode(decoder)
        if frame_type == FRAME_TOKEN:
            return Token.decode(decoder)
        if frame_type == FRAME_PROPOSAL:
            return MembershipProposal.decode(decoder)
        if frame_type == FRAME_COMMIT:
            return MembershipCommit.decode(decoder)
        if frame_type == FRAME_JOIN_REQUEST:
            return JoinRequest.decode(decoder)
        if frame_type == FRAME_FRAGMENT:
            return MessageFragment.decode(decoder)
        if frame_type == FRAME_CERTIFICATE:
            return TokenCertificate.decode(decoder)
    except MarshalError as exc:
        raise MulticastCodecError("malformed multicast frame: %s" % exc)
    raise MulticastCodecError("unknown frame type %d" % frame_type)


#: frame bytes -> decoded frame object, shared across the whole LAN:
#: a broadcast hands byte-identical payloads to every receiver, so the
#: CDR parse happens once in wall-clock instead of once per receiver.
#: Corrupted frames differ in bytes and miss the memo naturally.
_FRAME_CACHE = perf.register_cache(perf.BytesKeyedCache("multicast.decode"))


def _seeded(raw, frame):
    """Return ``raw``, the encoding of ``frame``, after seeding the memo.

    The originator of a frame holds the object it encoded, and
    ``decode_frame(x.encode())`` equals ``x`` field by field
    (``tests/properties/test_frame_roundtrip.py``), so the receivers of
    an uncorrupted broadcast need not parse it at all.  Only the hot
    frame kinds seed: regular messages, fragments, tokens and token
    certificates.  A frame must not be changed after it is encoded
    (tokens and certificates rely on it twice: receivers also verify
    over the signable bytes ``encode()`` sealed them with).
    """
    _FRAME_CACHE.put(raw, frame)
    return raw


def decode_frame_shared(data):
    """Memoised :func:`decode_frame` for the uncorrupted fan-out path.

    Decoded frames are treated as immutable by every protocol layer
    (fields are only read; signatures are set on locally *constructed*
    frames before encoding), so sharing one object between receivers —
    and with the originator, whose ``encode()`` seeded the memo — is
    observationally identical to decoding per receiver.  Parse failures
    are not cached: garbage bytes are overwhelmingly unique, and
    re-raising a fresh exception keeps the error path untouched.
    """
    key = bytes(data)
    frame = _FRAME_CACHE.get(key)
    if frame is None:
        frame = _FRAME_CACHE.put(key, decode_frame(key))
    return frame
