"""Wire formats for the Secure Multicast Protocols.

Three kinds of frames travel on the multicast port:

* regular data messages (:class:`RegularMessage`) carrying an opaque
  payload for a destination object group, stamped with the global
  total-order sequence number assigned by the token holder;
* tokens (:mod:`repro.multicast.token`);
* membership proposals (:class:`MembershipProposal`) exchanged by the
  processor membership protocol.

Every frame starts with a one-byte frame-type discriminator so a
receiver can parse without context.  Each frame class declares its
fields once (``SCHEMA``, :mod:`repro.orb.schema`), and its CDR encoding,
decoding and repr all derive from that; the digest or signature of a
frame is always computed over these exact bytes, so a bit flipped by
the network genuinely invalidates it.
"""

from repro import perf
from repro.orb.schema import Frame, Schema

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


class RegularMessage(Frame):
    """One totally-ordered data message.

    ``seq`` is the ring-wide total-order sequence number the sender
    assigned while holding the token.  ``sender_id`` names the
    originating processor; with signatures enabled its truthfulness is
    enforced by the digest in the *signed* token (a masqueraded message
    never matches a digest the honest token holder signed).
    """

    frame_type = FRAME_REGULAR
    SCHEMA = Schema(
        ("sender_id", "ulong"),
        ("ring_id", "ulong"),
        ("seq", "ulonglong"),
        ("dest_group", "string"),
        ("payload", "octets"),
        typed=True,
        error=MulticastCodecError,
    )
    __slots__ = SCHEMA.names

    def __init__(self, sender_id, ring_id, seq, dest_group, payload):
        self.sender_id = sender_id
        self.ring_id = ring_id
        self.seq = seq
        self.dest_group = dest_group
        self.payload = payload

    def encode(self):
        return _seeded(self._encode(), self)


class MessageFragment(Frame):
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
    SCHEMA = Schema(
        ("sender_id", "ulong"),
        ("ring_id", "ulong"),
        ("seq", "ulonglong"),
        ("dest_group", "string"),
        ("frag_id", "ulong"),
        ("frag_index", "ulong"),
        ("frag_total", "ulong"),
        ("payload", "octets"),
        typed=True,
        error=MulticastCodecError,
    )
    __slots__ = SCHEMA.names

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


#: a signed frame on the wire: its type, the signable bytes, the signature
_SIGNED = Schema(
    ("frame_type", "octet"),
    ("signable", "octets"),
    ("signature", "octets"),
    error=MulticastCodecError,
)


class _SignedFrame(Frame):
    """A frame whose ``SCHEMA`` fields are signed.

    The signable bytes are the encoding of those fields; on the wire
    they sit between the frame type and the signature, an integer in
    its shortest big-endian octets (``00 2a`` is not ``2a``).
    """

    __slots__ = ("signature",)

    def signable_bytes(self):
        """The bytes the signature covers: every field but itself."""
        return self.SCHEMA.encode(self)

    def _encode(self, signable=None):
        """The wire bytes; seals nothing and seeds no memo."""
        if signable is None:
            signable = self.signable_bytes()
        return _SIGNED.pack((self.frame_type, signable, _int_to_octets(self.signature)))

    @classmethod
    def decode(cls, data):
        _, signable, signature = _SIGNED.unpack(data)
        frame = cls.SCHEMA.decode(cls, signable, signature=int.from_bytes(signature, "big"))
        if frame._encode() != data:  # a zero-padded signature, an unsorted set
            raise MulticastCodecError("non-canonical %s frame" % cls.__name__)
        return frame


class MembershipProposal(_SignedFrame):
    """One signed proposal in a membership round.

    ``candidate_set`` is the membership the proposer is willing to
    install; ``have_contiguous`` reports the highest sequence number
    below which the proposer holds every message of the old ring (used
    by the recovery/flush phase); ``round_number`` distinguishes
    successive shrinking rounds of the same reconfiguration.
    """

    frame_type = FRAME_PROPOSAL
    SCHEMA = Schema(
        ("proposer", "ulong"),
        ("old_ring_id", "ulong"),
        ("round_number", "ulong"),
        ("candidate_set", ("sequence", "ulong")),
        ("have_contiguous", "ulonglong"),
        ("suspects", ("sequence", "ulong")),
        ("joining", "boolean"),
        error=MulticastCodecError,
    )
    __slots__ = SCHEMA.names

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


class JoinRequest(_SignedFrame):
    """A processor asking to (re)join the membership.

    Broadcast periodically by a processor that is not currently a
    member (a repaired machine, or a correct processor that was
    excluded during a transient outage).  Signed so that a Byzantine
    processor cannot inject joins on behalf of others; stamped with the
    requester's clock so stale replays age out.
    """

    frame_type = FRAME_JOIN_REQUEST
    SCHEMA = Schema(("proc_id", "ulong"), ("request_time", "double"), error=MulticastCodecError)
    __slots__ = SCHEMA.names

    def __init__(self, proc_id, request_time, signature=0):
        self.proc_id = proc_id
        self.request_time = request_time
        self.signature = signature


class MembershipCommit(Frame):
    """A self-certifying bundle of the unanimous proposals of one round.

    Once a member observes unanimity it broadcasts the complete set of
    (signed) proposals as evidence.  Any member — including one whose
    own proposal traffic was lost — can verify the bundle independently
    and install the same membership with the same new ring id, which is
    what keeps installations unique and totally ordered even when
    individual frames are dropped.
    """

    frame_type = FRAME_COMMIT
    SCHEMA = Schema(
        ("sender_id", "ulong"),
        ("old_ring_id", "ulong"),
        ("round_number", "ulong"),
        ("proposal_frames", ("sequence", "octets")),
        typed=True,
        error=MulticastCodecError,
    )
    __slots__ = SCHEMA.names

    def __init__(self, sender_id, old_ring_id, round_number, proposal_frames):
        self.sender_id = sender_id
        self.old_ring_id = old_ring_id
        self.round_number = round_number
        self.proposal_frames = list(proposal_frames)

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


def _int_to_octets(value):
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def decode_frame(data):
    """Parse one multicast frame; raises MulticastCodecError on garbage.

    Only the canonical encoding of a frame is a frame
    (:mod:`repro.orb.schema`): digests and the mutant-token comparison
    are over the raw bytes and signatures over the *re-encoding* of the
    parsed fields, so a token with one padding bit flipped in transit
    would verify, differ from the stored copy of its visit, and convict
    its honest holder.  Such bytes are rejected here, as corruption,
    before any protocol layer sees them.  (Decoding does not seal the
    frame.)
    """
    from repro.multicast.token import Token, TokenCertificate  # local import to avoid a cycle

    if not data:
        raise MulticastCodecError("empty multicast frame")
    for cls in (
        RegularMessage,
        Token,
        MembershipProposal,
        MembershipCommit,
        JoinRequest,
        MessageFragment,
        TokenCertificate,
    ):
        if cls.frame_type == data[0]:
            return cls.decode(data)
    raise MulticastCodecError("unknown frame type %d" % data[0])


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
