"""GIOP 1.0 messages — the payload of IIOP.

The Immune system intercepts IIOP messages below the ORB, so this
module defines the concrete byte format those messages have on the
wire: a 12-byte GIOP header (magic, version, byte order, message type,
body size) followed by a CDR-encoded Request or Reply header and body.

Only the message types the reproduction needs are implemented:
``Request`` and ``Reply``.  Bodies are opaque CDR bytes produced by the
IDL layer; GIOP does not interpret them, exactly as in CORBA.
"""

import struct

from repro import perf
from repro.orb.cdr import CdrDecoder, CdrEncoder, MarshalError

GIOP_MAGIC = b"GIOP"
GIOP_VERSION = (1, 0)

MSG_REQUEST = 0
MSG_REPLY = 1

REPLY_NO_EXCEPTION = 0
REPLY_USER_EXCEPTION = 1
REPLY_SYSTEM_EXCEPTION = 2

_LITTLE_ENDIAN_FLAG = 1

#: message field tuple -> encoded frame.  Replicas are deterministic:
#: the N replicas of a client (or server) marshal the same logical
#: request/reply with the same fields, so the CDR work runs once per
#: logical message instead of once per replica.  Keys are full field
#: tuples, so two messages share bytes only if they are equal.
_ENCODE_CACHE = perf.register_cache(perf.BytesKeyedCache("giop.encode"))

#: frame bytes -> decoded message, shared across receivers of the same
#: normalised frame (the whole point of normalisation is that copies
#: from different replicas are byte-identical)
_DECODE_CACHE = perf.register_cache(perf.BytesKeyedCache("giop.decode"))

#: (object_key, operation, response_expected) -> the constant CDR bytes
#: between the request id and the body.  Request ids increment per
#: invocation, so the full-frame memo above misses once per id; the
#: template turns that miss into two packs and a concatenation.
_REQUEST_TEMPLATE_CACHE = perf.register_cache(perf.BytesKeyedCache("giop.request_template"))

_U32 = struct.Struct("<I")
#: a Reply's CDR header is exactly two unaligned ulongs
_REPLY_HEAD = struct.Struct("<II")


class GiopError(Exception):
    """Raised on malformed GIOP messages."""


class InvocationTimeout(GiopError):
    """A two-way invocation's reply did not arrive within its deadline."""


class RequestMessage:
    """A GIOP Request: one invocation of ``operation`` on ``object_key``."""

    message_type = MSG_REQUEST

    def __init__(self, request_id, object_key, operation, body, response_expected=True):
        self.request_id = request_id
        self.object_key = object_key
        self.operation = operation
        self.body = body
        self.response_expected = response_expected

    def encode(self):
        key = (
            MSG_REQUEST,
            self.request_id,
            self.object_key,
            self.operation,
            self.body,
            self.response_expected,
        )
        frame = _ENCODE_CACHE.get(key)
        if frame is None:
            frame = _ENCODE_CACHE.put(key, self._encode_fast())
        return frame

    def _encode_fast(self):
        """Template build: only the request id and body vary per target."""
        tkey = (self.object_key, self.operation, self.response_expected)
        mid = _REQUEST_TEMPLATE_CACHE.get(tkey)
        if mid is None:
            mid = _REQUEST_TEMPLATE_CACHE.put(tkey, self._make_template())
        payload_len = 4 + len(mid) + len(self.body)
        return (
            _GIOP_HEADER.pack(
                GIOP_MAGIC,
                GIOP_VERSION[0],
                GIOP_VERSION[1],
                _LITTLE_ENDIAN_FLAG,
                MSG_REQUEST,
                payload_len,
            )
            + _U32.pack(self.request_id)
            + mid
            + self.body
        )

    def _make_template(self):
        """Derive the constant middle bytes and self-check the rebuild.

        The request id is the first CDR write, so it occupies payload
        bytes 0..4 (frame bytes 12..16); everything from there to the
        body is constant for a given (key, operation, flag) triple.
        The probe rebuild is compared against the generic encoder so a
        codec change can never silently desync the fast path.
        """
        probe = RequestMessage(
            0, self.object_key, self.operation, b"", self.response_expected
        )._encode()
        mid = probe[16:]
        check = RequestMessage(
            12345, self.object_key, self.operation, b"\x07\x08\x09", self.response_expected
        )
        rebuilt = (
            _GIOP_HEADER.pack(
                GIOP_MAGIC,
                GIOP_VERSION[0],
                GIOP_VERSION[1],
                _LITTLE_ENDIAN_FLAG,
                MSG_REQUEST,
                4 + len(mid) + 3,
            )
            + _U32.pack(12345)
            + mid
            + b"\x07\x08\x09"
        )
        if rebuilt != check._encode():
            raise GiopError("GIOP request encode template mismatch")
        return mid

    def _encode(self):
        header = CdrEncoder()
        header.write_ulong(self.request_id)
        header.write_boolean(self.response_expected)
        header.write_octets(self.object_key)
        header.write_string(self.operation)
        payload = header.getvalue() + self.body
        return _giop_frame(MSG_REQUEST, payload)

    @classmethod
    def decode(cls, payload):
        decoder = CdrDecoder(payload)
        request_id = decoder.read_ulong()
        response_expected = decoder.read_boolean()
        object_key = decoder.read_octets()
        operation = decoder.read_string()
        body = payload[decoder.position :]
        return cls(request_id, object_key, operation, body, response_expected)

    def __repr__(self):
        return "RequestMessage(id=%d, op=%s, key=%s, %s)" % (
            self.request_id,
            self.operation,
            self.object_key.hex(),
            "twoway" if self.response_expected else "oneway",
        )


class ReplyMessage:
    """A GIOP Reply carrying the result (or exception) of a Request."""

    message_type = MSG_REPLY

    def __init__(self, request_id, reply_status, body):
        self.request_id = request_id
        self.reply_status = reply_status
        self.body = body

    def encode(self):
        key = (MSG_REPLY, self.request_id, self.reply_status, self.body)
        frame = _ENCODE_CACHE.get(key)
        if frame is None:
            frame = _ENCODE_CACHE.put(key, self._encode_fast())
        return frame

    #: one-time proof that the packed fast path matches the generic
    #: encoder — a process-lifetime check, since the codec is static
    _fast_checked = False

    def _encode_fast(self):
        """A Reply's CDR header is two unaligned ulongs: pack directly."""
        payload_len = 8 + len(self.body)
        frame = (
            _GIOP_HEADER.pack(
                GIOP_MAGIC,
                GIOP_VERSION[0],
                GIOP_VERSION[1],
                _LITTLE_ENDIAN_FLAG,
                MSG_REPLY,
                payload_len,
            )
            + _REPLY_HEAD.pack(self.request_id, self.reply_status)
            + self.body
        )
        if not ReplyMessage._fast_checked:
            if frame != self._encode():
                raise GiopError("GIOP reply encode fast path mismatch")
            ReplyMessage._fast_checked = True
        return frame

    def _encode(self):
        header = CdrEncoder()
        header.write_ulong(self.request_id)
        header.write_ulong(self.reply_status)
        payload = header.getvalue() + self.body
        return _giop_frame(MSG_REPLY, payload)

    @classmethod
    def decode(cls, payload):
        decoder = CdrDecoder(payload)
        request_id = decoder.read_ulong()
        reply_status = decoder.read_ulong()
        body = payload[decoder.position :]
        return cls(request_id, reply_status, body)

    def __repr__(self):
        return "ReplyMessage(id=%d, status=%d)" % (self.request_id, self.reply_status)


#: the 12-byte GIOP header: magic, version, flags, type, body size
_GIOP_HEADER = struct.Struct("<4s4BI")


def _giop_frame(message_type, payload):
    return (
        _GIOP_HEADER.pack(
            GIOP_MAGIC,
            GIOP_VERSION[0],
            GIOP_VERSION[1],
            _LITTLE_ENDIAN_FLAG,
            message_type,
            len(payload),
        )
        + payload
    )


def decode_message(frame):
    """Decode one GIOP frame into a Request or Reply message object."""
    if len(frame) < 12:
        raise GiopError("GIOP frame shorter than header (%d bytes)" % len(frame))
    if frame[:4] != GIOP_MAGIC:
        raise GiopError("bad GIOP magic %r" % frame[:4])
    if tuple(frame[4:6]) != GIOP_VERSION:
        raise GiopError("unsupported GIOP version %r" % (tuple(frame[4:6]),))
    if frame[6] != _LITTLE_ENDIAN_FLAG:
        raise GiopError("only little-endian GIOP is implemented")
    message_type = frame[7]
    size = int.from_bytes(frame[8:12], "little")
    payload = frame[12:]
    if len(payload) != size:
        raise GiopError("GIOP size mismatch: header says %d, got %d" % (size, len(payload)))
    try:
        if message_type == MSG_REQUEST:
            return RequestMessage.decode(payload)
        if message_type == MSG_REPLY:
            return ReplyMessage.decode(payload)
    except MarshalError as exc:
        raise GiopError("malformed GIOP payload: %s" % exc)
    raise GiopError("unsupported GIOP message type %d" % message_type)


def decode_message_shared(frame):
    """Memoised :func:`decode_message` for replicated fan-out paths.

    Every replica of a group receives (and every Replication Manager
    intercepts) byte-identical normalised frames; the parse runs once.
    Decoded messages are read-only downstream — any transformation
    (normalisation, fault injection) constructs a *new* message — so
    sharing one object is observationally identical.  Malformed frames
    are not cached and raise fresh exceptions.
    """
    key = bytes(frame)
    message = _DECODE_CACHE.get(key)
    if message is None:
        message = _DECODE_CACHE.put(key, decode_message(key))
    return message
