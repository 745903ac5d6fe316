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
from repro.orb.schema import TAIL, Frame, Schema

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


class GiopError(Exception):
    """Raised on malformed GIOP messages."""


class InvocationTimeout(GiopError):
    """A two-way invocation's reply did not arrive within its deadline."""


class _Message(Frame):
    """A GIOP message: the 12-byte header, then its ``SCHEMA`` payload."""

    __slots__ = ()

    def _encode(self):
        return _giop_frame(self.message_type, self.SCHEMA.encode(self))

    def encode(self):
        key = self.SCHEMA.values(self)  # a Request's has five fields, a Reply's three
        frame = _ENCODE_CACHE.get(key)
        if frame is None:
            payload = self.SCHEMA.encode_hot(self)
            frame = _ENCODE_CACHE.put(key, _giop_frame(self.message_type, payload))
        return frame


class RequestMessage(_Message):
    """A GIOP Request: one invocation of ``operation`` on ``object_key``."""

    message_type = MSG_REQUEST
    #: Request ids increment per invocation, so the full-frame memo
    #: misses once per id: the CDR bytes between the request id and the
    #: body are one template per (response_expected, object_key,
    #: operation).
    SCHEMA = Schema(
        ("request_id", "ulong"),
        ("response_expected", "boolean"),
        ("object_key", "octets"),
        ("operation", "string"),
        ("body", TAIL),
        holes=("request_id", "body"),
        memo="giop.request_template",
        error=GiopError,
    )
    __slots__ = SCHEMA.names

    def __init__(self, request_id, object_key, operation, body, response_expected=True):
        self.request_id = request_id
        self.object_key = object_key
        self.operation = operation
        self.body = body
        self.response_expected = response_expected


class ReplyMessage(_Message):
    """A GIOP Reply carrying the result (or exception) of a Request."""

    message_type = MSG_REPLY
    SCHEMA = Schema(
        ("request_id", "ulong"),
        ("reply_status", "ulong"),
        ("body", TAIL),
        error=GiopError,
    )
    __slots__ = SCHEMA.names

    def __init__(self, request_id, reply_status, body):
        self.request_id = request_id
        self.reply_status = reply_status
        self.body = body


#: the 12-byte GIOP header: magic, version, flags, type, body size
_GIOP_HEADER = struct.Struct("<4s4BI")


def _giop_frame(message_type, payload):
    header = (GIOP_MAGIC, *GIOP_VERSION, _LITTLE_ENDIAN_FLAG, message_type, len(payload))
    return _GIOP_HEADER.pack(*header) + payload


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
    if message_type == MSG_REQUEST:
        return RequestMessage.decode(payload)
    if message_type == MSG_REPLY:
        return ReplyMessage.decode(payload)
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
