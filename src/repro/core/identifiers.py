"""Operation, invocation, and response identifiers (paper Figure 3).

Every operation a replicated client issues is named by an *operation
identifier* ``(source_group, operation_number)``.  Each replica of the
client assigns operation numbers deterministically (replicas are
deterministic, so their n-th invocations coincide), which makes the
identifier identical in the first two fields across all replicas — the
property duplicate detection and voting rely on:

* invocation identifier = ``(client_group, op_num, client_replica)``
* response identifier   = ``(client_group, op_num, server_replica)``

The Replication Manager wraps each intercepted IIOP frame into an
:class:`ImmuneMessage` carrying these identifiers plus the *normalised*
GIOP frame (its request id rewritten to the operation number, so the
copies sent by different replicas are byte-identical and can be voted
on by value).
"""

import struct

from repro import perf
from repro.orb.cdr import CdrDecoder, CdrEncoder, MarshalError

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

KIND_INVOCATION = 1
KIND_RESPONSE = 2
KIND_VALUE_FAULT_VOTE = 3
KIND_GROUP_UPDATE = 4
KIND_STATE_TRANSFER = 5
#: primary-to-backup state checkpoint of a warm-passively replicated
#: object (the contrast baseline of section 5: passive replication
#: cannot tolerate value faults)
KIND_PASSIVE_UPDATE = 6

#: the distinguished group every Replication Manager joins to learn
#: object-group memberships and exchange Value_Fault_Vote messages
BASE_GROUP = "__base__"


class ImmuneCodecError(Exception):
    """Raised on malformed Immune messages."""


class OperationId:
    """``(source_group, op_num)`` — identical across a group's replicas."""

    __slots__ = ("source_group", "op_num")

    def __init__(self, source_group, op_num):
        self.source_group = source_group
        self.op_num = op_num

    def key(self):
        return (self.source_group, self.op_num)

    def __eq__(self, other):
        return isinstance(other, OperationId) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "OperationId(%s#%d)" % (self.source_group, self.op_num)


class ImmuneMessage:
    """The Replication Manager's multicast payload.

    ``kind`` selects the interpretation of ``body``:

    * ``KIND_INVOCATION`` / ``KIND_RESPONSE`` — a normalised GIOP frame;
    * ``KIND_VALUE_FAULT_VOTE`` — an encoded vote set (see
      :mod:`repro.core.value_fault`);
    * ``KIND_GROUP_UPDATE`` — an object-group membership update (see
      :mod:`repro.core.groups`);
    * ``KIND_STATE_TRANSFER`` — a servant state checkpoint used when a
      lost replica is reallocated to a correct processor.
    """

    __slots__ = ("kind", "source_group", "op_num", "replica_proc", "target_group", "body")

    def __init__(self, kind, source_group, op_num, replica_proc, target_group, body):
        self.kind = kind
        self.source_group = source_group
        self.op_num = op_num
        self.replica_proc = replica_proc
        self.target_group = target_group
        self.body = body

    @property
    def operation_id(self):
        return OperationId(self.source_group, self.op_num)

    #: (kind, source_group, replica_proc, target_group) -> (prefix, mid)
    #: byte templates.  A Replication Manager re-encodes thousands of
    #: messages that differ only in ``op_num`` and ``body``; everything
    #: around those two fields (including CDR alignment padding, which
    #: depends only on the fixed-length fields) is a constant byte
    #: string, so the hot encode is two struct packs and a concat.
    _TEMPLATE_CACHE = perf.register_cache(perf.BytesKeyedCache("immune.encode_template"))

    def encode(self):
        key = (self.kind, self.source_group, self.replica_proc, self.target_group)
        template = self._TEMPLATE_CACHE.get(key)
        if template is None:
            template = self._TEMPLATE_CACHE.put(key, self._make_template())
        prefix, mid = template
        return prefix + _U64.pack(self.op_num) + mid + _U32.pack(len(self.body)) + self.body

    def _encode(self):
        encoder = CdrEncoder()
        encoder.write_octet(self.kind)
        encoder.write_string(self.source_group)
        encoder.write_ulonglong(self.op_num)
        encoder.write_ulong(self.replica_proc)
        encoder.write_string(self.target_group)
        encoder.write_octets(self.body)
        return encoder.getvalue()

    def _make_template(self):
        """Derive (prefix, mid) from two generic probe encodings.

        The probes differ only in ``op_num``, so the first differing
        byte locates the 8-byte op_num field; the trailing 4 bytes of an
        empty-body probe are the body length.  The reconstruction is
        checked against the generic encoder once per template, so a
        future layout change cannot silently desynchronise them.
        """
        cls = type(self)
        fixed = (self.kind, self.source_group, self.replica_proc, self.target_group)
        probe = cls(fixed[0], fixed[1], 0, fixed[2], fixed[3], b"")._encode()
        probe_hi = cls(fixed[0], fixed[1], 2**64 - 1, fixed[2], fixed[3], b"")._encode()
        offset = next(i for i in range(len(probe)) if probe[i] != probe_hi[i])
        prefix, mid = probe[:offset], probe[offset + 8 : -4]
        check = cls(fixed[0], fixed[1], 12345, fixed[2], fixed[3], b"xyz")
        rebuilt = prefix + _U64.pack(12345) + mid + _U32.pack(3) + b"xyz"
        if rebuilt != check._encode():
            raise ImmuneCodecError("ImmuneMessage encode template mismatch")
        return prefix, mid

    @classmethod
    def decode(cls, data):
        try:
            decoder = CdrDecoder(data)
            kind = decoder.read_octet()
            if kind not in (
                KIND_INVOCATION,
                KIND_RESPONSE,
                KIND_VALUE_FAULT_VOTE,
                KIND_GROUP_UPDATE,
                KIND_STATE_TRANSFER,
                KIND_PASSIVE_UPDATE,
            ):
                raise ImmuneCodecError("unknown Immune message kind %d" % kind)
            return cls(
                kind,
                decoder.read_string(),
                decoder.read_ulonglong(),
                decoder.read_ulong(),
                decoder.read_string(),
                decoder.read_octets(),
            )
        except MarshalError as exc:
            raise ImmuneCodecError("malformed Immune message: %s" % exc)

    #: payload bytes -> decoded message, shared across every processor:
    #: one multicast delivery hands the identical payload to N
    #: Replication Managers, which would otherwise each re-parse it.
    _DECODE_CACHE = perf.register_cache(perf.BytesKeyedCache("immune.decode"))

    @classmethod
    def decode_shared(cls, data):
        """Memoised :meth:`decode` for the delivery fan-out path.

        Decoded messages are read-only downstream (managers vote on and
        forward ``body`` bytes, never mutate the message), so sharing
        one object across processors is observationally identical.
        Malformed payloads are not cached; the exception path is
        untouched.
        """
        key = bytes(data)
        message = cls._DECODE_CACHE.get(key)
        if message is None:
            message = cls._DECODE_CACHE.put(key, cls.decode(key))
        return message

    def __repr__(self):
        kinds = {
            KIND_INVOCATION: "INV",
            KIND_RESPONSE: "RSP",
            KIND_VALUE_FAULT_VOTE: "VFV",
            KIND_GROUP_UPDATE: "GRP",
            KIND_STATE_TRANSFER: "STX",
        }
        return "ImmuneMessage(%s, %s#%d from P%d -> %s, %d bytes)" % (
            kinds.get(self.kind, self.kind),
            self.source_group,
            self.op_num,
            self.replica_proc,
            self.target_group,
            len(self.body),
        )
