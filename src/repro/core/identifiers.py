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

from repro import perf
from repro.orb.schema import Frame, Schema, one_of

KIND_INVOCATION = 1
KIND_RESPONSE = 2
KIND_VALUE_FAULT_VOTE = 3
KIND_GROUP_UPDATE = 4
KIND_STATE_TRANSFER = 5
#: primary-to-backup state checkpoint of a warm-passively replicated
#: object (the contrast baseline of section 5: passive replication
#: cannot tolerate value faults)
KIND_PASSIVE_UPDATE = 6

#: every kind, by the name its repr shows; decoding accepts these only
KIND_NAMES = {
    KIND_INVOCATION: "INV",
    KIND_RESPONSE: "RSP",
    KIND_VALUE_FAULT_VOTE: "VFV",
    KIND_GROUP_UPDATE: "GRP",
    KIND_STATE_TRANSFER: "STX",
    KIND_PASSIVE_UPDATE: "PSV",
}

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


class ImmuneMessage(Frame):
    """The Replication Manager's multicast payload.

    ``kind`` selects the interpretation of ``body``:

    * ``KIND_INVOCATION`` / ``KIND_RESPONSE`` — a normalised GIOP frame;
    * ``KIND_VALUE_FAULT_VOTE`` — an encoded vote set (see
      :mod:`repro.core.value_fault`);
    * ``KIND_GROUP_UPDATE`` — an object-group membership update (see
      :mod:`repro.core.groups`);
    * ``KIND_STATE_TRANSFER`` — a servant state checkpoint used when a
      lost replica is reallocated to a correct processor;
    * ``KIND_PASSIVE_UPDATE`` — a warm-passive primary's checkpoint.
    """

    SCHEMA = Schema(
        ("kind", one_of("octet", KIND_NAMES)),
        ("source_group", "string"),
        ("op_num", "ulonglong"),
        ("replica_proc", "ulong"),
        ("target_group", "string"),
        ("body", "octets"),
        error=ImmuneCodecError,
    )
    __slots__ = SCHEMA.names

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

    def encode(self):
        return self.SCHEMA.encode(self)

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
