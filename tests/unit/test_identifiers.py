"""Unit tests for Immune message identifiers and codecs."""

import pytest

from repro.core.duplicates import DuplicateFilter
from repro.core.identifiers import (
    ImmuneCodecError,
    ImmuneMessage,
    KIND_INVOCATION,
    KIND_NAMES,
    KIND_PASSIVE_UPDATE,
    KIND_RESPONSE,
    OperationId,
)
from repro.core.value_fault import ValueFaultCodecError, ValueFaultVote


def test_immune_message_roundtrip():
    msg = ImmuneMessage(KIND_INVOCATION, "client", 42, 3, "server", b"\x01frame")
    decoded = ImmuneMessage.decode(msg.encode())
    assert decoded.kind == KIND_INVOCATION
    assert decoded.source_group == "client"
    assert decoded.op_num == 42
    assert decoded.replica_proc == 3
    assert decoded.target_group == "server"
    assert decoded.body == b"\x01frame"


def test_immune_message_bad_kind_rejected():
    msg = ImmuneMessage(KIND_RESPONSE, "s", 1, 0, "t", b"")
    raw = bytearray(msg.encode())
    raw[0] = 99
    with pytest.raises(ImmuneCodecError):
        ImmuneMessage.decode(bytes(raw))


def test_every_kind_that_decodes_has_a_name_in_the_repr():
    """One table: the kinds decode accepts are the kinds repr names."""
    message = ImmuneMessage(KIND_PASSIVE_UPDATE, "primary", 4, 2, "backups", b"state")
    assert repr(message).startswith("ImmuneMessage(kind=PSV, source_group='primary'")
    for kind, name in KIND_NAMES.items():
        message = ImmuneMessage(kind, "s", 1, 0, "t", b"")
        assert ImmuneMessage.decode(message.encode()).kind == kind
        assert "kind=%s," % name in repr(message)


def test_immune_message_truncated_rejected():
    raw = ImmuneMessage(KIND_INVOCATION, "s", 1, 0, "t", b"abc").encode()
    with pytest.raises(ImmuneCodecError):
        ImmuneMessage.decode(raw[: len(raw) - 2])


def test_operation_id_equality_and_hash():
    a = OperationId("g", 5)
    b = OperationId("g", 5)
    c = OperationId("g", 6)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert ImmuneMessage(KIND_INVOCATION, "g", 5, 0, "t", b"").operation_id == a


def test_value_fault_vote_roundtrip():
    vote = ValueFaultVote(2, "client", 9, "server", [(0, b"d0"), (1, b"d1")])
    decoded = ValueFaultVote.decode(vote.encode())
    assert decoded.reporter == 2
    assert decoded.source_group == "client"
    assert decoded.op_num == 9
    assert decoded.target_group == "server"
    assert decoded.entries == ((0, b"d0"), (1, b"d1"))


def test_value_fault_vote_truncated_rejected():
    raw = ValueFaultVote(0, "a", 1, "b", [(0, b"x")]).encode()
    with pytest.raises(ValueFaultCodecError):
        ValueFaultVote.decode(raw[:-3])


def test_duplicate_filter_counts():
    dup = DuplicateFilter()
    assert dup.mark_delivered(("g", 0))
    assert not dup.mark_delivered(("g", 0))
    dup.suppress(("g", 0))
    assert dup.mark_delivered(("g", 1))
    assert dup.stats == {"delivered": 2, "suppressed": 2}
    assert dup.is_delivered(("g", 0))
    assert not dup.is_delivered(("g", 7))
    assert len(dup) == 2


def test_immune_message_decode_shared_equals_plain_decode():
    """The fan-out memo shares one object whose fields are exactly what
    a per-receiver ``decode`` of the same bytes yields."""
    data = ImmuneMessage(KIND_INVOCATION, "c", 7, 1, "s", b"payload").encode()
    shared = ImmuneMessage.decode_shared(data)
    assert ImmuneMessage.decode_shared(data) is shared
    assert shared.encode() == ImmuneMessage.decode(data).encode() == data
