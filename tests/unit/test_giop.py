"""Unit tests for GIOP framing."""

import pytest

from repro.orb.giop import (
    GiopError,
    ReplyMessage,
    RequestMessage,
    REPLY_NO_EXCEPTION,
    REPLY_SYSTEM_EXCEPTION,
    decode_message,
)
from repro.orb.transport import split_frames


def test_request_roundtrip():
    request = RequestMessage(17, b"server/key", "get_quote", b"\x01\x02\x03")
    decoded = decode_message(request.encode())
    assert isinstance(decoded, RequestMessage)
    assert decoded.request_id == 17
    assert decoded.object_key == b"server/key"
    assert decoded.operation == "get_quote"
    assert decoded.body == b"\x01\x02\x03"
    assert decoded.response_expected


def test_oneway_request_roundtrip():
    request = RequestMessage(3, b"k", "ping", b"", response_expected=False)
    decoded = decode_message(request.encode())
    assert not decoded.response_expected
    assert decoded.body == b""


def test_reply_roundtrip():
    reply = ReplyMessage(17, REPLY_NO_EXCEPTION, b"result")
    decoded = decode_message(reply.encode())
    assert isinstance(decoded, ReplyMessage)
    assert decoded.request_id == 17
    assert decoded.reply_status == REPLY_NO_EXCEPTION
    assert decoded.body == b"result"


def test_exception_reply_roundtrip():
    decoded = decode_message(ReplyMessage(5, REPLY_SYSTEM_EXCEPTION, b"").encode())
    assert decoded.reply_status == REPLY_SYSTEM_EXCEPTION


def test_frame_starts_with_magic():
    frame = RequestMessage(1, b"k", "op", b"").encode()
    assert frame[:4] == b"GIOP"


def test_bad_magic_rejected():
    frame = bytearray(RequestMessage(1, b"k", "op", b"").encode())
    frame[0] = ord("X")
    with pytest.raises(GiopError):
        decode_message(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(RequestMessage(1, b"k", "op", b"").encode())
    frame[4] = 9
    with pytest.raises(GiopError):
        decode_message(bytes(frame))


def test_size_mismatch_rejected():
    frame = RequestMessage(1, b"k", "op", b"").encode()
    with pytest.raises(GiopError):
        decode_message(frame + b"extra")
    with pytest.raises(GiopError):
        decode_message(frame[:-1])


def test_short_frame_rejected():
    with pytest.raises(GiopError):
        decode_message(b"GIOP")


def test_unknown_message_type_rejected():
    frame = bytearray(RequestMessage(1, b"k", "op", b"").encode())
    frame[7] = 99
    with pytest.raises(GiopError):
        decode_message(bytes(frame))


def test_split_frames_recovers_batches():
    frames = [
        RequestMessage(i, b"k", "op%d" % i, b"x" * i, response_expected=False).encode()
        for i in range(4)
    ]
    assert split_frames(b"".join(frames)) == frames


def test_split_frames_rejects_truncated_tail():
    frame = RequestMessage(1, b"k", "op", b"body").encode()
    with pytest.raises(GiopError):
        split_frames(frame + frame[:6])
    with pytest.raises(GiopError):
        split_frames(frame[: len(frame) - 2])


def test_split_frames_empty_input():
    assert split_frames(b"") == []


# ----------------------------------------------------------------------
# template/memo encode paths vs the generic encoder
# ----------------------------------------------------------------------


def test_request_template_encode_matches_generic():
    for request_id in (0, 1, 17, 2**32 - 1):
        for body in (b"", b"x", b"\x01\x02\x03\x04\x05"):
            for oneway in (False, True):
                msg = RequestMessage(
                    request_id, b"server/key", "get_quote", body,
                    response_expected=not oneway,
                )
                assert msg.encode() == msg._encode()


def test_reply_fast_encode_matches_generic():
    for request_id in (0, 5, 2**32 - 1):
        for status in (REPLY_NO_EXCEPTION, REPLY_SYSTEM_EXCEPTION):
            for body in (b"", b"result-bytes"):
                msg = ReplyMessage(request_id, status, body)
                assert msg.encode() == msg._encode()


def test_memoised_encode_hit_equals_generic():
    """A full-frame memo hit hands back the generic encoder's bytes."""
    request = RequestMessage(99, b"k", "op", b"body")
    reply = ReplyMessage(99, REPLY_NO_EXCEPTION, b"r")
    for msg in (request, reply):
        first = msg.encode()
        assert msg.encode() is first  # second call is the memo hit
        assert first == msg._encode()


def test_decode_shared_returns_equal_message():
    from repro.orb.giop import decode_message_shared

    frame = RequestMessage(4, b"key", "op", b"pl").encode()
    first = decode_message_shared(frame)
    second = decode_message_shared(frame)
    assert first is second  # memoised fan-out share
    plain = decode_message(frame)
    assert (first.request_id, first.object_key, first.operation, first.body) == (
        plain.request_id, plain.object_key, plain.operation, plain.body
    )
