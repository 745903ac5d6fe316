"""Fuzz tests: every wire decoder fails *cleanly* on arbitrary bytes.

The decoders sit directly on a network where an adversary controls the
bits; anything other than the decoder's declared error type (or a valid
parse) is a crash vector.
"""

from hypothesis import given, settings, strategies as st

from repro.core.groups import GroupError, GroupUpdate
from repro.core.identifiers import ImmuneCodecError, ImmuneMessage
from repro.core.value_fault import ValueFaultCodecError, ValueFaultVote
from repro.multicast.messages import MulticastCodecError, decode_frame
from repro.orb.giop import GiopError, RequestMessage, decode_message
from repro.orb.transport import split_frames
from tests.properties.frames import any_frame, decode

_SETTINGS = dict(max_examples=300)


@given(st.binary(max_size=256))
@settings(**_SETTINGS)
def test_multicast_decode_frame_never_crashes(data):
    try:
        decode_frame(data)
    except MulticastCodecError:
        pass


@given(st.binary(max_size=256))
@settings(**_SETTINGS)
def test_giop_decode_never_crashes(data):
    try:
        decode_message(data)
    except GiopError:
        pass


@given(st.binary(max_size=256))
@settings(**_SETTINGS)
def test_split_frames_never_crashes(data):
    try:
        split_frames(data)
    except GiopError:
        pass


@given(st.binary(max_size=256))
@settings(**_SETTINGS)
def test_immune_message_decode_never_crashes(data):
    try:
        ImmuneMessage.decode(data)
    except ImmuneCodecError:
        pass


@given(st.binary(max_size=256))
@settings(**_SETTINGS)
def test_value_fault_vote_decode_never_crashes(data):
    try:
        ValueFaultVote.decode(data)
    except ValueFaultCodecError:
        pass


@given(st.binary(max_size=256))
@settings(**_SETTINGS)
def test_group_update_decode_never_crashes(data):
    try:
        GroupUpdate.decode(data)
    except GroupError:
        pass


@given(st.binary(min_size=13, max_size=128), st.integers(0, 12 * 8 - 1))
@settings(max_examples=200)
def test_bitflipped_giop_frames_fail_cleanly(body, bit):
    frame = bytearray(
        RequestMessage(1, b"key", "op", bytes(body), response_expected=False).encode()
    )
    frame[bit // 8] ^= 1 << (bit % 8)
    try:
        decode_message(bytes(frame))
    except GiopError:
        pass


@given(st.binary(max_size=64), st.integers(0, 200))
@settings(max_examples=200)
def test_bitflipped_multicast_frames_fail_cleanly(payload, bit_position):
    from repro.multicast.messages import RegularMessage

    frame = bytearray(RegularMessage(1, 1, 7, "group", bytes(payload)).encode())
    index = bit_position % (len(frame) * 8)
    frame[index // 8] ^= 1 << (index % 8)
    try:
        decoded = decode_frame(bytes(frame))
    except MulticastCodecError:
        return
    # If it still parses, it must be a well-typed frame object.
    assert hasattr(decoded, "frame_type")


@given(any_frame(), st.data())
@settings(max_examples=600, deadline=None)
def test_a_mutated_byte_is_rejected_or_is_the_frame_it_decodes_to(frame, data):
    """Only canonical bytes are a frame, of every declared kind.

    Digests and the mutant-token comparison are over raw bytes, token
    and certificate signatures over the re-encoding of the parsed
    fields.  A mutation the parser ignored (CDR padding, bytes after the
    last field, a zero-padded signature) would leave both intact and
    make two "different" validly signed frames out of one honest one.
    """
    raw = bytearray(frame.encode())
    index = data.draw(st.integers(0, len(raw) - 1), label="index")
    raw[index] ^= data.draw(st.integers(1, 255), label="flip")
    mutated = bytes(raw)
    try:
        decoded = decode(type(frame), mutated)
    except type(frame).SCHEMA.error:
        return
    assert decoded.encode() == mutated
