"""Property: ``decode_frame(x.encode())`` equals ``x`` field by field.

``encode()`` of a regular message, fragment, token or token certificate
seeds the LAN-wide decode memo with the very object that was encoded, so
receivers of an uncorrupted broadcast never parse it.  That is only
invisible if parsing the bytes would have produced an equal object —
same values and same types in every field — which is what this oracle
checks with the plain, unmemoised ``decode_frame``.
"""

from hypothesis import given, settings, strategies as st

from repro.multicast.messages import (
    MessageFragment,
    RegularMessage,
    decode_frame,
    decode_frame_shared,
)
from repro.multicast.token import Token, TokenCertificate

_ulong = st.integers(0, 2**32 - 1)
_ulonglong = st.integers(0, 2**64 - 1)
_digest = st.binary(max_size=20)
_group = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)), max_size=24)
_signature = st.integers(0, 2**300)

_regular = st.builds(RegularMessage, _ulong, _ulong, _ulonglong, _group, st.binary(max_size=200))
_fragment = st.builds(
    MessageFragment, _ulong, _ulong, _ulonglong, _group, _ulong, _ulong, _ulong,
    st.binary(max_size=200),
)
_token = st.builds(
    Token,
    sender_id=_ulong,
    ring_id=_ulong,
    visit=_ulonglong,
    seq=_ulonglong,
    aru=_ulonglong,
    successor=_ulong,
    aru_id=_ulong,
    rtr_list=st.lists(_ulonglong, max_size=6),
    rtg_list=st.lists(_ulonglong, max_size=6),
    message_digest_list=st.lists(st.tuples(_ulonglong, _digest), max_size=6),
    prev_token_digest=_digest,
    signature=_signature,
)
_certificate = st.builds(
    TokenCertificate, _ulong, _ulong, _ulonglong, st.lists(_digest, max_size=8), _signature
)

def _fields(frame):
    """What a frame *is*: every public slot (the token's form-check memo is private)."""
    return [
        (slot, getattr(frame, slot))
        for slot in type(frame).__slots__
        if not slot.startswith("_")
    ]


def _typed(value):
    """``value`` with the type of every part, so ``[1] != (1,)`` and ``b"" != bytearray()``."""
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(item) for item in value])
    return (type(value), value)


@given(st.one_of(_regular, _fragment, _token, _certificate))
@settings(max_examples=400, deadline=None)
def test_decoding_an_encoded_frame_rebuilds_it_field_by_field(frame):
    raw = frame.encode()
    assert decode_frame_shared(raw) is frame  # seeded: receivers get the encoded object
    parsed = decode_frame(raw)
    assert type(parsed) is type(frame)
    assert parsed is not frame
    assert [(slot, _typed(value)) for slot, value in _fields(parsed)] == [
        (slot, _typed(value)) for slot, value in _fields(frame)
    ]
    assert parsed.encode() == raw


def _rebuilt(frame):
    """An equal frame built from the same fields, never encoded."""
    return type(frame)(**dict(_fields(frame)))


@given(st.one_of(_token, _certificate))
@settings(max_examples=200, deadline=None)
def test_encode_seals_the_signable_bytes_and_parsing_does_not(frame):
    """``encode()`` keeps the signable bytes it wrote (what receivers of
    the shared object verify against); they are what ``signable_bytes()``
    computes from the fields, and a parsed frame recomputes them."""
    assert frame._sealed is None
    raw = frame.encode()
    assert frame._sealed == frame.sealed_bytes() == _rebuilt(frame).signable_bytes()
    parsed = decode_frame(raw)
    assert parsed._sealed is None
    assert parsed.sealed_bytes() == frame._sealed
    # re-signing: one encoding of the fields, the seal follows the fields
    resigned = _rebuilt(frame)
    assert resigned.encode_signed(lambda signable: len(signable)) == resigned._encode()
    assert resigned.signature == len(frame._sealed)
    assert resigned._sealed == frame._sealed
