"""Property: decoding ``x.encode()`` gives ``x`` field by field, for
every declared wire frame.

``encode()`` of a regular message, fragment, token or token certificate
seeds the LAN-wide decode memo with the very object that was encoded, so
receivers of an uncorrupted broadcast never parse it.  That is only
invisible if parsing the bytes would have produced an equal object —
same values and same types in every field — which is what this oracle
checks with the plain, unmemoised decoders.  The frames are drawn from
the declarations (``tests/properties/frames.py``).
"""

from hypothesis import given, settings, strategies as st

from repro.multicast.messages import decode_frame, decode_frame_shared
from repro.multicast.token import Token, TokenCertificate
from tests.properties.frames import SEEDED, any_boundary_frame, any_frame, decode, fields_of, frames


def _typed(value):
    """``value`` with the type of every part, so ``[1] != (1,)`` and ``b"" != bytearray()``."""
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(item) for item in value])
    return (type(value), value)


def _rebuilds(frame):
    raw = frame.encode()
    if isinstance(frame, SEEDED):
        assert decode_frame_shared(raw) is frame  # seeded: receivers get the encoded object
    parsed = decode(type(frame), raw)
    assert type(parsed) is type(frame)
    assert parsed is not frame
    assert [(name, _typed(value)) for name, value in fields_of(parsed)] == [
        (name, _typed(value)) for name, value in fields_of(frame)
    ]
    assert parsed.encode() == raw


@given(any_frame())
@settings(max_examples=400, deadline=None)
def test_decoding_an_encoded_frame_rebuilds_it_field_by_field(frame):
    _rebuilds(frame)


@given(any_boundary_frame())
@settings(max_examples=300, deadline=None)
def test_a_frame_with_one_field_at_a_boundary_still_decodes_cleanly(frame):
    """The boundary mutator's frames are well formed: what they break,
    they break past the decoder, where a byte-level fuzzer never gets."""
    _rebuilds(frame)


def _rebuilt(frame):
    """An equal frame built from the same fields, never encoded."""
    return type(frame)(**dict(fields_of(frame)))


@given(st.one_of(frames(Token), frames(TokenCertificate)))
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
