"""Hypothesis strategies derived from the wire frames' declarations.

Every frame class declares its fields once (``SCHEMA``,
:mod:`repro.orb.schema`); :func:`frames` draws a frame of any of the
twelve from that declaration, and :func:`boundary_frames` draws one
with a single field at a boundary — 0, the maximum, the drawn value
+ 1 or + 2^k, or an empty or oversized sequence, string or byte
string — that still encodes and decodes cleanly: the well-formed but
wild frames a byte-level fuzzer does not make.
"""

from hypothesis import strategies as st

from repro.core.groups import GroupUpdate
from repro.core.identifiers import ImmuneMessage
from repro.core.value_fault import ValueFaultVote
from repro.multicast.messages import (
    JoinRequest,
    MembershipCommit,
    MembershipProposal,
    MessageFragment,
    RegularMessage,
    _SignedFrame,
    decode_frame,
)
from repro.multicast.token import Token, TokenCertificate
from repro.orb.giop import ReplyMessage, RequestMessage, decode_message
from repro.orb.schema import TAIL

MULTICAST = (
    RegularMessage,
    MessageFragment,
    MembershipProposal,
    JoinRequest,
    MembershipCommit,
    Token,
    TokenCertificate,
)
#: every declared wire frame
FRAMES = MULTICAST + (ImmuneMessage, RequestMessage, ReplyMessage, GroupUpdate, ValueFaultVote)
#: the frames whose ``encode()`` seeds the LAN-wide decode memo
SEEDED = (RegularMessage, MessageFragment, Token, TokenCertificate)

_BITS = {"octet": 8, "ushort": 16, "ulong": 32, "ulonglong": 64}
#: how many copies make a sequence, string or byte string oversized
OVERSIZED = 2**10 + 1

_text = st.text(
    st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)), max_size=24
)


def fields_of(frame):
    """What a frame *is*: its declared fields, and a signed frame's signature."""
    names = type(frame).SCHEMA.names
    if isinstance(frame, _SignedFrame):
        names += ("signature",)
    return [(name, getattr(frame, name)) for name in names]


def decode(cls, data):
    """Parse ``data`` the way a receiver of a ``cls`` frame does."""
    if cls in MULTICAST:
        return decode_frame(data)
    if cls in (RequestMessage, ReplyMessage):
        return decode_message(data)
    return cls.decode(data)


def values(tag):
    """Any value of ``tag``."""
    if isinstance(tag, tuple):
        kind = tag[0]
        if kind == "one_of":
            return st.sampled_from(sorted(tag[2]))
        if kind == "sequence":
            return st.lists(values(tag[1]), max_size=8)
        return st.tuples(*(values(field_tag) for _, field_tag in tag[1]))
    if tag in _BITS:
        return st.integers(0, 2 ** _BITS[tag] - 1)
    if tag == "boolean":
        return st.booleans()
    if tag == "double":
        return st.floats(allow_nan=False)
    if tag == "string":
        return _text
    assert tag in ("octets", TAIL), tag
    return st.binary(max_size=200)


def frames(cls):
    """A ``cls`` frame drawn from its declaration."""
    fields = {name: values(tag) for name, tag in cls.SCHEMA.fields}
    if issubclass(cls, _SignedFrame):
        fields["signature"] = st.integers(0, 2**300)
    return st.builds(cls, **fields)


def any_frame():
    return st.one_of([frames(cls) for cls in FRAMES])


def boundaries(tag, value):
    """Values of ``tag`` at a boundary, relative to ``value``."""
    if isinstance(tag, tuple):
        if tag[0] != "sequence":
            return values(tag)  # a code of a closed set
        element = values(tag[1])
        return st.one_of(st.just([]), element.map(lambda item: [item] * OVERSIZED))
    if tag in _BITS:
        top = 2 ** _BITS[tag] - 1
        steps = st.integers(0, _BITS[tag] - 1).map(lambda k: min(value + 2**k, top))
        return st.one_of(st.sampled_from([0, top, min(value + 1, top)]), steps)
    if tag == "string":
        return st.sampled_from(["", "x" * OVERSIZED])
    if tag in ("octets", TAIL):
        return st.sampled_from([b"", b"\xff" * OVERSIZED])
    return values(tag)  # a boolean, a double


@st.composite
def boundary_frames(draw, cls):
    """A ``cls`` frame with one declared field at a boundary."""
    frame = draw(frames(cls))
    name, tag = draw(st.sampled_from(cls.SCHEMA.fields))
    fields = dict(fields_of(frame))
    fields[name] = draw(boundaries(tag, fields[name]))
    return cls(**fields)


def any_boundary_frame():
    return st.one_of([boundary_frames(cls) for cls in FRAMES])
