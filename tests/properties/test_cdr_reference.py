"""Oracle: the generated CDR codec against a reference written from the spec.

The reference below is a direct reading of the CDR rules the codec
implements — a primitive pads with zeros to its own size and is
little-endian, a byte string is a ulong length then the bytes, a string
is the byte string of its UTF-8 and a NUL, a sequence is a ulong count
then the elements, a struct or record its fields in order, an enum or a
union's case a ulong ordinal — one value at a time, with ``struct``
only and nothing of :mod:`repro.orb.cdr`.  The generated writers must
make its bytes and the generated readers read its values, for every
kind of tag at every start offset modulo 8 and for the twelve declared
wire frames; and the readers must refuse exactly the bytes it refuses.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.multicast.messages import _SignedFrame
from repro.orb.cdr import CdrDecoder, CdrEncoder, MarshalError
from repro.orb.schema import Schema, one_of
from tests.properties.frames import FRAMES, any_boundary_frame, any_frame
from tests.properties.test_cdr_roundtrip import typed_values

#: the wire format of each primitive, by its tag
FORMATS = {
    "boolean": "B",
    "octet": "B",
    "short": "h",
    "ushort": "H",
    "long": "i",
    "ulong": "I",
    "longlong": "q",
    "ulonglong": "Q",
    "float": "f",
    "double": "d",
}


class Refused(Exception):
    """The reference reader's verdict on bytes that are no encoding."""


def ref_write(buf, tag, value):
    """Append the encoding of ``value`` to the bytearray ``buf``."""
    if isinstance(tag, tuple) and tag[0] == "one_of":
        tag = tag[1]
    if tag in FORMATS:
        buf.extend(bytes(-len(buf) % struct.calcsize(FORMATS[tag])))
        buf.extend(struct.pack("<" + FORMATS[tag], int(bool(value)) if tag == "boolean" else value))
    elif tag == "string":
        ref_write(buf, "octets", value.encode("utf-8") + b"\x00")
    elif tag == "octets":
        ref_write(buf, "ulong", len(value))
        buf.extend(value)
    elif tag == "tail":
        buf.extend(value)
    elif tag[0] == "sequence":
        ref_write(buf, "ulong", len(value))
        for element in value:
            ref_write(buf, tag[1], element)
    elif tag[0] == "record":
        assert len(value) == len(tag[1])
        for (_, field_tag), field in zip(tag[1], value):
            ref_write(buf, field_tag, field)
    elif tag[0] == "struct":
        for name, field_tag in tag[1]:
            ref_write(buf, field_tag, value[name])
    elif tag[0] == "enum":
        ref_write(buf, "ulong", list(tag[1]).index(value))
    else:  # a union: the case's ordinal, then its value
        label, branch_value = value
        labels = [case for case, _ in tag[1]]
        ref_write(buf, "ulong", labels.index(label))
        ref_write(buf, tag[1][labels.index(label)][1], branch_value)


def ref_read(data, pos, tag):
    """``(value, end)`` of the ``tag`` value encoded at ``pos``."""
    if isinstance(tag, tuple) and tag[0] == "one_of":
        value, pos = ref_read(data, pos, tag[1])
        if value not in tag[2]:
            raise Refused("no such code")
        return value, pos
    if tag in FORMATS:
        size = struct.calcsize(FORMATS[tag])
        pad = -pos % size
        if data[pos : pos + pad] != bytes(pad):
            raise Refused("padding")
        pos += pad
        if pos + size > len(data):
            raise Refused("truncated")
        (value,) = struct.unpack_from("<" + FORMATS[tag], data, pos)
        if tag == "boolean":
            if value > 1:
                raise Refused("boolean")
            value = value == 1
        if tag == "float" and value != value and struct.pack("<f", value) != data[pos : pos + 4]:
            raise Refused("float NaN")
        return value, pos + size
    if tag == "string":
        raw, pos = ref_read(data, pos, "octets")
        if not raw or raw[-1] != 0:
            raise Refused("no NUL")
        return raw[:-1].decode("utf-8"), pos
    if tag == "octets":
        length, pos = ref_read(data, pos, "ulong")
        if pos + length > len(data):
            raise Refused("truncated")
        return data[pos : pos + length], pos + length
    if tag == "tail":
        return data[pos:], len(data)
    kind, detail = tag
    if kind == "sequence":
        count, pos = ref_read(data, pos, "ulong")
        values = []
        for _ in range(count):
            value, pos = ref_read(data, pos, detail)
            values.append(value)
        return values, pos
    if kind in ("record", "struct"):
        values = []
        for _, field_tag in detail:
            value, pos = ref_read(data, pos, field_tag)
            values.append(value)
        if kind == "record":
            return tuple(values), pos
        return dict(zip((name for name, _ in detail), values)), pos
    ordinal, pos = ref_read(data, pos, "ulong")
    if ordinal >= len(detail):
        raise Refused("ordinal")
    if kind == "enum":
        return detail[ordinal], pos
    label, branch = detail[ordinal]
    value, pos = ref_read(data, pos, branch)
    return (label, value), pos


def ref_encode(tags, values):
    buf = bytearray()
    for tag, value in zip(tags, values):
        ref_write(buf, tag, value)
    return bytes(buf)


def ref_decode(tags, data):
    """The values ``data`` is exactly the encoding of."""
    values, pos = [], 0
    for tag in tags:
        value, pos = ref_read(data, pos, tag)
        values.append(value)
    if pos != len(data):
        raise Refused("bytes after the last field")
    return values


def verdict(read, *args):
    """``("refused", None)`` or ``("read", value)``, what ``read`` makes of ``args``."""
    try:
        return "read", typed(read(*args))
    except (Refused, struct.error, UnicodeDecodeError, MarshalError):
        return "refused", None


def typed(value):
    """``value`` with the type of every part, so ``[1] != (1,)`` and ``True != 1``."""
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(item) for item in value])
    if isinstance(value, dict):
        return (dict, sorted((key, typed(item)) for key, item in value.items()))
    return (type(value), value)


def wire_tags(schema):
    return [tag for _, tag in schema.wire]


def compiled_at(offset, tag, value):
    """What the cursor writes for ``value`` after ``offset`` octets."""
    encoder = CdrEncoder()
    for _ in range(offset):
        encoder.write("octet", 0xEE)
    return encoder.write(tag, value).getvalue()


def compiled_read(data, offset, tag):
    decoder = CdrDecoder(data, offset)
    return decoder.read(tag), decoder.position


# ----------------------------------------------------------------------
# bytes and values equal to the reference's
# ----------------------------------------------------------------------


@given(typed_values(), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_a_value_at_every_offset_is_the_references_bytes(tagged, offset):
    tag, value = tagged
    expected = bytearray(b"\xee" * offset)
    ref_write(expected, tag, value)
    data = compiled_at(offset, tag, value)
    assert data == bytes(expected)
    assert verdict(compiled_read, data, offset, tag) == verdict(ref_read, data, offset, tag)
    assert compiled_read(data, offset, tag)[1] == len(data)
    assert typed(compiled_read(data, offset, tag)[0]) == typed(value)


def _frame_matches_reference(frame):
    schema = type(frame).SCHEMA
    tags, values = wire_tags(schema), schema.values(frame)
    data = ref_encode(tags, values)
    assert schema.pack(values) == schema.encode(frame) == data
    assert typed(schema.unpack(data)) == typed(ref_decode(tags, data))
    if isinstance(frame, _SignedFrame):  # the envelope around the signable bytes
        signature = frame.signature.to_bytes(max(1, (frame.signature.bit_length() + 7) // 8), "big")
        expected = ref_encode(["octet", "octets", "octets"], [frame.frame_type, data, signature])
        assert frame.encode() == expected


@given(any_frame())
@settings(max_examples=150, deadline=None)
def test_every_declared_frame_is_the_references_bytes(frame):
    _frame_matches_reference(frame)


@given(any_boundary_frame())
@settings(max_examples=100, deadline=None)
def test_a_frame_with_a_field_at_a_boundary_is_the_references_bytes(frame):
    _frame_matches_reference(frame)


def test_the_twelve_frames_are_all_drawn():
    assert len(FRAMES) == 12


# ----------------------------------------------------------------------
# the same verdict on bytes that may be no encoding
# ----------------------------------------------------------------------


@st.composite
def mutated(draw, data):
    """``data`` with one byte changed, cut short, or followed by more."""
    how = draw(st.sampled_from(["flip", "cut", "extend"]))
    if how == "cut" or (how == "flip" and not data):
        return data[: draw(st.integers(0, max(0, len(data) - 1)))]
    if how == "extend":
        return data + draw(st.binary(min_size=1, max_size=9))
    index = draw(st.integers(0, len(data) - 1))
    flipped = bytearray(data)
    flipped[index] = draw(st.integers(0, 255).filter(lambda b: b != data[index]))
    return bytes(flipped)


def _schema_unpack(schema, data):
    try:
        return schema.unpack(data)
    except schema.error as exc:
        raise Refused(str(exc))


@given(any_frame(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_frame_reader_refuses_exactly_what_the_reference_refuses(frame, data):
    schema = type(frame).SCHEMA
    tags = wire_tags(schema)
    raw = data.draw(mutated(schema.encode(frame)), label="bytes")
    assert verdict(_schema_unpack, schema, raw) == verdict(ref_decode, tags, raw)


@given(typed_values(), st.integers(0, 7), st.data())
@settings(max_examples=300, deadline=None)
def test_a_value_reader_refuses_exactly_what_the_reference_refuses(tagged, offset, data):
    tag, value = tagged
    raw = compiled_at(offset, tag, value)
    body = data.draw(mutated(raw[offset:]), label="bytes")
    raw = raw[:offset] + body
    assert verdict(compiled_read, raw, offset, tag) == verdict(ref_read, raw, offset, tag)


#: (what is wrong, declaration, bytes): each refused by both readers
NON_CANONICAL = [
    ("nonzero padding", (("a", "octet"), ("b", "ulong")), b"\x01\x00\x07\x00\x02\x00\x00\x00"),
    (
        "nonzero padding after a string",
        (("a", "string"), ("b", "ulong")),
        b"\x02\x00\x00\x00a\x00\x07\x00\x02\x00\x00\x00",
    ),
    (
        "nonzero element padding",
        (("a", ("sequence", "ulonglong")),),
        b"\x01\x00\x00\x00" + b"\x01\x00\x00\x00" + bytes(8),
    ),
    ("boolean 2", (("a", "boolean"),), b"\x02"),
    ("boolean 2 in a sequence", (("a", ("sequence", "boolean")),), b"\x02\x00\x00\x00\x01\x02"),
    ("unknown one_of code", (("a", one_of("octet", {1: "one", 2: "two"})),), b"\x03"),
    ("a string without its NUL", (("a", "string"),), b"\x02\x00\x00\x00ab"),
    ("an empty string without its NUL", (("a", "string"),), b"\x00\x00\x00\x00"),
    ("a truncated byte string", (("a", "octets"),), b"\x05\x00\x00\x00abc"),
    ("a truncated primitive", (("a", "ulong"),), b"\x01\x00"),
    ("a sequence longer than the data", (("a", ("sequence", "octet")),), b"\xff\xff\xff\xff\x01"),
    ("an enum ordinal out of range", (("a", ("enum", ("A", "B"))),), b"\x02\x00\x00\x00"),
    ("a union case out of range", (("a", ("union", (("x", "octet"),))),), b"\x01\x00\x00\x00\x00"),
    ("bytes after the last field", (("a", "ulong"),), b"\x01\x00\x00\x00\x00"),
    ("a float NaN that is a widened double", (("a", "float"),), b"\x01\x00\x80\x7f"),
]


@pytest.mark.parametrize("fields,data", [case[1:] for case in NON_CANONICAL],
                         ids=[case[0] for case in NON_CANONICAL])
def test_non_canonical_bytes_are_refused_by_both(fields, data):
    schema = Schema(*fields)
    assert verdict(ref_decode, wire_tags(schema), data)[0] == "refused"
    with pytest.raises(MarshalError):
        schema.unpack(data)
