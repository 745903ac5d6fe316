"""Unit tests for CDR marshalling."""

import struct

import pytest

from repro.orb.cdr import CdrDecoder, CdrEncoder, MarshalError


def roundtrip(tag, value):
    data = CdrEncoder().write(tag, value).getvalue()
    return CdrDecoder(data).read(tag)


@pytest.mark.parametrize(
    "tag,value",
    [
        ("boolean", True),
        ("boolean", False),
        ("octet", 255),
        ("short", -12345),
        ("ushort", 54321),
        ("long", -2_000_000_000),
        ("ulong", 4_000_000_000),
        ("longlong", -(2**62)),
        ("ulonglong", 2**63),
        ("double", 3.141592653589793),
        ("string", "hello world"),
        ("string", ""),
        ("string", "ünïcödé"),
        ("octets", b"\x00\x01\xff"),
        ("octets", b""),
        (("sequence", "long"), [1, -2, 3]),
        (("sequence", "string"), ["a", "bb", ""]),
        (("sequence", ("sequence", "octet")), [[1, 2], [], [3]]),
        (
            ("struct", (("id", "ulong"), ("name", "string"))),
            {"id": 7, "name": "replica"},
        ),
    ],
)
def test_roundtrip(tag, value):
    assert roundtrip(tag, value) == value


def test_float_roundtrip_is_approximate():
    assert roundtrip("float", 1.5) == 1.5  # exactly representable


COLOR = ("enum", ("RED", "GREEN", "BLUE"))
SHAPE = (
    "union",
    (("circle", "double"), ("label", "string"), ("points", ("sequence", "long"))),
)


@pytest.mark.parametrize("value", ["RED", "GREEN", "BLUE"])
def test_enum_roundtrip(value):
    assert roundtrip(COLOR, value) == value


def test_enum_is_marshalled_as_ordinal():
    data = CdrEncoder().write(COLOR, "BLUE").getvalue()
    assert data == (2).to_bytes(4, "little")


def test_enum_unknown_member_rejected():
    with pytest.raises(MarshalError):
        CdrEncoder().write(COLOR, "MAUVE")


def test_enum_out_of_range_ordinal_rejected():
    data = (9).to_bytes(4, "little")
    with pytest.raises(MarshalError):
        CdrDecoder(data).read(COLOR)


@pytest.mark.parametrize(
    "value",
    [("circle", 2.5), ("label", "hello"), ("points", [1, 2, 3])],
)
def test_union_roundtrip(value):
    assert roundtrip(SHAPE, value) == value


def test_union_unknown_case_rejected():
    with pytest.raises(MarshalError):
        CdrEncoder().write(SHAPE, ("triangle", 1))


def test_union_requires_pair():
    with pytest.raises(MarshalError):
        CdrEncoder().write(SHAPE, "circle")


def test_union_bad_discriminator_rejected():
    data = (9).to_bytes(4, "little")
    with pytest.raises(MarshalError):
        CdrDecoder(data).read(SHAPE)


def test_enum_inside_struct_and_sequence():
    tag = ("struct", (("colors", ("sequence", COLOR)), ("pick", SHAPE)))
    value = {"colors": ["RED", "RED", "BLUE"], "pick": ("label", "x")}
    assert roundtrip(tag, value) == value


def test_alignment_of_mixed_fields():
    encoder = CdrEncoder()
    encoder.write("octet", 1)
    encoder.write("ulong", 0x11223344)  # must align to offset 4
    data = encoder.getvalue()
    assert len(data) == 8
    assert data[1:4] == b"\x00\x00\x00"
    decoder = CdrDecoder(data)
    assert decoder.read("octet") == 1
    assert decoder.read("ulong") == 0x11223344


def test_alignment_of_double_after_short():
    encoder = CdrEncoder()
    encoder.write("short", 1)
    encoder.write("double", 2.0)
    data = encoder.getvalue()
    assert len(data) == 16
    decoder = CdrDecoder(data)
    decoder.read("short")
    assert decoder.read("double") == 2.0


def test_string_includes_nul_in_length():
    data = CdrEncoder().write("string", "ab").getvalue()
    assert data[:4] == (3).to_bytes(4, "little")
    assert data[4:7] == b"ab\x00"


def test_truncated_data_raises():
    data = CdrEncoder().write("ulong", 7).getvalue()
    with pytest.raises(MarshalError):
        CdrDecoder(data[:2]).read("ulong")


def test_truncated_string_raises():
    data = CdrEncoder().write("string", "hello").getvalue()
    with pytest.raises(MarshalError):
        CdrDecoder(data[:-2]).read("string")


def test_string_without_nul_raises():
    encoder = CdrEncoder()
    encoder.write("ulong", 2)
    data = encoder.getvalue() + b"ab"
    with pytest.raises(MarshalError):
        CdrDecoder(data).read("string")


def test_absurd_sequence_length_raises():
    data = CdrEncoder().write("ulong", 2**31).getvalue()
    with pytest.raises(MarshalError):
        CdrDecoder(data).read(("sequence", "octet"))


def test_unknown_tag_raises():
    with pytest.raises(MarshalError):
        CdrEncoder().write("wchar", "x")
    with pytest.raises(MarshalError):
        CdrDecoder(b"\x00\x00\x00\x00").read(("map", "x"))


def test_type_mismatch_raises():
    with pytest.raises(MarshalError):
        CdrEncoder().write("string", 42)
    with pytest.raises(MarshalError):
        CdrEncoder().write("octets", "not bytes")
    with pytest.raises(MarshalError):
        CdrEncoder().write(("sequence", "long"), 42)
    with pytest.raises(MarshalError):
        CdrEncoder().write("ulong", -1)


def test_struct_missing_field_raises():
    tag = ("struct", (("a", "long"), ("b", "long")))
    with pytest.raises(MarshalError):
        CdrEncoder().write(tag, {"a": 1})


def test_decoder_position_tracking():
    data = CdrEncoder().write("ulong", 1).write("ulong", 2).getvalue()
    decoder = CdrDecoder(data)
    assert decoder.remaining() == 8
    decoder.read("ulong")
    assert decoder.position == 4
    assert not decoder.at_end()
    decoder.read("ulong")
    assert decoder.at_end()


# ----------------------------------------------------------------------
# alignment edge cases and struct.pack-oracle equivalence
# ----------------------------------------------------------------------

PRIMITIVE_SAMPLES = {
    "boolean": True,
    "octet": 0xA5,
    "short": -31000,
    "ushort": 61000,
    "long": -2_000_000_000,
    "ulong": 4_000_000_000,
    "longlong": -(2**62),
    "ulonglong": 2**63,
    "float": 1.5,
    "double": -2.25,
}

#: the wire format of each primitive, stated independently of the codec
FORMATS = {
    "boolean": "<B",
    "octet": "<B",
    "short": "<h",
    "ushort": "<H",
    "long": "<i",
    "ulong": "<I",
    "longlong": "<q",
    "ulonglong": "<Q",
    "float": "<f",
    "double": "<d",
}

SIZES = {tag: struct.calcsize(fmt) for tag, fmt in FORMATS.items()}


def oracle_append(buf, tag, value):
    """Reference CDR write: pad to natural alignment, then ``struct.pack``."""
    buf.extend(b"\x00" * (-len(buf) % SIZES[tag]))
    buf.extend(struct.pack(FORMATS[tag], value))


@pytest.mark.parametrize("tag", sorted(PRIMITIVE_SAMPLES))
@pytest.mark.parametrize("offset", range(1, 8))
def test_primitive_alignment_at_every_odd_offset(tag, offset):
    """Each primitive pads to its natural alignment from any offset."""
    value = PRIMITIVE_SAMPLES[tag]
    size = SIZES[tag]
    encoder = CdrEncoder()
    for _ in range(offset):
        encoder.write("octet", 0xEE)
    encoder.write(tag, value)
    data = encoder.getvalue()
    aligned = offset + (-offset % size)
    assert len(data) == aligned + size
    assert data[offset:aligned] == b"\x00" * (aligned - offset)
    decoder = CdrDecoder(data)
    for _ in range(offset):
        assert decoder.read("octet") == 0xEE
    assert decoder.read(tag) == value
    assert decoder.at_end()


@pytest.mark.parametrize("offset", range(1, 8))
def test_empty_string_and_octets_at_odd_offsets(offset):
    encoder = CdrEncoder()
    for _ in range(offset):
        encoder.write("octet", 1)
    encoder.write("string", "")
    encoder.write("octets", b"")
    encoder.write("ulong", 7)
    data = encoder.getvalue()
    decoder = CdrDecoder(data)
    for _ in range(offset):
        decoder.read("octet")
    assert decoder.read("string") == ""
    assert decoder.read("octets") == b""
    assert decoder.read("ulong") == 7
    assert decoder.at_end()


def test_nested_struct_sequence_alignment():
    """Interior padding of composites survives a roundtrip from offset 1."""
    inner = ("struct", (("flag", "octet"), ("weight", "double")))
    tag = (
        "struct",
        (
            ("kind", "octet"),
            ("items", ("sequence", inner)),
            ("tail", "ushort"),
        ),
    )
    value = {
        "kind": 3,
        "items": [
            {"flag": 1, "weight": 0.5},
            {"flag": 0, "weight": -1.25},
            {"flag": 7, "weight": 1e9},
        ],
        "tail": 513,
    }
    encoder = CdrEncoder()
    encoder.write("octet", 0xFF)  # start the composite at offset 1
    encoder.write(tag, value)
    decoder = CdrDecoder(encoder.getvalue())
    assert decoder.read("octet") == 0xFF
    assert decoder.read(tag) == value
    assert decoder.at_end()


@pytest.mark.parametrize("tag", sorted(PRIMITIVE_SAMPLES))
@pytest.mark.parametrize("offset", range(1, 8))
def test_direct_writer_and_reader_match_struct_pack_oracle(tag, offset):
    """``write(tag, ...)``/``read(tag)`` agree with plain ``struct`` calls
    from every misaligned starting offset."""
    value = PRIMITIVE_SAMPLES[tag]
    expected = bytearray(b"\xee" * offset)
    oracle_append(expected, tag, value)
    expected.append(0x77)  # a trailing octet proves the cursor moved on

    encoder = CdrEncoder()
    for _ in range(offset):
        encoder.write("octet", 0xEE)
    assert encoder.write(tag, value) is encoder
    encoder.write("octet", 0x77)
    assert encoder.getvalue() == bytes(expected)

    decoder = CdrDecoder(bytes(expected))
    for _ in range(offset):
        assert decoder.read("octet") == 0xEE
    aligned = offset + (-offset % SIZES[tag])
    (oracle_value,) = struct.unpack_from(FORMATS[tag], expected, aligned)
    assert decoder.read(tag) == oracle_value == value
    assert decoder.read("octet") == 0x77
    assert decoder.at_end()


def test_mixed_stream_matches_struct_pack_oracle():
    """Every primitive, a string and an octet sequence in one stream at
    shifting offsets: the bytes are the oracle's, and decode back."""
    encoder = CdrEncoder()
    expected = bytearray()
    values = []
    encoder.write("octet", 1)
    oracle_append(expected, "octet", 1)
    for tag in sorted(PRIMITIVE_SAMPLES):
        encoder.write(tag, PRIMITIVE_SAMPLES[tag])
        oracle_append(expected, tag, PRIMITIVE_SAMPLES[tag])
        encoder.write("octet", 2)  # de-align before the next primitive
        oracle_append(expected, "octet", 2)
        values.append(PRIMITIVE_SAMPLES[tag])
    encoder.write("string", "odd-offset string")
    oracle_append(expected, "ulong", len("odd-offset string") + 1)
    expected.extend(b"odd-offset string\x00")
    encoder.write("octets", b"\x00\x01\x02")
    oracle_append(expected, "ulong", 3)
    expected.extend(b"\x00\x01\x02")
    data = encoder.getvalue()
    assert data == bytes(expected)

    decoder = CdrDecoder(data)
    assert decoder.read("octet") == 1
    for tag, value in zip(sorted(PRIMITIVE_SAMPLES), values):
        assert decoder.read(tag) == value
        assert decoder.read("octet") == 2
    assert decoder.read("string") == "odd-offset string"
    assert decoder.read("octets") == b"\x00\x01\x02"
    assert decoder.at_end()
