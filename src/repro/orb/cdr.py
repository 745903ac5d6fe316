"""Common Data Representation (CDR) marshalling.

Implements the subset of CORBA CDR needed by the mini-ORB and the
Secure Multicast Protocols' wire formats: little-endian primitives with
CDR's natural alignment rules, strings (length-prefixed,
NUL-terminated), octet sequences, and homogeneous sequences.

Typed values are described by small *type tags* so that IDL operation
signatures can drive marshalling generically:

* ``"boolean" | "octet" | "short" | "ushort" | "long" | "ulong" |
  "longlong" | "ulonglong" | "float" | "double" | "string" | "octets"``
* ``("sequence", element_tag)`` for homogeneous sequences;
* ``("struct", (("field", tag), ...))`` for records, marshalled in
  declaration order and decoded to dicts;
* ``("enum", ("RED", "GREEN", ...))`` for IDL enums, marshalled as the
  member's ordinal (ulong) and decoded back to the member name;
* ``("union", (("case_label", branch_tag), ...))`` for IDL unions,
  marshalled as the case ordinal followed by the branch value, and
  represented in Python as ``(case_label, value)`` pairs.

Every primitive also has a direct method (``write_ulong``,
``read_ulonglong``, ...) compiled against a precompiled
:class:`struct.Struct`, which the generic ``write``/``read`` dispatch
to.  The wire frames are marshalled by :mod:`repro.orb.schema`, compiled
from their declarations, byte-identically.
"""

import struct


class MarshalError(Exception):
    """Raised on malformed CDR data or unsupported types."""


#: tag -> (precompiled Struct, size/alignment)
_PRIMITIVES = {
    "boolean": (struct.Struct("<B"), 1),
    "octet": (struct.Struct("<B"), 1),
    "short": (struct.Struct("<h"), 2),
    "ushort": (struct.Struct("<H"), 2),
    "long": (struct.Struct("<i"), 4),
    "ulong": (struct.Struct("<I"), 4),
    "longlong": (struct.Struct("<q"), 8),
    "ulonglong": (struct.Struct("<Q"), 8),
    "float": (struct.Struct("<f"), 4),
    "double": (struct.Struct("<d"), 8),
}

_PADDING = {n: b"\x00" * n for n in range(1, 8)}


class CdrEncoder:
    """Builds a CDR byte string with correct alignment."""

    def __init__(self):
        self._parts = bytearray()

    def write(self, tag, value):
        """Marshal ``value`` described by type ``tag``."""
        if isinstance(tag, tuple):
            kind = tag[0]
            if kind == "sequence":
                if not isinstance(value, (list, tuple)):
                    raise MarshalError("sequence requires list/tuple, got %r" % type(value))
                self.write_ulong(len(value))
                for item in value:
                    self.write(tag[1], item)
                return self
            if kind == "struct":
                if not isinstance(value, dict):
                    raise MarshalError("struct requires dict, got %r" % type(value))
                for field, field_tag in tag[1]:
                    if field not in value:
                        raise MarshalError("struct missing field %r" % field)
                    self.write(field_tag, value[field])
                return self
            if kind == "enum":
                members = tag[1]
                if value not in members:
                    raise MarshalError(
                        "enum value %r not in %r" % (value, list(members))
                    )
                self.write_ulong(members.index(value))
                return self
            if kind == "union":
                cases = tag[1]
                if not (isinstance(value, tuple) and len(value) == 2):
                    raise MarshalError(
                        "union requires a (case_label, value) pair, got %r" % (value,)
                    )
                label, branch_value = value
                labels = [case_label for case_label, _ in cases]
                if label not in labels:
                    raise MarshalError("union case %r not in %r" % (label, labels))
                index = labels.index(label)
                self.write_ulong(index)
                self.write(cases[index][1], branch_value)
                return self
            raise MarshalError("unknown composite tag %r" % (tag,))
        writer = _WRITERS.get(tag)
        if writer is not None:
            return writer(self, value)
        if tag == "string":
            return self.write_string(value)
        if tag == "octets":
            return self.write_octets(value)
        raise MarshalError("unknown type tag %r" % (tag,))

    def write_string(self, value):
        if not isinstance(value, str):
            raise MarshalError("string tag requires str, got %r" % type(value))
        data = value.encode("utf-8")
        self.write_ulong(len(data) + 1)  # CDR counts the terminating NUL
        parts = self._parts
        parts.extend(data)
        parts.append(0)
        return self

    def write_octets(self, value):
        if not isinstance(value, (bytes, bytearray)):
            raise MarshalError("octets tag requires bytes, got %r" % type(value))
        self.write_ulong(len(value))
        self._parts.extend(value)
        return self

    def getvalue(self):
        return bytes(self._parts)

    def __len__(self):
        return len(self._parts)


class CdrDecoder:
    """Reads values back out of a CDR byte string."""

    def __init__(self, data, offset=0):
        self._data = bytes(data)
        self._pos = offset

    def read(self, tag):
        """Unmarshal one value described by type ``tag``."""
        if isinstance(tag, tuple):
            kind = tag[0]
            if kind == "sequence":
                length = self.read_ulong()
                if length > len(self._data) - self._pos:
                    raise MarshalError("sequence length %d exceeds data" % length)
                return [self.read(tag[1]) for _ in range(length)]
            if kind == "struct":
                return {field: self.read(field_tag) for field, field_tag in tag[1]}
            if kind == "enum":
                members = tag[1]
                ordinal = self.read_ulong()
                if ordinal >= len(members):
                    raise MarshalError(
                        "enum ordinal %d out of range for %r" % (ordinal, list(members))
                    )
                return members[ordinal]
            if kind == "union":
                cases = tag[1]
                index = self.read_ulong()
                if index >= len(cases):
                    raise MarshalError("union discriminator %d out of range" % index)
                label, branch_tag = cases[index]
                return (label, self.read(branch_tag))
            raise MarshalError("unknown composite tag %r" % (tag,))
        reader = _READERS.get(tag)
        if reader is not None:
            return reader(self)
        if tag == "string":
            return self.read_string()
        if tag == "octets":
            return self.read_octets()
        raise MarshalError("unknown type tag %r" % (tag,))

    def read_string(self):
        length = self.read_ulong()
        if length == 0:
            raise MarshalError("CDR string length must include the NUL")
        pos = self._pos
        end = pos + length
        data = self._data
        if end > len(data):
            raise MarshalError("truncated CDR string")
        if data[end - 1]:
            raise MarshalError("CDR string missing NUL terminator")
        self._pos = end
        try:
            return data[pos : end - 1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError("invalid UTF-8 in CDR string: %s" % exc)

    def read_octets(self):
        length = self.read_ulong()
        pos = self._pos
        end = pos + length
        if end > len(self._data):
            raise MarshalError("truncated CDR octet sequence")
        self._pos = end
        return self._data[pos:end]

    @property
    def position(self):
        return self._pos

    def remaining(self):
        return len(self._data) - self._pos

    def at_end(self):
        return self._pos >= len(self._data)


# ----------------------------------------------------------------------
# primitive methods: one precompiled Struct call per primitive, attached
# to the classes as write_<tag> / read_<tag>
# ----------------------------------------------------------------------

def _make_writer(tag):
    packer, size = _PRIMITIVES[tag]
    pack = packer.pack
    boolean = tag == "boolean"

    def writer(self, value):
        parts = self._parts
        remainder = len(parts) % size
        if remainder:
            parts.extend(_PADDING[size - remainder])
        try:
            if boolean:
                value = 1 if value else 0
            parts.extend(pack(value))
        except struct.error as exc:
            raise MarshalError("cannot marshal %r as %s: %s" % (value, tag, exc))
        return self

    writer.__name__ = "write_" + tag
    return writer


def _make_reader(tag):
    unpacker, size = _PRIMITIVES[tag]
    unpack_from = unpacker.unpack_from
    boolean = tag == "boolean"

    def reader(self):
        pos = self._pos
        remainder = pos % size
        if remainder:
            pos += size - remainder
        end = pos + size
        data = self._data
        if end > len(data):
            raise MarshalError("truncated CDR data reading %s" % tag)
        (value,) = unpack_from(data, pos)
        self._pos = end
        if boolean:
            return bool(value)
        return value

    reader.__name__ = "read_" + tag
    return reader


_WRITERS = {tag: _make_writer(tag) for tag in _PRIMITIVES}
_READERS = {tag: _make_reader(tag) for tag in _PRIMITIVES}

for _tag in _PRIMITIVES:
    setattr(CdrEncoder, "write_" + _tag, _WRITERS[_tag])
    setattr(CdrDecoder, "read_" + _tag, _READERS[_tag])
del _tag
