"""Common Data Representation (CDR) marshalling: the one codec.

Implements the subset of CORBA CDR needed by the mini-ORB and the
Secure Multicast Protocols' wire formats: little-endian primitives with
CDR's natural alignment rules, strings (length-prefixed,
NUL-terminated), octet sequences, and homogeneous sequences.

Typed values are described by small *type tags*:

* ``"boolean" | "octet" | "short" | "ushort" | "long" | "ulong" |
  "longlong" | "ulonglong" | "float" | "double" | "string" | "octets"``
* ``("sequence", element_tag)`` for homogeneous sequences (lists);
* ``("struct", (("field", tag), ...))`` for IDL structs, marshalled in
  declaration order and decoded to dicts;
* ``("record", (("field", tag), ...))``, the same bytes as the struct,
  written from and decoded to tuples in field order (the positional
  form declarations use for their entries);
* ``("enum", ("RED", "GREEN", ...))`` for IDL enums, marshalled as the
  member's ordinal (ulong) and decoded back to the member name;
* ``("union", (("case_label", branch_tag), ...))`` for IDL unions,
  marshalled as the case ordinal followed by the branch value, and
  represented in Python as ``(case_label, value)`` pairs;
* :func:`one_of` — a primitive that decodes only to one of a table of
  codes — and :data:`TAIL`, the rest of the stream as raw bytes with no
  length prefix (the last field only), for the wire frames.

Each tag compiles once (:func:`_field`) into a ``(write, read)`` pair;
:class:`~repro.orb.schema.Schema` compiles a declared field list from
them, and :class:`CdrEncoder`/:class:`CdrDecoder` are cursors that write
and read one value at a time through the same pairs.  A reader accepts
only the bytes its writer makes (zero padding, a boolean of 0 or 1, a
code of the table), so a whole-buffer decode is canonical.
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

#: a raw byte tail with no length prefix (the last field only)
TAIL = "tail"

#: primitive tag -> struct format character ("?" reads a boolean as bool)
_CODES = dict({tag: packer.format[-1] for tag, (packer, _) in _PRIMITIVES.items()}, boolean="?")
_PAD = [b"\x00" * n for n in range(8)]
_U32 = struct.Struct("<I")
#: what malformed bytes, or a value its tag cannot hold, raise inside the codec
ERRORS = (
    MarshalError, struct.error, ValueError, LookupError, TypeError, AttributeError, OverflowError
)


def one_of(tag, names):
    """A primitive ``tag`` that decodes only to a key of ``names``
    (code -> the name a repr shows)."""
    return ("one_of", tag, names)


def _code(tag):
    """The struct code of a fixed-size tag, else None."""
    if isinstance(tag, tuple):
        return _CODES[tag[1]] if tag[0] == "one_of" else None
    return _CODES.get(tag)


def _length(data, pos):
    """``(length, start)`` of the ulong length at ``pos``, over zero padding."""
    pad = -pos % 4
    if pad and data[pos : pos + pad] != _PAD[pad]:
        raise MarshalError("non-canonical (nonzero) CDR padding")
    pos += pad + 4
    return _U32.unpack_from(data, pos - 4)[0], pos


def _empty(tag):
    """Whether a ``tag`` value takes no bytes (a struct of no fields)."""
    if not isinstance(tag, tuple) or tag[0] not in ("struct", "record"):
        return False
    return all(_empty(field_tag) for _, field_tag in tag[1])


def _field(tag):
    """``(write, read)`` for ``tag``: ``write(buf, value)`` appends the
    value, padded, to a bytearray; ``read(data, pos)`` is ``(value, end)``
    and accepts only the bytes ``write`` makes: zero padding, a boolean
    of 0 or 1."""
    code = _code(tag)
    if code is not None:
        packer = struct.Struct("<" + code)
        pack, size = packer.pack, packer.size
        unpack_from = struct.Struct("<" + code.replace("?", "B")).unpack_from
        boolean = code == "?"
        codes = tag[2] if isinstance(tag, tuple) else None  # one_of

        def write(buf, value):
            buf += _PAD[-len(buf) % size]
            buf += pack(value)

        def read(data, pos):
            pad = -pos % size
            if pad and data[pos : pos + pad] != _PAD[pad]:
                raise MarshalError("non-canonical (nonzero) CDR padding")
            value = unpack_from(data, pos + pad)[0]
            if boolean:
                if value > 1:
                    raise MarshalError("non-canonical boolean octet %d" % value)
                value = value == 1
            elif codes is not None and value not in codes:
                raise MarshalError("unknown code %r" % (value,))
            return value, pos + pad + size

        if code == "f":  # a float NaN may widen to a double of other bits
            read_float = read

            def read(data, pos):
                value, end = read_float(data, pos)
                if value != value and pack(value) != data[end - 4 : end]:
                    raise MarshalError("non-canonical float NaN")
                return value, end

    elif tag in ("string", "octets"):
        string = tag == "string"

        def write(buf, value):
            if string:
                value = value.encode("utf-8") + b"\x00"  # CDR counts the NUL
            buf += _PAD[-len(buf) % 4]
            buf += _U32.pack(len(value))
            buf += value

        def read(data, pos):
            length, pos = _length(data, pos)
            end = pos + length
            if end > len(data) or string and (end == pos or data[end - 1]):
                raise MarshalError("truncated %s, or a string without its NUL" % tag)
            return (data[pos : end - 1].decode("utf-8") if string else data[pos:end]), end

    elif tag == TAIL:
        write = bytearray.extend

        def read(data, pos):
            return data[pos:], len(data)

    elif not isinstance(tag, tuple) or len(tag) != 2:
        raise MarshalError("unknown type tag %r" % (tag,))

    elif tag[0] == "sequence":
        if _empty(tag[1]):
            # no byte of the data could bound its length (IDL has no empty struct)
            raise MarshalError("a sequence of %r, which takes no bytes" % (tag[1],))
        write_item, read_item = _field(tag[1])

        def write(buf, value):
            buf += _PAD[-len(buf) % 4]
            buf += _U32.pack(len(value))
            for element in value:
                write_item(buf, element)

        def read(data, pos):
            length, pos = _length(data, pos)
            out = []
            # every element takes a byte at least: a wild length hits the end
            for _ in range(length):
                value, pos = read_item(data, pos)
                out.append(value)
            return out, pos

    elif tag[0] == "record":
        items = [_field(field_tag) for _, field_tag in tag[1]]

        def write(buf, value):
            for (write_item, _), element in zip(items, value):
                write_item(buf, element)

        def read(data, pos):
            out = []
            for _, read_item in items:
                value, pos = read_item(data, pos)
                out.append(value)
            return tuple(out), pos

    elif tag[0] == "struct":  # a record written from, and read to, a dict
        names = [name for name, _ in tag[1]]
        write_record, read_record = _field(("record", tag[1]))

        def write(buf, value):
            write_record(buf, [value[name] for name in names])

        def read(data, pos):
            values, pos = read_record(data, pos)
            return dict(zip(names, values)), pos

    elif tag[0] == "enum":
        members = tuple(tag[1])
        ordinals = {member: index for index, member in enumerate(members)}
        write_ulong, read_ulong = _field("ulong")

        def write(buf, value):
            if value not in ordinals:
                raise MarshalError("enum value %r not in %r" % (value, list(members)))
            write_ulong(buf, ordinals[value])

        def read(data, pos):
            ordinal, pos = read_ulong(data, pos)
            if ordinal >= len(members):
                raise MarshalError("enum ordinal %d out of range for %r" % (ordinal, members))
            return members[ordinal], pos

    elif tag[0] == "union":
        labels = [label for label, _ in tag[1]]
        branches = [_field(branch_tag) for _, branch_tag in tag[1]]
        write_ulong, read_ulong = _field("ulong")

        def write(buf, value):
            if not (isinstance(value, tuple) and len(value) == 2 and value[0] in labels):
                raise MarshalError("not a (case, value) pair of %r: %r" % (labels, value))
            index = labels.index(value[0])
            write_ulong(buf, index)
            branches[index][0](buf, value[1])

        def read(data, pos):
            index, pos = read_ulong(data, pos)
            if index >= len(labels):
                raise MarshalError("union discriminator %d out of range" % index)
            value, pos = branches[index][1](data, pos)
            return (labels[index], value), pos

    else:
        raise MarshalError("unknown composite tag %r" % (tag,))
    return write, read


#: tag -> its compiled (write, read), for the cursors
_COMPILED = {}


def _compiled(tag):
    codec = _COMPILED.get(tag)
    if codec is None:
        codec = _COMPILED[tag] = _field(tag)
    return codec


class CdrEncoder:
    """A cursor that builds a CDR byte string one value at a time."""

    def __init__(self):
        self._buf = bytearray()

    def write(self, tag, value):
        """Marshal ``value`` described by type ``tag``; a value the tag
        cannot hold raises :class:`MarshalError` and writes nothing."""
        buf = self._buf
        start = len(buf)
        try:
            _compiled(tag)[0](buf, value)
        except ERRORS as exc:
            del buf[start:]
            raise MarshalError("cannot marshal %r as %r: %s" % (value, tag, exc))
        return self

    def getvalue(self):
        return bytes(self._buf)

    def __len__(self):
        return len(self._buf)


class CdrDecoder:
    """A cursor that reads values back out of a CDR byte string."""

    def __init__(self, data, offset=0):
        self._data = bytes(data)
        self._pos = offset

    def read(self, tag):
        """Unmarshal one value described by type ``tag``."""
        try:
            value, self._pos = _compiled(tag)[1](self._data, self._pos)
        except ERRORS as exc:
            raise MarshalError("malformed CDR %r: %s" % (tag, exc))
        return value

    @property
    def position(self):
        return self._pos

    def remaining(self):
        return len(self._data) - self._pos

    def at_end(self):
        return self._pos >= len(self._data)
