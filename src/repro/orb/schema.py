"""One declaration per wire frame, and the codec derived from it.

A frame class declares its fields once, in wire order, as ``(name,
tag)`` pairs (:class:`Schema`).  The tags are :mod:`repro.orb.cdr`'s,
with three differences:

* ``("struct", ...)`` values are tuples in field order, not dicts;
* :func:`one_of` is a primitive whose decoded value must be one of a
  table of codes (the table also names them in the repr); the encoder
  writes any value the primitive holds;
* :data:`TAIL` is the rest of the stream as raw bytes, with no length
  prefix (a GIOP body); it can only be the last field.

From that one list the schema derives encode, decode, repr and, when the
declaration names two ``holes``, the hot byte template.  Each is
compiled once: the leading run of fixed-size primitives, whose CDR
alignment is known statically, packs as one precomputed
:class:`struct.Struct`; every later field is a closure that pads to its
alignment.  The bytes are exactly :class:`~repro.orb.cdr.CdrEncoder`'s.

Only the canonical encoding of a frame decodes: nonzero padding,
bytes after the last field or a boolean of 2 are rejected as
corruption.  Digests are over raw bytes and signatures over
re-encodings, so a frame with two encodings could make two validly
signed frames out of one honest one.
"""

import struct
from operator import attrgetter

from repro import perf
from repro.orb.cdr import _PRIMITIVES, MarshalError

#: a raw byte tail with no length prefix (the last field only)
TAIL = "tail"

#: primitive tag -> struct format character ("?" reads a boolean as bool)
_CODES = dict({tag: packer.format[-1] for tag, (packer, _) in _PRIMITIVES.items()}, boolean="?")
_PAD = [b"\x00" * n for n in range(8)]
_U32 = struct.Struct("<I")
#: what malformed bytes raise inside the codec
_ERRORS = (MarshalError, struct.error, ValueError, IndexError)


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

    elif tag[0] == "sequence":
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

    else:  # a struct
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

    return write, read


def _show(value, names=None):
    """One value for a repr: a code's name, a byte count, elements alike."""
    if isinstance(value, (bytes, bytearray)):
        return "<%d bytes>" % len(value)
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(_show, value))
    return str(names.get(value, value)) if names else repr(value)


class Schema:
    """The fields of one frame, and the codec compiled from them.

    A ``typed`` encoding starts with the frame's ``frame_type`` octet,
    which is not a field (the multicast frames).  ``holes`` names the
    two fields the hot template leaves open — a fixed-size unsigned
    primitive and the last field, ``octets`` or :data:`TAIL` — and
    ``memo`` the :mod:`repro.perf` table that keeps the templates, keyed
    by the other fields' values.  Decoding raises ``error``; encoding a
    value its tag cannot hold raises what :mod:`struct` or the value
    raises.
    """

    def __init__(self, *fields, typed=False, holes=None, memo=None, error=MarshalError):
        self.fields = fields
        self.names = tuple(name for name, _ in fields)
        self.error = error
        self._typed = int(typed)
        wire = (("frame_type", "octet"),) * self._typed + fields
        #: frame -> the tuple :meth:`pack` takes (its type, its fields)
        self.values = attrgetter(*(name for name, _ in wire))
        tags = [tag for _, tag in wire]
        fmt = "<"
        for count, tag in enumerate(tags + [None]):
            code = _code(tag)
            if code is None:
                break
            fmt += "x" * (-struct.calcsize(fmt) % struct.calcsize(code)) + code
        self._head, self._count = struct.Struct(fmt), count
        codecs = [_field(tag) for tag in tags]
        self._writers = [write for write, _ in codecs[count:]]
        self._readers = [read for _, read in codecs]
        self._order = None
        self.encode_hot = self.encode if holes is None else self._template(holes, memo, tags)

    def pack(self, values):
        """The encoding of ``values``, the frame type first if typed."""
        buf = self._head.pack(*values[: self._count])
        if self._writers:
            buf = bytearray(buf)
            for write, value in zip(self._writers, values[self._count :]):
                write(buf, value)
        return bytes(buf)

    def unpack(self, data):
        """The values ``data`` is the encoding of, the type first if
        typed; raises ``error`` unless ``data`` is exactly what
        :meth:`pack` makes of them."""
        data, values, pos = bytes(data), [], 0
        try:
            for read in self._readers:
                value, pos = read(data, pos)
                values.append(value)
        except _ERRORS as exc:
            raise self.error("malformed frame: %s" % exc)
        if pos != len(data):
            raise self.error("non-canonical frame: %d bytes after it" % (len(data) - pos))
        return values

    def encode(self, frame):
        return self.pack(self.values(frame))

    def decode(self, cls, data, **extra):
        """The ``cls`` frame ``data`` is the encoding of; ``extra`` are
        constructor arguments that are not fields."""
        values = self.unpack(data)
        if self._typed and values.pop(0) != cls.frame_type:
            raise self.error("not a %s frame" % cls.__name__)
        order = self._order
        if order is None:  # the constructor's leading parameters, by wire position
            params = cls.__init__.__code__.co_varnames[1 : len(values) + 1]
            order = self._order = [self.names.index(name) for name in params]
            if params == self.names:
                order = self._order = ()
        if order:
            values = [values[i] for i in order]
        return cls(*values, **extra)

    def repr(self, frame):
        shown = (
            "%s=%s" % (name, _show(getattr(frame, name), tag[0] == "one_of" and tag[2]))
            for name, tag in self.fields
        )
        return "%s(%s)" % (type(frame).__name__, ", ".join(shown))

    def _template(self, holes, memo, tags):
        """The hot encode: the bytes around the two holes are one template
        per value of the other fields, kept in the ``memo`` table, so an
        encode is two packs and a concatenation."""
        hole, tail = holes
        index = self._typed + self.names.index(hole)
        hole_struct = struct.Struct("<" + _CODES[tags[index]])
        pack_hole = hole_struct.pack
        if tail != self.names[-1] or tags[-1] not in ("octets", TAIL):
            raise MarshalError("a template's tail is the last field")
        prefixed = tags[-1] == "octets"
        key_of = attrgetter(*(name for name in self.names if name not in holes))
        hole_of, tail_of = attrgetter(hole), attrgetter(tail)
        table = perf.register_cache(perf.BytesKeyedCache(memo))

        def derive(frame):
            """(prefix, mid) from two probe encodings that differ only in
            the hole, checked once against :meth:`pack`."""
            values = list(self.values(frame))
            values[index], values[-1] = 0, b""
            low = self.pack(values)
            values[index] = 2 ** (8 * hole_struct.size) - 1  # the hole is unsigned
            at = next(i for i, (a, b) in enumerate(zip(low, self.pack(values))) if a != b)
            prefix, mid = low[:at], low[at + hole_struct.size : len(low) - 4 * prefixed]
            values[index], values[-1] = 123, b"xyz"
            length = _U32.pack(3) if prefixed else b""
            if prefix + pack_hole(123) + mid + length + b"xyz" != self.pack(values):
                raise MarshalError("encode template mismatch")
            return prefix, mid

        def encode_hot(frame):
            key = key_of(frame)
            template = table.get(key)
            if template is None:
                template = table.put(key, derive(frame))
            prefix, mid = template
            tail = tail_of(frame)
            if prefixed:
                return prefix + pack_hole(hole_of(frame)) + mid + _U32.pack(len(tail)) + tail
            return prefix + pack_hole(hole_of(frame)) + mid + tail

        return encode_hot


class Frame:
    """A wire frame whose codec its :class:`Schema` ``SCHEMA`` derives.

    ``_encode`` is the plain encoding, no template and no memo; a frame
    with a hot path overrides ``encode``.
    """

    __slots__ = ()
    SCHEMA = None

    def _encode(self):
        return self.SCHEMA.encode(self)

    def encode(self):
        return self._encode()

    @classmethod
    def decode(cls, data):
        return cls.SCHEMA.decode(cls, data)

    def __repr__(self):
        return self.SCHEMA.repr(self)
