"""One declaration per wire frame, and the codec derived from it.

A frame class declares its fields once, in wire order, as ``(name,
tag)`` pairs (:class:`Schema`).  The tags are :mod:`repro.orb.cdr`'s,
whose compiler is the only CDR implementation; frames use its
``("record", ...)`` entries, :func:`one_of` codes and :data:`TAIL`
bodies.  An IDL operation's arguments and result, a user exception, a
state checkpoint and a servant state are declared the same way and
marshal through :meth:`Schema.pack` / :meth:`Schema.unpack`.

From that one list the schema derives encode, decode, repr and, when the
declaration names two ``holes``, the hot byte template.  The whole
declaration is one generated function that writes it and one that
reads it (:func:`repro.orb.cdr.writer` / :func:`~repro.orb.cdr.reader`),
each generated on first use: straight-line code whose padding is a
constant wherever the position is known, which it is from the first
field up to the first string, byte string or sequence.

Only the canonical encoding decodes: nonzero padding, bytes after the
last field or a boolean of 2 are rejected as corruption.  Digests are
over raw bytes and signatures over re-encodings, so a frame with two
encodings could make two validly signed frames out of one honest one;
and voters compare bodies by their bytes.
"""

import struct
from operator import attrgetter

from repro import perf
from repro.orb.cdr import _CODES, _U32, TAIL, MarshalError, reader, writer
from repro.orb.cdr import one_of  # noqa: F401  (the frame modules' import)


def _show(value, names=None):
    """One value for a repr: a code's name, a byte count, elements alike."""
    if isinstance(value, (bytes, bytearray)):
        return "<%d bytes>" % len(value)
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(_show, value))
    return str(names.get(value, value)) if names else repr(value)


class Schema:
    """The fields of one frame (or body, or state), and the codec
    compiled from them.

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
        #: the fields as encoded: the frame type first if typed
        self.wire = (("frame_type", "octet"),) * self._typed + fields
        self._wire = tuple(name for name, _ in self.wire)
        #: frame -> the tuple :meth:`pack` takes (its type, its fields)
        self.values = attrgetter(*self._wire) if len(self.wire) > 1 else lambda frame: tuple(
            getattr(frame, name) for name in self._wire
        )
        self._tags = tuple(tag for _, tag in self.wire)
        self._order = None
        if holes is not None:
            self.encode_hot = self._template(holes, memo, self._tags)

    def __getattr__(self, name):
        """The generated codec, on first use (an import generates none):

        * ``pack(values)`` — the encoding of ``values``, the frame type
          first if typed;
        * ``encode(frame)`` — the encoding of a frame's fields, which is
          also ``encode_hot`` when the declaration has no holes;
        * ``unpack(data)`` — the values ``data`` is the encoding of, the
          type first if typed; raises ``error`` unless ``data`` is
          exactly what ``pack`` makes of them.
        """
        if name == "pack":
            codec = writer(self._tags)
        elif name in ("encode", "encode_hot"):
            codec = self.encode = writer(self._tags, names=self._wire)
        elif name == "unpack":
            codec = reader(self._tags, error=self.error)
        else:
            raise AttributeError(name)
        setattr(self, name, codec)
        return codec

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
