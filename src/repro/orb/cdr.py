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

A list of tags — a :class:`~repro.orb.schema.Schema`'s declaration —
compiles to one generated Python function that writes it
(:func:`writer`) and one that reads it (:func:`reader`), each compiled
once from its source text, the way :mod:`dataclasses` builds
``__init__``; a cursor's one tag compiles the same way
(:func:`appender`, :func:`reader`).  The source is straight-line code: a
run of fixed-size fields is one precomputed :class:`struct.Struct`
(padding included), a sequence of a fixed-size primitive is one
``"<%dQ"``-style call, a record is inlined into its sequence's loop, and
raw bytes are joined into the output without a copy of their own.  The
position modulo 8 is tracked while the source is generated, so padding
is a constant where it is known and computed where it is not (after a
string, say).  :func:`_field` is the one place a tag is understood.
Each generated function keeps its text as ``.source``.

A reader accepts only the bytes its writer makes (zero padding, a
boolean of 0 or 1, a code of the table, a float NaN of the width it
was written at, a string's NUL, lengths within the data), so a
whole-buffer decode is canonical.  :class:`CdrEncoder` and
:class:`CdrDecoder` are cursors over the same generated functions.
"""

import os
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

_PADDING = '"non-canonical (nonzero) CDR padding"'
#: generated code runs under a file name in this package, so that a
#: profile bills it to the ORB
_HERE = os.path.dirname(os.path.abspath(__file__))


def one_of(tag, names):
    """A primitive ``tag`` that decodes only to a key of ``names``
    (code -> the name a repr shows)."""
    return ("one_of", tag, names)


def _empty(tag):
    """Whether a ``tag`` value takes no bytes (a struct of no fields)."""
    if not isinstance(tag, tuple) or tag[0] not in ("struct", "record"):
        return False
    return all(_empty(field_tag) for _, field_tag in tag[1])


def _field(tag):
    """``(kind, detail)`` of ``tag``, what the generators dispatch on:
    ``("fixed", (code, size, check))`` for a primitive — ``check`` is
    ``None``, ``"boolean"``, ``"float"`` or a :func:`one_of` table —
    ``("bytes", tag)`` for a string, octets or :data:`TAIL`, and the
    composite's own kind and members otherwise."""
    if isinstance(tag, tuple) and len(tag) == 3 and tag[0] == "one_of":
        code = _CODES[tag[1]]
        return "fixed", (code, struct.calcsize(code), tag[2])
    if isinstance(tag, str) and tag in _CODES:
        check = {"?": "boolean", "f": "float"}.get(_CODES[tag])
        return "fixed", (_CODES[tag], _PRIMITIVES[tag][1], check)
    if tag in ("string", "octets", TAIL):
        return "bytes", tag
    if not isinstance(tag, tuple) or len(tag) != 2:
        raise MarshalError("unknown type tag %r" % (tag,))
    kind, members = tag
    if kind == "sequence":
        if _empty(members):
            # no byte of the data could bound its length (IDL has no empty struct)
            raise MarshalError("a sequence of %r, which takes no bytes" % (members,))
        return kind, members
    if kind not in ("record", "struct", "enum", "union"):
        raise MarshalError("unknown composite tag %r" % (tag,))
    return kind, tuple(members)


# ----------------------------------------------------------------------
# what is known of the position, modulo 8, while the source is generated
# ----------------------------------------------------------------------


def _aligned(known, size):
    """``known = (modulus, offset)`` after padding to ``size``."""
    modulus, offset = known
    if size > modulus:
        return size, 0
    return modulus, (offset + -offset % size) % modulus


def _advanced(known, size):
    modulus, offset = known
    return modulus, (offset + size) % modulus


def _meet(*knowns):
    """What holds at a join of the ``knowns``."""
    modulus = min(m for m, _ in knowns)
    while len({offset % modulus for _, offset in knowns}) > 1:
        modulus //= 2
    return modulus, knowns[0][1] % modulus


def _after(tag, known):
    """What is known of the position after a ``tag`` value written at ``known``."""
    kind, detail = _field(tag)
    if kind == "fixed" or kind == "enum":
        size = detail[1] if kind == "fixed" else 4
        return _advanced(_aligned(known, size), size)
    if kind == "bytes":
        return 1, 0
    if kind in ("record", "struct"):
        for _, field_tag in detail:
            known = _after(field_tag, known)
        return known
    head = _after("ulong", known)
    if kind == "union":
        return _meet(*(_after(branch, head) for _, branch in detail))
    return _loop(detail, head)


def _loop(element, head):
    """What holds at the top of a sequence's loop, and after it: the
    position after the length, met with that after every element."""
    known = head
    while True:
        joined = _meet(head, _after(element, known))
        if joined == known:
            return known
        known = joined


# ----------------------------------------------------------------------
# the generators
# ----------------------------------------------------------------------


class _Source:
    """Python source under construction: its lines, fresh local names,
    the constants it names, and the position it has reached — a base
    variable (or none: the start) plus a constant plus dynamic terms,
    and what is known of it modulo 8."""

    def __init__(self, start, base=None):
        self.lines = []
        self.depth = 1
        self.names = {"MarshalError": MarshalError, "_PAD": _PAD}
        self.count = 0
        self.known = (8, start % 8)
        self.base, self.offset, self.terms = base, 0 if base else start % 8, []

    def fresh(self, prefix):
        self.count += 1
        return "%s%d" % (prefix, self.count)

    def const(self, value):
        name = self.fresh("_k")
        self.names[name] = value
        return name

    def emit(self, text):
        self.lines.append("    " * self.depth + text)

    def refuse(self, condition, message):
        """Raise :class:`MarshalError` with ``message`` (an expression) if ``condition``."""
        self.emit("if %s: raise MarshalError(%s)" % (condition, message))

    def position(self):
        items = [self.base] if self.base else []
        items += [str(self.offset)] if self.offset or not (items or self.terms) else []
        return " + ".join(items + self.terms)

    def function(self, header, name):
        source = "\n".join(["def %s:" % header] + self.lines)
        exec(compile(source, os.path.join(_HERE, "<generated %s>" % name), "exec"), self.names)
        function = self.names[name]
        function.source = source
        return function


class _Writer(_Source):
    """Generates the encoding of values.  Straight-line source collects
    its parts — a run of fixed-size fields packed in one call, raw bytes
    as they are — for one ``b"".join``; from the first loop or union on,
    or from the start when appending to a cursor's buffer, each part goes
    into the bytearray ``buf`` as it is made, and the length of ``buf``
    is the position."""

    def __init__(self, start=0, into=False):
        super().__init__(start)
        self.parts = []  # (expression, whether it is a bytes object)
        self.run_format, self.run_args, self.run_pad = "", [], None
        self.buf = into  # whether ``buf`` holds what is written so far

    def pad_of(self, size):
        """The expression of the padding to ``size`` at the position."""
        if self.buf:
            self.flush()
            return "-len(buf) %% %d" % size
        return "-(%s) %% %d" % (self.position(), size)

    def align(self, size):
        modulus, offset = self.known
        if size <= modulus:
            pad = -offset % size
            self.run_format += "%dx" % pad if pad else ""
            self.offset += pad
        else:
            self.flush()
            pad = self.pad_of(size)
            if not self.buf:  # the position needs it by name
                name = self.fresh("p")
                self.emit("%s = %s" % (name, pad))
                self.terms.append(name)
                pad = name
            self.run_pad = (pad, size)
        self.known = _aligned(self.known, size)

    def fixed(self, code, size, expr):
        self.align(size)
        self.run_format += code
        self.run_args.append(expr)
        self.offset += size
        self.known = _advanced(self.known, size)

    def flush(self):
        """Close the run of fixed-size fields into one part."""
        if not self.run_args:
            return
        args = ", ".join(self.run_args)
        if self.run_pad:
            pad, size = self.run_pad
            packers = [struct.Struct("<%dx%s" % (k, self.run_format)) for k in range(size)]
            part = "%s[%s].pack(%s)" % (self.const(packers), pad, args)
        else:
            part = "%s.pack(%s)" % (self.const(struct.Struct("<" + self.run_format)), args)
        self.run_format, self.run_args, self.run_pad = "", [], None
        self.add(part)

    def add(self, part, is_bytes=True):
        if self.buf:
            self.emit("buf += %s" % part)
        else:
            self.parts.append((part, is_bytes))

    def put(self, part, length, is_bytes=False):
        """Append the bytes of ``part``, ``length`` of them."""
        self.flush()
        self.add(part, is_bytes)
        self.terms.append(length)

    def materialize(self):
        """Before a loop or a union: what is written so far into ``buf``."""
        self.flush()
        if not self.buf:
            parts = [part for part, _ in self.parts]
            self.emit("buf = bytearray(%s)" % (parts[0] if parts else ""))
            for part in parts[1:]:
                self.emit("buf += %s" % part)
            self.buf, self.parts = True, []

    def block(self, header, body):
        """``header:`` over ``body()``; returns what holds after the body."""
        self.emit(header + ":")
        self.depth += 1
        lines = len(self.lines)
        body()
        self.flush()
        if len(self.lines) == lines:
            self.emit("pass")
        self.depth -= 1
        return self.known

    def bind(self, expr, prefix="x"):
        """``expr`` as a local name, so that it is evaluated once."""
        if expr.isidentifier():
            return expr
        name = self.fresh(prefix)
        self.emit("%s = %s" % (name, expr))
        return name

    def write(self, tag, expr):
        kind, detail = _field(tag)
        if kind == "fixed":
            self.fixed(detail[0], detail[1], expr)
        elif kind == "bytes":
            self.write_bytes(detail, expr)
        elif kind == "sequence":
            self.write_sequence(detail, expr)
        elif kind in ("record", "struct"):
            if kind == "record":
                names = [self.fresh("e") for _ in detail]
                self.emit("%s, = %s" % (", ".join(names), expr))
            else:
                value = self.bind(expr)
                names = ["%s[%r]" % (value, name) for name, _ in detail]
            for name, (_, field_tag) in zip(names, detail):
                self.write(field_tag, name)
        elif kind == "enum":
            value = self.bind(expr)
            ordinals = self.const({member: index for index, member in enumerate(detail)})
            message = '"enum value %%r not in %%r" %% (%s, %s)' % (value, self.const(list(detail)))
            self.refuse("%s not in %s" % (value, ordinals), message)
            self.fixed("I", 4, "%s[%s]" % (ordinals, value))
        else:
            self.write_union(detail, expr)

    def write_bytes(self, tag, expr):
        value = self.bind(expr)
        if tag == TAIL:
            self.put(value, "len(%s)" % value)
            self.known = (1, 0)
            return
        if tag == "string":  # CDR counts the NUL
            encoded = self.fresh("s")
            self.emit('%s = %s.encode("utf-8") + b"\\x00"' % (encoded, value))
            value = encoded
        length = self.fresh("m")
        self.emit("%s = len(%s)" % (length, value))
        self.fixed("I", 4, length)
        self.put(value, length)
        self.known = (1, 0)

    def write_sequence(self, element, expr):
        value = self.bind(expr)
        length = self.fresh("m")
        self.emit("%s = len(%s)" % (length, value))
        self.fixed("I", 4, length)
        head = self.known
        kind, detail = _field(element)
        if kind == "fixed":  # one call packs every element
            code, size, _ = detail
            modulus, offset = head
            pad = "%d" % (-offset % size) if size <= modulus else self.pad_of(size)
            if pad != "0" and not self.buf:  # the position needs it by name
                name = self.fresh("p")
                self.emit("%s = %s if %s else 0" % (name, pad, length))
                self.terms.append(name)
                pad = name
            self.flush()
            if pad == "0":
                packed = '_pack("<%%d%s" %% %s, *%s)' % (code, length, value)
            else:
                packed = '_pack("<%%dx%%d%s" %% (%s, %s), *%s)' % (code, pad, length, value)
            self.names["_pack"] = struct.pack
            if self.buf:
                self.emit("if %s: buf += %s" % (length, packed))
            else:
                self.put('(%s if %s else b"")' % (packed, length), "%d * %s" % (size, length), True)
        else:
            top = _loop(element, head)
            self.materialize()
            item = self.fresh("e")

            def body():
                self.known = top
                self.write(element, item)

            self.block("for %s in %s" % (item, value), body)
        self.known = _loop(element, head)

    def write_union(self, branches, expr):
        value = self.bind(expr)
        labels = self.const(tuple(label for label, _ in branches))
        self.refuse(
            "not (isinstance(%s, tuple) and len(%s) == 2 and %s[0] in %s)"
            % (value, value, value, labels),
            '"not a (case, value) pair of %%r: %%r" %% (list(%s), %s)' % (labels, value),
        )
        index = self.fresh("i")
        self.emit("%s = %s.index(%s[0])" % (index, labels, value))
        self.fixed("I", 4, index)
        self.materialize()
        head, ends = self.known, []
        for ordinal, (_, branch) in enumerate(branches):

            def body(branch=branch):
                self.known = head
                self.write(branch, "%s[1]" % value)

            header = "%s %s == %d" % ("elif" if ordinal else "if", index, ordinal)
            ends.append(self.block(header, body))
        self.known = _meet(*ends)

    def finish(self, prologue, header, name):
        self.flush()
        parts = [part for part, _ in self.parts]
        if self.buf:
            self.emit("return bytes(buf)")
        elif len(parts) == 1 and self.parts[0][1]:
            self.emit("return %s" % parts[0])
        else:
            self.emit('return b"".join((%s))' % "".join(part + ", " for part in parts))
        self.lines[:0] = ["    " + line for line in prologue]
        return self.function(header, name)


class _Reader(_Source):
    """Generates the decoding of ``data`` from the position reached: a
    run of fixed-size fields is one ``unpack_from`` with its checks
    after it, and every value lands in a local."""

    def __init__(self, start, base):
        super().__init__(start, base)
        self.run_format, self.run_names, self.run_checks = "", [], []
        self.run_start, self.run_pad = None, None

    def emit(self, text):
        self.flush()
        super().emit(text)

    def rebase(self, name):
        """Hold the position in ``name`` (a block's join needs one variable)."""
        position = self.position()
        if position != name:
            self.emit("%s = %s" % (name, position))
        self.base, self.offset, self.terms = name, 0, []

    def align(self, size):
        modulus, offset = self.known
        if size > modulus:
            self.flush()
            pad = self.fresh("p")
            self.emit("%s = -(%s) %% %d" % (pad, self.position(), size))
            self.run_start, self.run_pad = self.position(), (pad, size)
            self.terms.append(pad)
        elif -offset % size:
            self.start_run()
            zeros = self.fresh("z")
            self.run_format += "%ds" % (-offset % size)
            self.run_names.append(zeros)
            self.run_checks.append("%s != %r" % (zeros, _PAD[-offset % size]))
            self.offset += -offset % size
        self.known = _aligned(self.known, size)

    def start_run(self):
        if self.run_start is None:
            self.run_start = self.position()

    def fixed(self, code, size, check=None):
        """The name the next fixed-size value is read into."""
        self.align(size)
        self.start_run()
        name = self.fresh("v")
        self.run_format += "B" if check == "boolean" else code
        self.run_names.append(name)
        if check is not None:
            self.run_checks.append((name, check, self.position()))
        self.offset += size
        self.known = _advanced(self.known, size)
        return name

    def flush(self):
        """Close the run: one ``unpack_from``, then its checks."""
        if self.run_start is None:
            return
        names, start, checks = list(self.run_names), self.run_start, self.run_checks
        if self.run_pad:
            pad, size = self.run_pad
            zeros = self.fresh("z")
            names.insert(0, zeros)
            unpackers = [struct.Struct("<%ds%s" % (k, self.run_format)) for k in range(size)]
            unpacker = "%s[%s]" % (self.const(unpackers), pad)
            checks.insert(0, "%s != _PAD[%s]" % (zeros, pad))
        else:
            unpacker = self.const(struct.Struct("<" + self.run_format))
        self.run_format, self.run_names, self.run_checks = "", [], []
        self.run_start, self.run_pad = None, None
        self.emit("%s, = %s.unpack_from(data, %s)" % (", ".join(names), unpacker, start))
        pads = [check for check in checks if isinstance(check, str)]
        if pads:
            self.refuse(" or ".join(pads), _PADDING)
        for check in checks:
            if isinstance(check, tuple):
                self.check(*check)

    def check(self, name, check, at):
        if check == "boolean":
            self.refuse("%s > 1" % name, '"non-canonical boolean octet %%d" %% %s' % name)
            self.emit("%s = %s == 1" % (name, name))
        elif check == "float":  # a NaN may widen to a double of other bits
            packer = self.const(struct.Struct("<f"))
            self.refuse(
                "%s != %s and %s.pack(%s) != data[%s:%s + 4]" % (name, name, packer, name, at, at),
                '"non-canonical float NaN"',
            )
        elif isinstance(check, tuple):  # an enum's members
            members = self.const(check[1])
            message = '"enum ordinal %%d out of range for %%r" %% (%s, %s)' % (name, members)
            self.refuse("%s >= %d" % (name, len(check[1])), message)
            self.emit("%s = %s[%s]" % (name, members, name))
        else:  # a one_of table
            code = self.const(check)
            self.refuse("%s not in %s" % (name, code), '"unknown code %%r" %% (%s,)' % name)

    def read(self, tag):
        """An expression of the ``tag`` value read at the position."""
        kind, detail = _field(tag)
        if kind == "fixed":
            return self.fixed(*detail)
        if kind == "bytes":
            return self.read_bytes(detail)
        if kind == "sequence":
            return self.read_sequence(detail)
        if kind in ("record", "struct"):
            values = [self.read(field_tag) for _, field_tag in detail]
            if kind == "record":
                return "(%s)" % "".join(value + ", " for value in values)
            pairs = ("%r: %s" % (name, value) for (name, _), value in zip(detail, values))
            return "{%s}" % ", ".join(pairs)
        if kind == "enum":
            return self.fixed("I", 4, ("enum", detail))
        return self.read_union(detail)

    def read_bytes(self, tag):
        value = self.fresh("v")
        if tag == TAIL:
            self.emit("%s = data[%s:]" % (value, self.position()))
            self.base, self.offset, self.terms = "limit", 0, []
            self.known = (1, 0)
            return value
        length = self.fixed("I", 4)
        self.flush()
        start, end = self.position(), self.fresh("end")
        self.emit("%s = %s + %s" % (end, start, length))
        if tag == "string":
            self.refuse(
                "%s > limit or not %s or data[%s - 1]" % (end, length, end),
                '"truncated string, or a string without its NUL"',
            )
            self.emit('%s = data[%s:%s - 1].decode("utf-8")' % (value, start, end))
        else:
            self.refuse("%s > limit" % end, '"truncated octets"')
            self.emit("%s = data[%s:%s]" % (value, start, end))
        self.base, self.offset, self.terms = end, 0, []
        self.known = (1, 0)
        return value

    def read_sequence(self, element):
        length = self.fixed("I", 4)
        head = self.known
        kind, detail = _field(element)
        value = self.fresh("v")
        if kind == "fixed" and detail[2] is None:  # one call unpacks every element
            code, size, _ = detail
            self.flush()
            start, first = self.position(), self.position()
            modulus, offset = head
            pad = "%d" % (-offset % size) if size <= modulus else "-(%s) %% %d" % (start, size)
            if pad != "0":
                name = self.fresh("p")
                self.emit("%s = %s if %s else 0" % (name, pad, length))
                self.refuse("data[%s:%s + %s] != _PAD[%s]" % (start, start, name, name), _PADDING)
                first = "%s + %s" % (start, name)
            end = self.fresh("end")
            self.emit("%s = %s + %d * %s" % (end, first, size, length))
            self.refuse("%s > limit" % end, '"truncated sequence"')
            unpacked = '_unpack_from("<%%d%s" %% %s, data, %s)' % (code, length, first)
            self.names["_unpack_from"] = struct.unpack_from
            self.emit("%s = list(%s) if %s else []" % (value, unpacked, length))
            self.base, self.offset, self.terms = end, 0, []
        else:
            top = _loop(element, head)
            self.flush()
            cursor = self.fresh("q")
            self.rebase(cursor)
            self.emit("%s = []" % value)
            self.emit("for _ in range(%s):" % length)
            self.depth += 1
            self.known = top
            item = self.read(element)
            self.emit("%s.append(%s)" % (value, item))
            self.flush()
            self.rebase(cursor)
            self.depth -= 1
        self.known = _loop(element, head)
        return value

    def read_union(self, branches):
        index = self.fixed("I", 4)
        self.flush()
        cursor, value = self.fresh("q"), self.fresh("v")
        self.rebase(cursor)
        head, ends = self.known, []
        for ordinal, (label, branch) in enumerate(branches):
            self.emit("%s %s == %d:" % ("elif" if ordinal else "if", index, ordinal))
            self.depth += 1
            self.known = head
            self.emit("%s = (%r, %s)" % (value, label, self.read(branch)))
            self.rebase(cursor)
            ends.append(self.known)
            self.depth -= 1
        self.emit("else:")
        self.depth += 1
        self.emit('raise MarshalError("union discriminator %%d out of range" %% %s)' % index)
        self.depth -= 1
        self.known = _meet(*ends)
        return value


def writer(tags, names=None):
    """The generated encoding of values of ``tags``: ``pack(values)``,
    the bytes of the values in order, or, given the attribute ``names``
    they come from, ``encode(frame)``."""
    source = _Writer()
    values = [source.fresh("v") for _ in tags]
    for tag, value in zip(tags, values):
        source.write(tag, value)
    if names is not None:
        prologue = ["%s = frame.%s" % pair for pair in zip(values, names)]
        return source.finish(prologue, "encode(frame)", "encode")
    prologue = ["%s, = values" % ", ".join(values)] if values else []
    return source.finish(prologue, "pack(values)", "pack")


def appender(tag, start):
    """``write(buf, value)``, generated: append the encoding of a ``tag``
    value to the bytearray ``buf``, whose length is congruent to
    ``start`` modulo 8."""
    source = _Writer(start, into=True)
    source.write(tag, "value")
    source.flush()
    if not source.lines:
        source.emit("pass")
    return source.function("write(buf, value)", "write")


def reader(tags, start=0, error=None):
    """The generated decoding of ``tags``.  Given the ``error`` to raise,
    ``unpack(data)``: the list of values ``data`` is exactly the
    encoding of, else ``error``.  Otherwise ``read(data, pos)`` with
    ``pos`` congruent to ``start`` modulo 8: ``(value, end)`` of the
    one tag read at ``pos``."""
    if error is None:
        source = _Reader(start, "pos")
        (value,) = [source.read(tag) for tag in tags]
        source.emit("return %s, %s" % (value, source.position()))
        source.lines.insert(0, "    limit = len(data)")
        return source.function("read(data, pos)", "read")
    source = _Reader(0, None)
    source.depth = 2
    values = [source.read(tag) for tag in tags]
    source.flush()
    end = source.position()
    source.names["_error"], source.names["ERRORS"] = error, ERRORS
    source.lines[:0] = ["    data = bytes(data)", "    limit = len(data)", "    try:"]
    source.lines += ["        pass"] * (not values) + [
        "    except ERRORS as exc:",
        '        raise _error("malformed CDR: %s" % exc)',
        "    if %s != limit:" % end,
        '        raise _error("non-canonical CDR: %%d bytes after it" %% (limit - %s))' % end,
        "    return [%s]" % ", ".join(values),
    ]
    return source.function("unpack(data)", "unpack")


#: (tag, start modulo 8) -> the generated writer / reader, for the cursors
_WRITERS, _READERS = {}, {}


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
            key = (tag, start % 8)
            write = _WRITERS.get(key)
            if write is None:
                write = _WRITERS[key] = appender(tag, start)
            write(buf, value)
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
            key = (tag, self._pos % 8)
            read = _READERS.get(key)
            if read is None:
                read = _READERS[key] = reader([tag], key[1])
            value, self._pos = read(self._data, self._pos)
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
