"""Property-based tests: CDR marshalling is a faithful round trip, and
only a canonical encoding decodes."""

from hypothesis import given, settings, strategies as st

from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.idl import IdlError, OperationDef, ParamDef

PRIMITIVE_STRATEGIES = {
    "boolean": st.booleans(),
    "octet": st.integers(0, 255),
    "short": st.integers(-(2**15), 2**15 - 1),
    "ushort": st.integers(0, 2**16 - 1),
    "long": st.integers(-(2**31), 2**31 - 1),
    "ulong": st.integers(0, 2**32 - 1),
    "longlong": st.integers(-(2**63), 2**63 - 1),
    "ulonglong": st.integers(0, 2**64 - 1),
    "double": st.floats(allow_nan=False, allow_infinity=False, width=64),
    "string": st.text(max_size=64),
    "octets": st.binary(max_size=64),
}


def typed_values():
    """A strategy of (type_tag, value) pairs, including composites."""
    primitive = st.sampled_from(sorted(PRIMITIVE_STRATEGIES)).flatmap(
        lambda tag: st.tuples(st.just(tag), PRIMITIVE_STRATEGIES[tag])
    )

    def build_sequence(inner):
        return inner.flatmap(
            lambda tv: st.lists(PRIMITIVE_STRATEGIES[tv[0]], max_size=8).map(
                lambda items: (("sequence", tv[0]), items)
            )
        )

    def build_struct(inner):
        return st.lists(inner, min_size=1, max_size=4).map(
            lambda pairs: (
                (
                    "struct",
                    tuple(("f%d" % i, tag) for i, (tag, _) in enumerate(pairs)),
                ),
                {"f%d" % i: value for i, (_, value) in enumerate(pairs)},
            )
        )

    enum = st.lists(st.sampled_from("ABCDEFGH"), min_size=1, max_size=5, unique=True).flatmap(
        lambda members: st.tuples(st.just(("enum", tuple(members))), st.sampled_from(members))
    )

    def build_union(inner):
        return st.lists(inner, min_size=1, max_size=4).flatmap(
            lambda cases: st.integers(0, len(cases) - 1).map(
                lambda pick: (
                    ("union", tuple(("c%d" % i, tag) for i, (tag, _) in enumerate(cases))),
                    ("c%d" % pick, cases[pick][1]),
                )
            )
        )

    leaf = primitive | enum | build_union(primitive)
    return leaf | build_sequence(primitive) | build_struct(leaf)


@given(typed_values())
@settings(max_examples=200)
def test_roundtrip(tagged):
    tag, value = tagged
    data = CdrEncoder().write(tag, value).getvalue()
    assert CdrDecoder(data).read(tag) == value


@given(st.lists(typed_values(), min_size=1, max_size=6))
@settings(max_examples=100)
def test_concatenated_values_roundtrip(tagged_list):
    encoder = CdrEncoder()
    for tag, value in tagged_list:
        encoder.write(tag, value)
    decoder = CdrDecoder(encoder.getvalue())
    for tag, value in tagged_list:
        assert decoder.read(tag) == value
    assert decoder.at_end()


@given(st.binary(max_size=128), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_alignment_padding_is_deterministic(prefix, number):
    encoder_a = CdrEncoder()
    encoder_a.write("octets", prefix)
    encoder_a.write("ulong", number)
    encoder_b = CdrEncoder()
    encoder_b.write("octets", prefix)
    encoder_b.write("ulong", number)
    assert encoder_a.getvalue() == encoder_b.getvalue()


#: one operation over every kind of tag
EVERY_TAG = OperationDef(
    "every",
    [
        ParamDef("flag", "boolean"),
        ParamDef("count", "ulong"),
        ParamDef("ratio", "float"),
        ParamDef("name", "string"),
        ParamDef("blob", "octets"),
        ParamDef("ticks", ("sequence", "longlong")),
        ParamDef("color", ("enum", ("RED", "GREEN", "BLUE"))),
        ParamDef("shape", ("union", (("circle", "double"), ("label", "string")))),
        ParamDef("point", ("struct", (("x", "short"), ("weight", "double")))),
    ],
)

EVERY_TAG_ARGS = st.tuples(
    st.booleans(),
    PRIMITIVE_STRATEGIES["ulong"],
    st.floats(width=32, allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(PRIMITIVE_STRATEGIES["longlong"], max_size=3),
    st.sampled_from(["RED", "GREEN", "BLUE"]),
    st.one_of(
        PRIMITIVE_STRATEGIES["double"].map(lambda v: ("circle", v)),
        st.text(max_size=8).map(lambda v: ("label", v)),
    ),
    st.fixed_dictionaries(
        {"x": PRIMITIVE_STRATEGIES["short"], "weight": PRIMITIVE_STRATEGIES["double"]}
    ),
)


@given(EVERY_TAG_ARGS, st.data())
@settings(max_examples=300)
def test_a_mutated_body_is_refused_or_is_the_canonical_encoding_of_what_it_decodes_to(args, data):
    body = bytearray(EVERY_TAG.marshal_args(list(args)))
    index = data.draw(st.integers(0, len(body) - 1))
    body[index] = data.draw(st.integers(0, 255).filter(lambda b: b != body[index]))
    try:
        decoded = EVERY_TAG.unmarshal_args(bytes(body))
    except IdlError:
        return
    assert EVERY_TAG.marshal_args(decoded) == bytes(body)
