"""Table 3: token fields required to cope with each fault type.

Structural regeneration: verifies that the token carries exactly the
fields the paper's Table 3 lists per fault class, that they round-trip
on the wire, and that each field-gated mechanism is exercised by the
matching fault (cross-referenced to the Table 1 drills).  The token's
fields are read from its declaration (``Token.SCHEMA``), so a field
added to the wire without a place below fails here.
"""

from repro.multicast.messages import decode_frame
from repro.multicast.token import Token

#: Table 3, by fault class: the fields each class adds to the one before
TABLE3 = {
    "message loss / receive omission / crash": ["sender_id", "ring_id", "seq", "aru", "rtr_list"],
    "message corruption": ["message_digest_list"],
    "malicious processor": ["signature", "prev_token_digest", "rtg_list"],
}

#: declared fields Table 3 does not list: how the token numbers and
#: routes its visits (a mutant token is two tokens for one ``visit``;
#: ``successor`` is the form check's; ``aru_id`` is Totem's)
RING_FIELDS = ["visit", "successor", "aru_id"]

DECLARED = list(Token.SCHEMA.names) + ["signature"]


def make_token():
    return Token(
        sender_id=1,
        ring_id=2,
        visit=3,
        seq=40,
        aru=35,
        successor=2,
        rtr_list=[36, 38],
        rtg_list=[33],
        message_digest_list=[(39, b"x" * 16), (40, b"y" * 16)],
        prev_token_digest=b"p" * 16,
        signature=12345,
    )


def _changed(tag, value):
    """A value of ``tag`` other than ``value``."""
    if isinstance(tag, tuple):  # a sequence: one element more
        element = tag[1]
        extra = (7, b"z" * 16) if isinstance(element, tuple) else 7
        return list(value) + [extra]
    if tag == "octets":
        return value + b"!"
    return value ^ 1


def test_table3_all_fields_present_and_roundtrip(benchmark, show):
    token = benchmark.pedantic(make_token, rounds=1, iterations=1)
    listed = [field for fields in TABLE3.values() for field in fields]
    assert sorted(DECLARED) == sorted(listed + RING_FIELDS), (
        "declared token fields outside Table 3: %s"
        % sorted(set(DECLARED) - set(listed) - set(RING_FIELDS))
    )
    decoded = decode_frame(token.encode())
    for field in DECLARED:
        assert getattr(decoded, field) == getattr(token, field)
    show("\nTable 3: token fields by fault class")
    for fault, fields in TABLE3.items():
        show("  %-40s %s" % (fault + ":", ", ".join(fields)))


def test_table3_signature_covers_every_field(show):
    """Changing any declared field changes the signable bytes (so a
    signed token binds all of Table 3's content)."""
    base = make_token()
    reference = base.signable_bytes()
    mutations = {
        name: _changed(tag, getattr(base, name)) for name, tag in Token.SCHEMA.fields
    }
    changed = []
    for field, value in mutations.items():
        token = make_token()
        setattr(token, field, value)
        if token.signable_bytes() != reference:
            changed.append(field)
    assert sorted(changed) == sorted(set(DECLARED) - {"signature"}), "unbound fields: %s" % (
        set(mutations) - set(changed)
    )
    show("\nTable 3: the token signature binds every field: %s" % ", ".join(sorted(changed)))
