"""Unit tests for the token codec and its structural checks (Table 3)."""

import random

import pytest

from repro.crypto.md4 import md4_digest
from repro.crypto.rsa import generate_keypair
from repro.multicast.messages import decode_frame
from repro.multicast.token import Token


def make_token(**overrides):
    fields = dict(
        sender_id=2,
        ring_id=4,
        visit=17,
        seq=120,
        aru=100,
        successor=3,
        aru_id=1,
        rtr_list=[101, 103],
        rtg_list=[99],
        message_digest_list=[(119, b"d" * 16), (120, b"e" * 16)],
        prev_token_digest=b"p" * 16,
        signature=987654321,
    )
    fields.update(overrides)
    return Token(**fields)


def test_token_roundtrip():
    token = make_token()
    decoded = decode_frame(token.encode())
    assert isinstance(decoded, Token)
    for field in (
        "sender_id",
        "ring_id",
        "visit",
        "seq",
        "aru",
        "aru_id",
        "successor",
        "rtr_list",
        "rtg_list",
        "message_digest_list",
        "prev_token_digest",
        "signature",
    ):
        assert getattr(decoded, field) == getattr(token, field), field


def test_signable_bytes_exclude_signature():
    a = make_token(signature=1)
    b = make_token(signature=2)
    assert a.signable_bytes() == b.signable_bytes()


def test_signature_covers_all_fields():
    rng = random.Random(9)
    pair = generate_keypair(rng, 256)
    token = make_token(signature=0)
    token.signature = pair.sign(md4_digest(token.signable_bytes()))
    assert pair.public.verify(md4_digest(token.signable_bytes()), token.signature)
    mutant = make_token(seq=121, signature=token.signature)
    assert not pair.public.verify(md4_digest(mutant.signable_bytes()), mutant.signature)


def test_digest_for():
    token = make_token()
    assert token.digest_for(119) == b"d" * 16
    assert token.digest_for(42) is None


MEMBERS = (1, 2, 3, 5)


def test_well_formed_accepts_correct_token():
    token = make_token(sender_id=2, successor=3)
    assert token.well_formed(MEMBERS)


def test_well_formed_wraps_ring():
    token = make_token(sender_id=5, successor=1)
    assert token.well_formed(MEMBERS)


@pytest.mark.parametrize(
    "overrides",
    [
        {"sender_id": 99},  # sender not a member
        {"successor": 99},  # successor not a member
        {"sender_id": 2, "successor": 5},  # wrong successor (should be 3)
        {"aru": 200},  # aru > seq
        {"aru_id": 42},  # aru_id not a member nor the sentinel
        {"message_digest_list": [(120, b"x"), (119, b"y")]},  # unsorted digests
        {"message_digest_list": [(500, b"x")]},  # digest beyond seq
    ],
)
def test_well_formed_rejects(overrides):
    token = make_token(**overrides)
    assert not token.well_formed(MEMBERS)


def test_well_formed_accepts_no_aru_id_sentinel():
    token = make_token(aru_id=Token.NO_ARU_ID)
    assert token.well_formed(MEMBERS)


def test_well_formed_memo_is_keyed_by_membership_value(monkeypatch):
    """One shared decoded token is form-checked once per membership
    *value*: equal member tuples of different receivers share the
    answer, another ring's members get their own check."""
    checks = []
    check_form = Token._check_form

    def counting(self, ring_members):
        checks.append(tuple(ring_members))
        return check_form(self, ring_members)

    monkeypatch.setattr(Token, "_check_form", counting)
    token = make_token(sender_id=2, successor=3)
    ring_a = (1, 2, 3, 5)
    assert token.well_formed(ring_a)
    assert token.well_formed(tuple([1, 2, 3, 5]))  # another receiver's equal tuple
    assert checks == [ring_a]
    ring_b = (1, 2, 4, 5)  # accepted on ring A, yet 3 is no member of ring B
    assert not token.well_formed(ring_b)
    assert not token.well_formed(ring_b)
    assert token.well_formed(ring_a)
    assert checks == [ring_a, ring_b, ring_a]


def test_signable_bytes_match_generic_sequence_tags():
    """The signable bytes are the fields' CDR, assembled here with
    ``struct.pack`` and explicit padding rather than by the codec."""
    import struct

    def put(buf, fmt, value):
        buf.extend(b"\x00" * (-len(buf) % struct.calcsize(fmt)))
        buf.extend(struct.pack("<" + fmt, value))

    def put_octets(buf, data):
        put(buf, "I", len(data))
        buf.extend(data)

    odd = dict(message_digest_list=[(119, b"d" * 5), (120, b"e" * 3)], prev_token_digest=b"p" * 7)
    for token in (make_token(), make_token(**odd)):
        expected = bytearray()
        for fmt, name in (("I", "sender_id"), ("I", "ring_id"), ("Q", "visit"), ("Q", "seq"),
                          ("Q", "aru"), ("I", "aru_id"), ("I", "successor")):
            put(expected, fmt, getattr(token, name))
        for seqs in (token.rtr_list, token.rtg_list):
            put(expected, "I", len(seqs))
            for seq in seqs:
                put(expected, "Q", seq)
        put(expected, "I", len(token.message_digest_list))
        for seq, digest in token.message_digest_list:
            put(expected, "Q", seq)
            put_octets(expected, digest)
        put_octets(expected, token.prev_token_digest)
        assert token.signable_bytes() == bytes(expected)
