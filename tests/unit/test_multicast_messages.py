"""Unit tests for multicast frame codecs."""

import pytest

from repro.multicast.messages import (
    MembershipCommit,
    MembershipProposal,
    MulticastCodecError,
    RegularMessage,
    decode_frame,
    decode_frame_shared,
)


def test_regular_message_roundtrip():
    msg = RegularMessage(3, 7, 1234, "server-group", b"\x01\x02payload")
    decoded = decode_frame(msg.encode())
    assert isinstance(decoded, RegularMessage)
    assert decoded.sender_id == 3
    assert decoded.ring_id == 7
    assert decoded.seq == 1234
    assert decoded.dest_group == "server-group"
    assert decoded.payload == b"\x01\x02payload"


def test_regular_message_empty_payload():
    decoded = decode_frame(RegularMessage(0, 1, 1, "g", b"").encode())
    assert decoded.payload == b""


def test_proposal_roundtrip():
    proposal = MembershipProposal(
        proposer=2,
        old_ring_id=5,
        round_number=3,
        candidate_set=[0, 2, 4],
        have_contiguous=99,
        suspects=[1, 3],
        signature=123456789,
    )
    decoded = decode_frame(proposal.encode())
    assert isinstance(decoded, MembershipProposal)
    assert decoded.proposer == 2
    assert decoded.old_ring_id == 5
    assert decoded.round_number == 3
    assert decoded.candidate_set == (0, 2, 4)
    assert decoded.have_contiguous == 99
    assert decoded.suspects == (1, 3)
    assert decoded.signature == 123456789


def test_proposal_sets_are_canonicalised():
    proposal = MembershipProposal(1, 1, 1, [4, 0, 2], 0, [3, 1])
    assert proposal.candidate_set == (0, 2, 4)
    assert proposal.suspects == (1, 3)


def test_proposal_signable_excludes_signature():
    a = MembershipProposal(1, 1, 1, [0, 1], 5, [], signature=111)
    b = MembershipProposal(1, 1, 1, [0, 1], 5, [], signature=222)
    assert a.signable_bytes() == b.signable_bytes()
    assert a.encode() != b.encode()


def test_commit_roundtrip_and_unbundle():
    proposals = [
        MembershipProposal(p, 5, 2, [0, 1, 2], 10 + p, [3]).encode() for p in range(3)
    ]
    commit = MembershipCommit(0, 5, 2, proposals)
    decoded = decode_frame(commit.encode())
    assert isinstance(decoded, MembershipCommit)
    assert decoded.sender_id == 0
    assert decoded.old_ring_id == 5
    assert decoded.round_number == 2
    inner = decoded.proposals()
    assert [p.proposer for p, _ in inner] == [0, 1, 2]
    assert [raw for _, raw in inner] == proposals


def test_commit_rejects_non_proposal_content():
    bogus = MembershipCommit(0, 1, 1, [RegularMessage(0, 1, 1, "g", b"x").encode()])
    decoded = decode_frame(bogus.encode())
    with pytest.raises(MulticastCodecError):
        decoded.proposals()


def test_commit_rejects_a_bundled_proposal_with_a_flipped_padding_bit():
    """The bundle is parsed by ``proposals()``, not ``decode_frame``, and
    the bytes it yields are kept as the proposer's own: a padding bit
    flipped inside one must be rejected like the frame off the wire."""
    proposal = MembershipProposal(1, 5, 2, [0, 1, 2], 10, [], signature=99).encode()
    flipped = bytearray(proposal)
    flipped[1] ^= 0x01  # padding after the frame-type octet
    flipped = bytes(flipped)
    assert MembershipProposal.decode(proposal).encode() == proposal
    with pytest.raises(MulticastCodecError, match="non-canonical"):
        MembershipProposal.decode(flipped)  # the same fields, in other bytes
    commit = decode_frame(MembershipCommit(0, 5, 2, [proposal, flipped]).encode())
    with pytest.raises(MulticastCodecError, match="non-canonical"):
        commit.proposals()


def test_garbage_frame_rejected():
    with pytest.raises(MulticastCodecError):
        decode_frame(b"\xff\x00\x01")
    with pytest.raises(MulticastCodecError):
        decode_frame(b"\x01trunc")


def test_corrupted_frame_usually_fails_or_differs():
    raw = bytearray(RegularMessage(1, 1, 7, "group", b"hello").encode())
    raw[-1] ^= 0xFF  # flip a payload byte
    decoded = decode_frame(bytes(raw))
    assert decoded.payload != b"hello"


def test_decode_frame_shared_equals_plain_decode():
    """The LAN-wide decode memo shares one object whose fields are
    exactly what a per-receiver ``decode_frame`` yields."""
    data = RegularMessage(1, 9, 55, "group", b"\xab" * 16).encode()
    shared = decode_frame_shared(data)
    assert decode_frame_shared(data) is shared
    assert shared.encode() == decode_frame(data).encode() == data


def _all_frame_kinds():
    from repro.multicast.messages import JoinRequest, MessageFragment
    from repro.multicast.token import Token, TokenCertificate

    proposal = MembershipProposal(2, 5, 3, [0, 2, 4], 99, [1, 3], signature=12345)
    return [
        RegularMessage(3, 7, 1234, "server-group", b"\x01\x02payload"),
        MessageFragment(3, 7, 1235, "server-group", 9, 1, 4, b"chunk"),
        # a non-empty rtr_list puts four more padding bytes inside the signable
        Token(1, 7, 12, 40, 38, 2, rtr_list=[39], rtg_list=[37],
              message_digest_list=[(40, b"d" * 16)], prev_token_digest=b"p" * 16,
              signature=2**200 + 17),
        TokenCertificate(1, 7, 5, [b"a" * 16, b"b" * 16], signature=2**200 + 17),
        proposal,
        JoinRequest(4, 1.25, signature=77),
        MembershipCommit(0, 5, 3, [proposal.encode()]),
    ]


@pytest.mark.parametrize("frame", _all_frame_kinds(), ids=lambda f: type(f).__name__)
def test_only_canonical_bytes_decode(frame):
    """Flip each bit of each byte of each frame kind: the result is
    rejected or is exactly the encoding of what it decodes to.  Bytes
    the parser never reads — padding, a tail — are always rejected."""
    raw = frame._encode()
    assert decode_frame(raw)._encode() == raw
    for index in range(len(raw)):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[index] ^= 1 << bit
            mutated = bytes(mutated)
            try:
                decoded = decode_frame(mutated)
            except MulticastCodecError:
                continue
            assert decoded._encode() == mutated, (index, bit)
    for index in (1, 2, 3):  # every frame: padding after the type octet
        mutated = bytearray(raw)
        mutated[index] = 0x80
        with pytest.raises(MulticastCodecError, match="non-canonical"):
            decode_frame(bytes(mutated))
    with pytest.raises(MulticastCodecError, match="non-canonical"):
        decode_frame(raw + b"\x00")


def test_a_zero_padded_signature_is_not_canonical():
    """``00 2a`` and ``2a`` are one integer and two byte strings."""
    from repro.multicast.token import Token
    from repro.orb.cdr import CdrEncoder

    token = Token(1, 7, 12, 40, 38, 2, signature=42)
    encoder = CdrEncoder()
    encoder.write("octet", Token.frame_type)
    encoder.write("octets", token.signable_bytes())
    encoder.write("octets", b"\x00\x2a")
    with pytest.raises(MulticastCodecError, match="non-canonical"):
        decode_frame(encoder.getvalue())
