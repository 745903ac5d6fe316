"""MD5 against the RFC 1321 appendix vectors and hashlib."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.md5 import md5_digest, md5_hexdigest

RFC1321_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f",
    ),
    (
        b"1234567890123456789012345678901234567890"
        b"1234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a",
    ),
]


@pytest.mark.parametrize("message,expected", RFC1321_VECTORS)
def test_rfc1321_vectors(message, expected):
    assert md5_hexdigest(message) == expected


@given(st.binary(max_size=512))
@settings(max_examples=200)
def test_matches_hashlib(data):
    assert md5_digest(data) == hashlib.md5(data).digest()


def test_digest_is_16_bytes():
    assert len(md5_digest(b"anything")) == 16


def test_rejects_str():
    with pytest.raises(TypeError):
        md5_digest("not bytes")


def test_block_boundaries_match_hashlib():
    for n in (55, 56, 57, 63, 64, 65, 127, 128):
        data = bytes(range(n))
        assert md5_digest(data) == hashlib.md5(data).digest()


def test_bytearray_accepted():
    assert md5_digest(bytearray(b"abc")) == md5_digest(b"abc")
