"""Property-based tests for the crypto substrate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import bignum, md4
from repro.crypto.md4 import md4_digest
from repro.crypto.rsa import _pad_digest, generate_keypair

_KEYPAIR = generate_keypair(random.Random(77), modulus_bits=300)
_OTHER = generate_keypair(random.Random(78), modulus_bits=300)


@given(st.binary(max_size=512))
@settings(max_examples=200)
def test_md4_is_deterministic_and_fixed_size(data):
    assert md4_digest(data) == md4_digest(data)
    assert len(md4_digest(data)) == 16


@given(st.binary(max_size=300))
@settings(max_examples=200)
def test_md4_unrolled_block_equals_rfc_reference_block(data):
    """The unrolled compression function and the table-driven RFC 1320
    transcription reach the same state after every block."""
    padded = md4._pad(data)
    fast = reference = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    for offset in range(0, len(padded), 64):
        block = padded[offset : offset + 64]
        fast = md4._process_block(fast, block)
        reference = md4._process_block_reference(reference, block)
        assert fast == reference


@st.composite
def _exponentiations(draw):
    """An odd modulus of 8-1024 bits, one to three bases in ``[0, n)`` and an
    exponent that is 0, 1 or anything up to ``n``."""
    bits = draw(st.integers(8, 1024))
    modulus = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
    bases = draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=3))
    exponent = draw(st.one_of(st.sampled_from((0, 1)), st.integers(0, modulus)))
    return bases, exponent, modulus


_NATIVE_ONLY = pytest.mark.skipif(
    bignum.BACKEND == "builtin",
    reason="no usable libcrypto exponentiation on this platform: builtin pow is the only one",
)


@_NATIVE_ONLY
@given(_exponentiations())
@settings(max_examples=200)
def test_native_exponentiation_equals_builtin_pow(case):
    """Over one loaded modulus, every base in turn comes out exactly as
    ``pow`` computes it."""
    bases, exponent, modulus = case
    power = bignum.fixed_modulus(exponent, modulus)
    assert [power(base) for base in bases] == [pow(b, exponent, modulus) for b in bases]
    power.close()


@_NATIVE_ONLY
@given(st.integers(200, 1024), st.integers(0, 2**32), st.binary(min_size=16, max_size=16))
@settings(max_examples=25)
def test_native_sign_and_verify_equal_builtin_pow(bits, seed, digest):
    """For key pairs across the key-size ablation's range, the signature
    is ``pow(m, d, n)`` exactly, and ``verify`` gives builtin ``pow``'s
    verdict on it, on its neighbours and on both ends of the range."""
    key = generate_keypair(random.Random(seed), modulus_bits=bits)
    p, q = key._crt[:2]
    n, e = key.public.n, key.public.e
    m = int.from_bytes(_pad_digest(digest, key.public.modulus_bytes), "big")
    signature = key.sign(digest)
    assert signature == pow(m, pow(e, -1, (p - 1) * (q - 1)), n)
    for candidate in (signature, signature + 1, signature - 1, 0, n - 1):
        expected = 0 <= candidate < n and pow(candidate, e, n) == m
        assert key.public.verify(digest, candidate) == expected


@given(st.binary(max_size=256), st.binary(max_size=256))
@settings(max_examples=200)
def test_md4_distinguishes_inputs(a, b):
    if a != b:
        assert md4_digest(a) != md4_digest(b)


@given(st.binary(min_size=1, max_size=128), st.integers(0, 127))
@settings(max_examples=100)
def test_md4_single_bit_flip_changes_digest(data, position):
    flipped = bytearray(data)
    index = position % len(flipped)
    flipped[index] ^= 0x01
    assert md4_digest(data) != md4_digest(bytes(flipped))


@given(st.binary(max_size=256))
@settings(max_examples=50)
def test_rsa_sign_verify_roundtrip(message):
    digest = md4_digest(message)
    signature = _KEYPAIR.sign(digest)
    assert _KEYPAIR.public.verify(digest, signature)


@given(st.binary(max_size=128), st.binary(max_size=128))
@settings(max_examples=50)
def test_rsa_signature_binds_to_digest(message_a, message_b):
    digest_a = md4_digest(message_a)
    digest_b = md4_digest(message_b)
    signature = _KEYPAIR.sign(digest_a)
    if digest_a != digest_b:
        assert not _KEYPAIR.public.verify(digest_b, signature)


@given(st.binary(max_size=128))
@settings(max_examples=50)
def test_rsa_signature_binds_to_key(message):
    digest = md4_digest(message)
    signature = _KEYPAIR.sign(digest)
    assert not _OTHER.public.verify(digest, signature)


@given(st.binary(max_size=64), st.integers(min_value=1))
@settings(max_examples=50)
def test_rsa_tampered_signature_rejected(message, delta):
    digest = md4_digest(message)
    signature = _KEYPAIR.sign(digest)
    tampered = (signature + delta) % _KEYPAIR.public.n
    if tampered != signature:
        assert not _KEYPAIR.public.verify(digest, tampered)
