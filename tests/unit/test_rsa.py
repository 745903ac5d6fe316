"""Unit tests for RSA signatures and key generation."""

import random

import pytest

from repro.crypto.md4 import md4_digest
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import CryptoError, _pad_digest, generate_keypair


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(random.Random(1234), modulus_bits=300)


def test_modulus_has_requested_size(keypair):
    assert keypair.public.modulus_bits == 300


def test_sign_verify_roundtrip(keypair):
    digest = md4_digest(b"token contents")
    signature = keypair.sign(digest)
    assert keypair.public.verify(digest, signature)


def test_signature_fails_on_different_digest(keypair):
    signature = keypair.sign(md4_digest(b"token contents"))
    assert not keypair.public.verify(md4_digest(b"mutant token"), signature)


def test_tampered_signature_fails(keypair):
    digest = md4_digest(b"token contents")
    signature = keypair.sign(digest)
    assert not keypair.public.verify(digest, signature ^ 1)


def test_out_of_range_signature_fails(keypair):
    digest = md4_digest(b"token contents")
    assert not keypair.public.verify(digest, keypair.public.n + 5)
    assert not keypair.public.verify(digest, -1)


def test_signature_requires_int(keypair):
    with pytest.raises(CryptoError):
        keypair.public.verify(md4_digest(b"x"), b"raw bytes")


def test_other_key_cannot_verify(keypair):
    other = generate_keypair(random.Random(99), modulus_bits=300)
    digest = md4_digest(b"token contents")
    assert not other.public.verify(digest, keypair.sign(digest))


def test_signing_is_deterministic(keypair):
    digest = md4_digest(b"abc")
    assert keypair.sign(digest) == keypair.sign(digest)


def test_keypair_generation_is_seed_deterministic():
    a = generate_keypair(random.Random(7), modulus_bits=256)
    b = generate_keypair(random.Random(7), modulus_bits=256)
    assert a.public == b.public


@pytest.mark.parametrize("bits", [256, 300, 512])
def test_various_modulus_sizes(bits):
    pair = generate_keypair(random.Random(5), modulus_bits=bits)
    digest = md4_digest(b"hello")
    assert pair.public.modulus_bits == bits
    assert pair.public.verify(digest, pair.sign(digest))


def test_too_small_modulus_rejected():
    with pytest.raises(CryptoError):
        generate_keypair(random.Random(5), modulus_bits=128)


def test_generate_prime_is_prime_and_right_size():
    rng = random.Random(11)
    p = generate_prime(64, rng)
    assert p.bit_length() == 64
    assert is_probable_prime(p, rng)


def test_is_probable_prime_on_known_values():
    rng = random.Random(3)
    assert is_probable_prime(2, rng)
    assert is_probable_prime(97, rng)
    assert is_probable_prime(2**61 - 1, rng)  # Mersenne prime
    assert not is_probable_prime(1, rng)
    assert not is_probable_prime(0, rng)
    assert not is_probable_prime(561, rng)  # Carmichael number
    assert not is_probable_prime(2**61 + 1, rng)


def test_crt_signature_equals_plain_exponentiation(keypair):
    """CRT signing produces exactly ``pow(m, d, n)`` with ``d`` derived
    here from the key's primes, independently of the signer."""
    digest = md4_digest(b"crt equivalence check")
    public = keypair.public
    p, q = keypair._crt[:2]
    assert p * q == public.n
    d = pow(public.e, -1, (p - 1) * (q - 1))
    m = int.from_bytes(_pad_digest(digest, public.modulus_bytes), "big")
    signature = keypair.sign(digest)
    assert signature == pow(m, d, public.n)
    assert public.verify(digest, signature)


def test_crt_signatures_verify_across_many_digests(keypair):
    for i in range(10):
        digest = md4_digest(b"msg %d" % i)
        assert keypair.public.verify(digest, keypair.sign(digest))
