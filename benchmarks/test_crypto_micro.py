"""A4: host-side crypto microbenchmarks.

Measures the *real* wall-clock cost of MD4 (whichever backend
``repro.crypto.md4.BACKEND`` names) and the from-scratch RSA on the
host.  These numbers do not feed the simulation
(which charges era-calibrated costs from the cost model); they sanity-
check the cost model's relative ordering: signing >> verification >>
digesting, and digesting scales with input size.
"""

import random

import pytest

from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.md4 import md4_digest
from repro.crypto.rsa import generate_keypair


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(random.Random(7), modulus_bits=300)


def test_md4_64_bytes(benchmark):
    data = b"\xab" * 64
    digest = benchmark(md4_digest, data)
    assert len(digest) == 16


def test_md4_4096_bytes(benchmark):
    data = b"\xab" * 4096
    digest = benchmark(md4_digest, data)
    assert len(digest) == 16


def test_rsa_sign_300_bits(benchmark, keypair):
    digest = md4_digest(b"token")
    signature = benchmark(keypair.sign, digest)
    assert keypair.public.verify(digest, signature)


def test_rsa_verify_300_bits(benchmark, keypair):
    digest = md4_digest(b"token")
    signature = keypair.sign(digest)
    assert benchmark(lambda: keypair.public.verify(digest, signature))


def test_cost_model_relative_ordering():
    model = CryptoCostModel()
    assert model.sign_cost() > model.verify_cost() > model.digest_cost(64)
    assert model.digest_cost(4096) > model.digest_cost(64)
