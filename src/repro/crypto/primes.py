"""Probabilistic prime generation for RSA key material.

Trial division by the small primes (one ``gcd`` against their product)
followed by Miller-Rabin with caller-supplied randomness, so key
generation is reproducible from the experiment seed.

Each round's ``a**d mod n`` runs on :func:`repro.crypto.bignum.fixed_modulus`
(libcrypto's Montgomery exponentiation where the platform offers it,
builtin ``pow`` otherwise; ``bignum.BACKEND``).  A candidate that passes
trial division has ``n`` and ``d`` loaded once: round 1 is one
exponentiation, and a candidate that passes it (in practice, a prime)
keeps them for the other rounds, after which they are released.  The
bases are drawn in the same order and the squaring loop is the same
Python on both backends, so every prime, key pair and the state of the
caller's ``Random`` afterwards are bit-identical whichever runs
(``tests/unit/test_pow_backend.py``).
"""

import contextlib
import math

from repro.crypto import bignum

_SMALL_PRIMES = frozenset((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
))
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


def _is_witness(x, n, r):
    """Whether ``x = a**d mod n`` proves ``n`` composite (``n - 1 = d * 2**r``)."""
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n, rng, rounds=32):
    """Miller-Rabin primality test; false positives < 4**-rounds."""
    if n in _SMALL_PRIMES:
        return True
    if n < 2 or math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    # Write n - 1 as d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Loaded once per candidate: round 1 rejects almost every composite,
    # and one that passes it (in practice, a prime) keeps n and d loaded
    # for the other rounds.
    with contextlib.closing(bignum.fixed_modulus(d, n)) as power:
        for _ in range(rounds):
            if _is_witness(power(rng.randrange(2, n - 1)), n, r):
                return False
    return True


def generate_prime(bits, rng):
    """Return a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size %d too small" % bits)
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate, rng):
            return candidate
