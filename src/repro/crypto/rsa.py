"""RSA signatures over message digests.

The Immune system signs each token by "RSA decrypting a message digest
using the private key" and verifies by "RSA encrypting the signature
using the public key" (paper section 8) — i.e. a plain RSA signature
over a fixed-size 16-byte digest, as CryptoLib provided.  The paper's
measurements use a 300-bit modulus; that is the default here, and the
key-size ablation bench sweeps it.

The digest is deterministically padded into a full-width integer
(a simplified PKCS#1 v1.5 block: ``0x00 0x01 0xFF.. 0x00 digest``) so
that forging a signature for a different digest requires inverting RSA
within the simulation — mutant tokens injected by the adversary module
genuinely fail verification.

Every exponentiation runs on :func:`repro.crypto.bignum.fixed_modulus`:
libcrypto's Montgomery exponentiation where the platform offers it,
builtin ``pow`` otherwise (``bignum.BACKEND``).  Key generation's
Miller-Rabin rounds load each candidate once (:mod:`repro.crypto.primes`);
a key pair loads its two CRT halves, and its public key ``e`` and ``n``,
when it is drawn, and keeps them until it is dropped.  The padding, the
range check and the CRT recombination stay in Python.  Keys, signatures
and verdicts are the same on either backend, and what they cost the
simulated CPU comes from the cost model.  A modulus below
:data:`MIN_MODULUS_BITS` cannot hold the padded digest;
:func:`check_modulus_bits` refuses it, for :func:`generate_keypair` and
for the key store that will call it.
"""

from repro.crypto import bignum
from repro.crypto.primes import generate_prime


class CryptoError(Exception):
    """Raised on malformed keys, digests, or signatures."""


#: the smallest modulus a key pair is drawn for: it must hold a padded MD4 digest
MIN_MODULUS_BITS = 200


def _egcd(a, b):
    """Iterative extended Euclid: returns (g, x, y) with a*x + b*y = g.

    Iterative rather than recursive so large moduli (the key-size
    ablation sweeps well past 1000 bits) can never hit the interpreter
    recursion limit, and keygen avoids ~bit_length frame allocations.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _modinv(a, m):
    g, x, _ = _egcd(a % m, m)
    if g != 1:
        raise CryptoError("modular inverse does not exist")
    return x % m


def _pad_digest(digest, modulus_bytes):
    """Embed a digest in a PKCS#1-style block sized to the modulus."""
    if len(digest) + 3 > modulus_bytes:
        raise CryptoError(
            "digest of %d bytes does not fit %d-byte modulus"
            % (len(digest), modulus_bytes)
        )
    padding = b"\xff" * (modulus_bytes - len(digest) - 3)
    return b"\x00\x01" + padding + b"\x00" + digest


class RsaPublicKey:
    """The verification half of an RSA key pair."""

    def __init__(self, n, e):
        self.n = n
        self.e = e
        self.modulus_bits = n.bit_length()
        self.modulus_bytes = (self.modulus_bits + 7) // 8
        #: ``signature -> signature**e mod n``, loaded once
        self._power = bignum.fixed_modulus(e, n)

    def verify(self, digest, signature):
        """True iff ``signature`` is a valid signature of ``digest``."""
        if not isinstance(signature, int):
            raise CryptoError("signature must be an int, got %r" % type(signature))
        if not 0 <= signature < self.n:
            return False
        recovered = self._power(signature)
        try:
            expected = int.from_bytes(_pad_digest(digest, self.modulus_bytes), "big")
        except CryptoError:
            return False
        return recovered == expected

    def __eq__(self, other):
        return (
            isinstance(other, RsaPublicKey) and self.n == other.n and self.e == other.e
        )

    def __hash__(self):
        return hash((self.n, self.e))

    def __repr__(self):
        return "RsaPublicKey(%d bits)" % self.modulus_bits


class RsaKeyPair:
    """A private signing key together with its public half."""

    def __init__(self, n, e, d, p, q):
        self.public = RsaPublicKey(n, e)
        # Precomputed CRT exponents, as every production RSA
        # implementation keeps: signing modulo p and q separately costs
        # two half-width modexps (~4x faster) and recombines to the
        # *same* integer as pow(m, d, n).
        dp, dq = d % (p - 1), d % (q - 1)
        self._crt = (p, q, dp, dq, _modinv(q, p))
        #: ``x -> x**dp mod p`` and ``x -> x**dq mod q``, loaded once and
        #: released when the pair is dropped
        self._halves = (bignum.fixed_modulus(dp, p), bignum.fixed_modulus(dq, q))

    def sign(self, digest):
        """Sign a fixed-size digest; returns the signature as an int."""
        block = _pad_digest(digest, self.public.modulus_bytes)
        m = int.from_bytes(block, "big")
        p, q, _, _, qinv = self._crt
        power_p, power_q = self._halves
        mp = power_p(m % p)
        mq = power_q(m % q)
        return mq + ((mp - mq) * qinv % p) * q

    def __repr__(self):
        return "RsaKeyPair(%d bits)" % self.public.modulus_bits


def check_modulus_bits(modulus_bits):
    """Raise :class:`CryptoError` if no key pair can be drawn at this size."""
    if modulus_bits < MIN_MODULUS_BITS:
        raise CryptoError("modulus of %d bits cannot hold a padded MD4 digest" % modulus_bits)


def generate_keypair(rng, modulus_bits=300):
    """Generate an RSA key pair with a modulus of ``modulus_bits`` bits.

    300 bits matches the paper's measurement configuration.  The public
    exponent is 65537 when coprime to phi, falling back to smaller
    Fermat primes for unusual phi values.
    """
    check_modulus_bits(modulus_bits)
    half = modulus_bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(modulus_bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != modulus_bits:
            continue
        phi = (p - 1) * (q - 1)
        for e in (65537, 257, 17, 5, 3):
            if phi % e != 0:
                d = _modinv(e, phi)
                return RsaKeyPair(n, e, d, p=p, q=q)
