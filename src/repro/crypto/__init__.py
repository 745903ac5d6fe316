"""Cryptographic substrate.

The Immune system uses CryptoLib's RSA for token signatures and MD4 for
message digests.  Both are reimplemented here from their specifications
(RFC 1320 for MD4; textbook RSA with Miller-Rabin key generation) so
the protocols above operate on real digests and real signatures —
corruption injected on the wire genuinely breaks digests, and forged
tokens genuinely fail verification.  (Where the platform's libcrypto
exports ``MD4()`` the host computes the same RFC 1320 function there,
and every RSA exponentiation — key generation's Miller-Rabin rounds,
signing and verification — runs on its bignums; see
:mod:`repro.crypto.md4` and :mod:`repro.crypto.bignum`.)

Because the host CPU is decades faster than the paper's 167 MHz
UltraSPARCs, *simulated* CPU cost for each operation comes from
:class:`repro.crypto.costmodel.CryptoCostModel`, calibrated to that era
so that the performance study keeps its shape.
"""

from repro.crypto.md4 import md4_digest, md4_hexdigest
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.keystore import KeyStore
from repro.crypto.costmodel import CryptoCostModel

__all__ = [
    "md4_digest",
    "md4_hexdigest",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "KeyStore",
    "CryptoCostModel",
]
