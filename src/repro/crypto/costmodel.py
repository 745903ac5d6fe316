"""Simulated CPU costs for cryptographic operations.

The paper's performance study ran on 167 MHz UltraSPARCs; a modern host
computes MD4 and 300-bit RSA orders of magnitude faster, which would
flatten the very effect Figure 7 demonstrates (signature generation
dominating case 4).  The cost model therefore charges *simulated* CPU
seconds for each operation, calibrated to era-appropriate values:

* MD4 digests at roughly 25 MB/s plus a small fixed overhead;
* RSA signing via full-width modular exponentiation, which scales with
  the cube of the modulus size (quadratic multiply x linear exponent);
* RSA verification with a short public exponent, scaling quadratically.

The defaults put a 300-bit signature at 3 ms — consistent with
CryptoLib-era measurements — and are swept by the key-size ablation.
"""


class CryptoCostModel:
    """Charges simulated CPU time for digests and signatures."""

    REFERENCE_MODULUS_BITS = 300

    #: fixed and per-byte seconds of one MD4 digest
    digest_base = 5e-6
    digest_per_byte = 40e-9
    #: seconds of one signature / verification at the reference modulus
    sign_base = 3e-3
    verify_base = 2e-4

    def __init__(self, modulus_bits=300):
        self.modulus_bits = modulus_bits

    def digest_cost(self, num_bytes):
        """Seconds to MD4-digest ``num_bytes``."""
        return self.digest_base + self.digest_per_byte * num_bytes

    def _scale(self, power):
        return (self.modulus_bits / self.REFERENCE_MODULUS_BITS) ** power

    def sign_cost(self):
        """Seconds to generate one RSA signature (cubic in modulus size).

        "The time required for signing is independent of the size of
        the original message" (paper section 8) because only the fixed
        16-byte digest is exponentiated — so this takes no size
        argument.
        """
        return self.sign_base * self._scale(3)

    def verify_cost(self):
        """Seconds to verify one RSA signature (quadratic in modulus size)."""
        return self.verify_base * self._scale(2)

    def batch_sign_cost(self, batch_size=1):
        """Seconds to sign one certificate vouching ``batch_size`` digests.

        One RSA exponentiation regardless of the batch size — only the
        digest of the batched 16-byte entries grows with it.  This is
        the whole point of the batch-signature scheme: the per-visit
        signing cost is ``batch_sign_cost(B) / B``, asymptotically the
        digest cost alone.
        """
        return self.sign_cost() + self.digest_cost(16 * max(batch_size, 1))

    def batch_verify_cost(self, batch_size=1):
        """Seconds to verify one certificate vouching ``batch_size`` digests."""
        return self.verify_cost() + self.digest_cost(16 * max(batch_size, 1))

    def describe(self):
        """Calibration summary for run reports: {operation: seconds}.

        The observability dashboard prints this next to the *measured*
        ``crypto.seconds`` counters, so a run's crypto bill can be read
        against the model that produced it.
        """
        return {
            "modulus_bits": self.modulus_bits,
            "digest_base": self.digest_base,
            "digest_per_byte": self.digest_per_byte,
            "sign": self.sign_cost(),
            "verify": self.verify_cost(),
        }
