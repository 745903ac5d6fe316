"""Per-processor key material and signing/digesting services.

Every processor "possesses a private key known only to itself with
which it can digitally sign messages" and "is able to obtain the public
keys of other processors" (paper section 7).  :class:`KeyStore` models
the public-key directory; :class:`SigningService` is the per-processor
facade that the token protocol calls, and is the single point where
*simulated* CPU time for crypto work is charged to the local processor
via the cost model.
"""

from repro import perf
from repro.crypto.md4 import md4_digest
from repro.crypto.rsa import check_modulus_bits, generate_keypair

#: payload bytes -> digest, shared by every processor in the process:
#: in a broadcast simulation N receivers digest byte-identical frames,
#: so the pure computation is done once in wall-clock (each processor's
#: *simulated* digest time is still charged individually)
_DIGEST_CACHE = perf.register_cache(perf.BytesKeyedCache("crypto.digest"))

#: (signer_id, signable_bytes, signature) -> bool; ditto for the RSA
#: verification every receiver performs on the same signed token
_VERIFY_CACHE = perf.register_cache(perf.BytesKeyedCache("crypto.verify"))


class KeyStore:
    """A directory of every processor's public key.

    A real deployment would bootstrap this from a certificate
    authority; the simulation draws key pairs from the experiment seed.
    A principal takes its place in the draw order when it is enrolled
    (:meth:`signing_service`); its key pair is generated when first
    needed — its first signature, the first verification against it,
    or :meth:`provision` — after every earlier-enrolled one still
    missing.  So each principal holds the key that drawing in enrolment
    order gives it, and a deployment that never signs generates none.
    Private keys never leave the store except through the owning
    processor's :class:`SigningService` — a Byzantine processor cannot
    sign as anyone else, which is exactly the authentication property
    the protocols rely on.

    A modulus too small to draw a key at is refused here, with
    :class:`~repro.crypto.rsa.CryptoError`, whether or not a key is
    ever drawn.
    """

    def __init__(self, rng, modulus_bits=300, digest_fn=md4_digest):
        check_modulus_bits(modulus_bits)
        self._rng = rng
        self.modulus_bits = modulus_bits
        self._raw_digest_fn = digest_fn
        #: the memoising wrapper IS the store's digest function: every
        #: consumer (signing services, voters, structural hashing)
        #: shares one memo keyed by payload bytes
        self.digest_fn = self._digest
        #: principal -> its place in the draw order
        self._rank = {}
        #: the key pairs drawn so far, by rank
        self._drawn = []

    def _digest(self, data):
        """``digest_fn(data)``, memoised by payload bytes.

        The raw function participates in the key: key stores built on
        different digest functions (MD4 vs MD5) share the process-wide
        memo without ever seeing each other's digests.
        """
        fn = self._raw_digest_fn
        key = (fn, bytes(data))
        digest = _DIGEST_CACHE.get(key)
        if digest is None:
            digest = _DIGEST_CACHE.put(key, fn(key[1]))
        return digest

    @property
    def drawn(self):
        """How many key pairs have been generated so far."""
        return len(self._drawn)

    def _enrol(self, proc_id):
        """``proc_id``'s place in the draw order, given it now if it is new."""
        return self._rank.setdefault(proc_id, len(self._rank))

    def _keypair(self, rank):
        """The key pair at ``rank``, drawing it and every earlier one still missing."""
        drawn = self._drawn
        while len(drawn) <= rank:
            drawn.append(generate_keypair(self._rng, self.modulus_bits))
        return drawn[rank]

    def provision(self, proc_id):
        """Enrol ``proc_id`` if it is new and return its key pair, drawn now if need be."""
        return self._keypair(self._enrol(proc_id))

    def public_key(self, proc_id):
        """Public key of ``proc_id``; ``KeyError`` if it was never enrolled.

        A signer id that no principal holds (a corrupted frame, a
        masquerader) is refused here and draws no key.
        """
        return self._keypair(self._rank[proc_id]).public

    def signing_service(self, processor, cost_model, obs=None):
        """Enrol one processor and build its :class:`SigningService`."""
        self._enrol(processor.proc_id)
        return SigningService(processor, self, cost_model, obs=obs)


class SigningService:
    """Crypto operations bound to one processor's CPU and private key.

    Crypto work is charged to the CPU's *priority* lane: in the Immune
    system the Secure Multicast Protocols (and their signatures) run
    below the ORB and preempt application processing.
    """

    def __init__(self, processor, keystore, cost_model, obs=None):
        self.processor = processor
        self._keystore = keystore
        self.cost_model = cost_model
        #: operation counts; ``batched_digests`` is the number of token
        #: digests that batch signatures and verifications covered
        self.stats = {
            "digest_ops": 0,
            "sign_ops": 0,
            "verify_ops": 0,
            "batch_sign_ops": 0,
            "batch_verify_ops": 0,
            "batched_digests": 0,
        }
        #: simulated CPU seconds charged, by operation
        self.seconds = {"digest": 0, "sign": 0, "verify": 0}
        if obs is not None:
            registry = obs.registry
            pid = processor.proc_id
            registry.derive_counters(
                self.stats, {key: "crypto." + key for key in self.stats}, proc=pid
            )
            for op in self.seconds:
                registry.derive_counters(
                    self.seconds, {op: "crypto.seconds"}, proc=pid, op=op
                )

    @property
    def digest_fn(self):
        """The raw digest function (no CPU charging) for structural hashing."""
        return self._keystore.digest_fn

    def _charge(self, cost, op):
        self.processor.charge(cost, "crypto." + op, priority=True)
        self.seconds[op] += cost

    def digest(self, data):
        """MD4 digest of ``data``, charging simulated digest time."""
        self._charge(self.cost_model.digest_cost(len(data)), "digest")
        self.stats["digest_ops"] += 1
        return self._keystore.digest_fn(data)

    def sign(self, data):
        """Sign ``digest(data)``; charges the (dominant) signing cost."""
        digest = self._keystore.digest_fn(data)
        self._charge(self.cost_model.digest_cost(len(data)), "digest")
        self._charge(self.cost_model.sign_cost(), "sign")
        self.stats["digest_ops"] += 1
        self.stats["sign_ops"] += 1
        return self._keystore.provision(self.processor.proc_id).sign(digest)

    def verify(self, signer_id, data, signature):
        """Verify ``signature`` over ``data`` against ``signer_id``'s key.

        Simulated digest + verification time is charged to this
        processor unconditionally; only the wall-clock modular
        exponentiation is shared.  Every receiver of a broadcast token
        verifies the same ``(signer, bytes, signature)`` triple, so the
        RSA math runs once per frame instead of once per receiver.  A
        forged or corrupted signature is a different triple and misses.
        A signer that was never enrolled fails without drawing a key.
        """
        digest = self._keystore.digest_fn(data)
        self._charge(self.cost_model.digest_cost(len(data)), "digest")
        self._charge(self.cost_model.verify_cost(), "verify")
        self.stats["digest_ops"] += 1
        self.stats["verify_ops"] += 1
        try:
            public_key = self._keystore.public_key(signer_id)
        except KeyError:
            return False
        key = (public_key, bytes(data), signature)
        result = _VERIFY_CACHE.get(key)
        if result is None:
            result = _VERIFY_CACHE.put(key, public_key.verify(digest, signature))
        return result

    def sign_batch(self, data, batch_size):
        """Sign ``data`` covering ``batch_size`` batched digests.

        One RSA operation vouches a whole span of token visits (the
        flat batch-signature scheme): the signing cost is charged once,
        plus the marginal cost of digesting the batched entries.
        """
        self.stats["batch_sign_ops"] += 1
        self.stats["batched_digests"] += max(batch_size, 1)
        return self.sign(data)

    def verify_batch(self, signer_id, data, signature, batch_size):
        """Verify one batch signature covering ``batch_size`` digests."""
        self.stats["batch_verify_ops"] += 1
        self.stats["batched_digests"] += max(batch_size, 1)
        return self.verify(signer_id, data, signature)
