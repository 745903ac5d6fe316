"""Probabilistic prime generation for RSA key material.

Trial division by the small primes (one ``gcd`` against their product)
followed by Miller-Rabin with caller-supplied randomness, so key
generation is reproducible from the experiment seed.

Key generation is host work at set-up: no simulated CPU is charged for
it, so the host may exponentiate however is fastest.  Each round's
``a**d mod n`` has two backends, chosen once at import from what the
platform offers and readable as :data:`BACKEND`; there is no option to
pick one:

``"libcrypto"``
    OpenSSL's bignum exponentiation, called through :mod:`ctypes` on the
    library :func:`repro.crypto.libcrypto.open_libcrypto` opens (the one
    :mod:`repro.crypto.md4` runs on).  A candidate that passes trial
    division has ``n`` and ``d`` loaded once, with a Montgomery context;
    round 1 is one ``BN_mod_exp_mont``, and a candidate that passes it
    (in practice, a prime) keeps them for the other rounds.  It is
    trusted only after it answers a set of probes — several bases per
    loaded modulus, exponents 0 and 1, a zero base, moduli up to 300
    bits — exactly as builtin ``pow`` does.
``"builtin"``
    Builtin ``pow``, used when ``_hashlib`` or ``ctypes`` is missing,
    the library cannot be opened, a ``BN_*`` symbol is not exported or
    the probes disagree.

Both compute the same integers, the bases are drawn in the same order
and the squaring loop is the same Python on both, so every prime, key
pair and the state of the caller's ``Random`` afterwards are
bit-identical whichever runs (``tests/unit/test_pow_backend.py``).
"""

import contextlib
import math

from repro.crypto.libcrypto import open_libcrypto

_SMALL_PRIMES = frozenset((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
))
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


@contextlib.contextmanager
def _builtin_fixed_modulus(exponent, modulus):
    """``base -> pow(base, exponent, modulus)``, the fallback's context manager."""
    yield lambda base: pow(base, exponent, modulus)


#: the libcrypto functions the native backend calls: (argument types, result type)
_SIGNATURES = {
    "BN_new": ((), "p"),
    "BN_free": (("p",), None),
    "BN_bin2bn": (("s", "i", "p"), "p"),
    "BN_bn2binpad": (("p", "s", "i"), "i"),
    "BN_CTX_new": ((), "p"),
    "BN_CTX_free": (("p",), None),
    "BN_MONT_CTX_new": ((), "p"),
    "BN_MONT_CTX_set": (("p",) * 3, "i"),
    "BN_MONT_CTX_free": (("p",), None),
    "BN_mod_exp_mont": (("p",) * 6, "i"),
}


def _load_libcrypto():
    """libcrypto's exponentiation as a ``fixed_modulus`` function, or ``None``.

    ``fixed_modulus(exponent, modulus)`` is a context manager yielding
    ``base -> pow(base, exponent, modulus)`` over operands loaded once,
    with a Montgomery context (the modulus must be odd).  Each call
    allocates its own bignums and frees them on the way out, so it is
    reentrant; a libcrypto call that fails raises ``RuntimeError``.
    """
    library = open_libcrypto()
    if library is None:
        return None
    try:
        bn = {name: getattr(library, name) for name in _SIGNATURES}
    except AttributeError:
        return None
    import ctypes

    types = {"p": ctypes.c_void_p, "s": ctypes.c_char_p, "i": ctypes.c_int, None: None}
    for name, (arguments, result) in _SIGNATURES.items():
        bn[name].argtypes = tuple(types[code] for code in arguments)
        bn[name].restype = types[result]
    bin2bn, mod_exp_mont, bn2binpad = bn["BN_bin2bn"], bn["BN_mod_exp_mont"], bn["BN_bn2binpad"]

    def check(result, name):
        """``result``, unless it is NULL or 0: libcrypto's failure."""
        if not result:
            raise RuntimeError("libcrypto's %s failed" % name)
        return result

    def load(value, bignum):
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        check(bin2bn(raw, len(raw), bignum), "BN_bin2bn")

    @contextlib.contextmanager
    def fixed_modulus(exponent, modulus):
        width = (modulus.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(width)
        owned = []  # (free, pointer), released in reverse

        def new(name, free="BN_free"):
            pointer = check(bn[name](), name)
            owned.append((bn[free], pointer))
            return pointer

        try:
            context = new("BN_CTX_new", "BN_CTX_free")
            result, base_bn, exponent_bn, modulus_bn = (new("BN_new") for _ in range(4))
            load(exponent, exponent_bn)
            load(modulus, modulus_bn)
            mont = new("BN_MONT_CTX_new", "BN_MONT_CTX_free")
            check(bn["BN_MONT_CTX_set"](mont, modulus_bn, context), "BN_MONT_CTX_set")

            def power(base):
                load(base, base_bn)
                check(mod_exp_mont(result, base_bn, exponent_bn, modulus_bn, context, mont),
                      "BN_mod_exp_mont")
                bn2binpad(result, out, width)
                return int.from_bytes(out.raw, "big")

            yield power
        finally:
            for free, pointer in reversed(owned):
                free(pointer)

    return fixed_modulus


#: (exponent, odd modulus, bases): a Mersenne prime's Fermat test, exponents
#: 0 and 1, a zero base, and Miller-Rabin's shape at 150 and 300 bits
_PROBES = (
    (2**127 - 2, 2**127 - 1, (3, 2**126 + 12345)),
    (0, 1009, (0, 7)),
    (1, 2**89 - 1, (0, 12345, 2**88 + 1)),
    ((2**149 + 2**75) >> 1, 2**149 + 2**75 + 1, (2, 3**90, 2**149)),
    (2**299 + 3**180, 2**299 + 5**120, (5**100, 2**298 + 7)),
)


def _agrees_with_builtin(fixed_modulus):
    """Whether ``fixed_modulus`` answers every probe as builtin ``pow`` does,
    each base in turn over one loaded modulus."""
    for exponent, modulus, bases in _PROBES:
        with fixed_modulus(exponent, modulus) as power:
            if [power(base) for base in bases] != [pow(b, exponent, modulus) for b in bases]:
                return False
    return True


def _select_backend():
    """Pick the exponentiation: native if present and correct."""
    native = _load_libcrypto()
    if native is not None and _agrees_with_builtin(native):
        return "libcrypto", native
    return "builtin", _builtin_fixed_modulus


#: which exponentiation Miller-Rabin runs on: "libcrypto" or "builtin"
BACKEND, _fixed_modulus = _select_backend()


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
    with _fixed_modulus(d, n) as power:
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
