"""Modular exponentiation over a modulus loaded once, for the RSA code.

Key generation's Miller-Rabin rounds (:mod:`repro.crypto.primes`), a
signature's two CRT halves and a verification's ``e``-th power
(:mod:`repro.crypto.rsa`) each raise many bases to one exponent modulo
one modulus.  ``fixed_modulus(exponent, modulus)`` loads its operands
once (the modulus must be odd) and returns ``power``, with
``power(base) == pow(base, exponent, modulus)`` for every ``base``.
``power.close()`` releases what it holds, at most once; a ``power``
nobody closes is released when it is collected.

What an exponentiation costs the *simulated* CPU comes from the cost
model (key generation charges none), so the host may compute it however
is fastest.  There are two backends, chosen once at import from what
the platform offers and readable as :data:`BACKEND`; there is no option
to pick one:

``"libcrypto"``
    OpenSSL's ``BN_mod_exp_mont``, called through :mod:`ctypes` on the
    library :func:`repro.crypto.libcrypto.open_libcrypto` opens (the one
    :mod:`repro.crypto.md4` runs on).  Each ``power`` holds its own
    bignums, ``BN_CTX`` and Montgomery context, freed by ``close()`` or,
    for one nobody closes (a key pair's), by a :func:`weakref.finalize`
    once ``power`` is garbage, so drawing and dropping keys leaks no
    native memory.  It is trusted only after it answers a set of probes
    as builtin ``pow`` does: several bases per loaded modulus, exponents
    0 and 1, a zero base, and the shapes of a Miller-Rabin round, a
    150-bit signing half and a 300-bit verification.
``"builtin"``
    Builtin ``pow``, used when ``_hashlib`` or ``ctypes`` is missing,
    the library cannot be opened, a ``BN_*`` symbol is not exported or
    the probes disagree.

Both compute the same integers, so every prime, key pair, signature and
verdict is bit-identical whichever runs (``tests/unit/test_pow_backend.py``;
builtin ``pow`` is the oracle of Hypothesis properties in
``tests/properties/test_crypto_properties.py``).
"""

import weakref

from repro.crypto.libcrypto import open_libcrypto


def _builtin_fixed_modulus(exponent, modulus):
    """``base -> pow(base, exponent, modulus)``, the fallback; its ``close``
    has nothing to free."""

    def power(base):
        return pow(base, exponent, modulus)

    power.close = _nothing_to_free
    return power


def _nothing_to_free():
    pass


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


def _free(owned):
    """Release ``(free, pointer)`` pairs, last allocated first."""
    while owned:
        free, pointer = owned.pop()
        free(pointer)


def _load_libcrypto():
    """libcrypto's exponentiation as a ``fixed_modulus`` function, or ``None``.

    ``fixed_modulus(exponent, modulus)`` loads its operands once, with a
    Montgomery context (the modulus must be odd), and returns ``power``.
    Each ``power`` owns its bignums and output buffer, so two never
    interfere; one ``power`` is not for concurrent calls.  A libcrypto
    call that fails raises ``RuntimeError``.
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

    def load(value, handle):
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        check(bin2bn(raw, len(raw), handle), "BN_bin2bn")

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
        except BaseException:
            _free(owned)
            raise

        def power(base):
            load(base, base_bn)
            check(mod_exp_mont(result, base_bn, exponent_bn, modulus_bn, context, mont),
                  "BN_mod_exp_mont")
            bn2binpad(result, out, width)
            return int.from_bytes(out.raw, "big")

        # ``close()`` frees now; a ``power`` nobody closes is freed when
        # it is collected (at exit the process goes, and its memory too)
        power.close = weakref.finalize(power, _free, owned)
        power.close.atexit = False
        return power

    return fixed_modulus


#: (exponent, odd modulus, bases): a Mersenne prime's Fermat test, exponents
#: 0 and 1, a zero base, Miller-Rabin's shape at 150 and 300 bits, a
#: signature's 150-bit CRT half and a 300-bit verification's e-th power
_PROBES = (
    (2**127 - 2, 2**127 - 1, (3, 2**126 + 12345)),
    (0, 1009, (0, 7)),
    (1, 2**89 - 1, (0, 12345, 2**88 + 1)),
    ((2**149 + 2**75) >> 1, 2**149 + 2**75 + 1, (2, 3**90, 2**149)),
    (2**299 + 3**180, 2**299 + 5**120, (5**100, 2**298 + 7)),
    (3**93 + 2, 2**149 + 3**60, (0, 1, 7**52, 2**149 + 3**60 - 1)),
    (65537, 2**299 + 7**100, (0, 1, 3**188, 2**299 + 7**100 - 1)),
)


def _agrees_with_builtin(fixed_modulus):
    """Whether ``fixed_modulus`` answers every probe as builtin ``pow`` does,
    each base in turn over one loaded modulus."""
    for exponent, modulus, bases in _PROBES:
        power = fixed_modulus(exponent, modulus)
        try:
            if [power(base) for base in bases] != [pow(b, exponent, modulus) for b in bases]:
                return False
        finally:
            power.close()
    return True


def _select_backend():
    """Pick the exponentiation: native if present and correct."""
    native = _load_libcrypto()
    if native is not None and _agrees_with_builtin(native):
        return "libcrypto", native
    return "builtin", _builtin_fixed_modulus


#: which exponentiation key generation, signing and verification run on:
#: "libcrypto" or "builtin"; ``fixed_modulus(exponent, modulus)`` returns
#: ``power`` (see above) on it.  Callers look it up here at every call, so
#: a test can swap it for the fallback (``tests.support.force_builtin_pow``).
BACKEND, fixed_modulus = _select_backend()
