"""The host's libcrypto, for the crypto backends that run on it.

:mod:`repro.crypto.md4` (the one-shot ``MD4()``) and
:mod:`repro.crypto.bignum` (the Montgomery exponentiation that key
generation, signing and verification share) each resolve their symbols
from the handle :func:`open_libcrypto` returns, and each trusts them
only after a known-answer self-test of its own.
"""


def open_libcrypto():
    """The shared object ``_hashlib`` is built from, or ``None``.

    ``_hashlib`` links libcrypto, so opening it needs no library search
    (``ctypes.util.find_library`` may spawn ``ldconfig`` or a compiler)
    and loads no second copy of OpenSSL into the process.  ``None`` when
    ``_hashlib`` or ``ctypes`` is missing or the library cannot be
    opened; any other error goes through.
    """
    try:
        import _hashlib
        import ctypes
    except ImportError:
        return None
    try:
        return ctypes.CDLL(_hashlib.__file__)
    except OSError:
        return None
