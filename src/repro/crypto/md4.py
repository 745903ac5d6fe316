"""MD4 message digest (RFC 1320).

The Immune system uses MD4 for the message digests carried in the
token's ``message_digest_list`` field and for the 16-byte digest that
is RSA-signed to produce the token signature.

MD4 is cryptographically broken by modern standards; it is used here
because reproducing the paper's system faithfully requires the same
(16-byte, cheap) digest function it used.  Nothing outside this module
depends on MD4 specifically — :class:`repro.crypto.keystore.KeyStore`
takes the digest function as a parameter.

What a digest costs the *simulated* CPU comes from the cost model, so
the host may compute RFC 1320 however is fastest.  :func:`md4_digest`
has two backends, chosen once at import from what the platform offers
and readable as :data:`BACKEND`; there is no option to pick one:

``"libcrypto"``
    OpenSSL's one-shot ``MD4(data, len, out)``, called through
    :mod:`ctypes` on the libcrypto the interpreter's own ``_hashlib``
    already links (``hashlib.new("md4")`` is refused on OpenSSL 3
    without the legacy provider; the low-level symbol is still
    exported).  It is trusted only after it reproduces the seven
    RFC 1320 appendix vectors and agrees with the Python code on a
    multi-block input.
``"python"``
    The from-scratch implementation below, used when ``_hashlib`` or
    ``ctypes`` is missing, the library cannot be opened, the symbol is
    not exported or it fails that self-test.

Both compute RFC 1320 bit for bit, so the choice never shows in a
simulated number (``tests/integration/test_memo_invisible.py`` runs the
seeded drills on both and compares bytes).

The Python code has two block functions: :func:`_process_block` unpacks
all sixteen words with one precompiled :class:`struct.Struct` call and
fully unrolls the three rounds, and :func:`_process_block_reference`
keeps the table-driven RFC transcription.  Only the unrolled one ever
runs; the reference is the oracle of a Hypothesis property in
``tests/properties/test_crypto_properties.py`` that asserts both yield
the same state over random 0-300-byte inputs.
"""

import struct

from repro.crypto.libcrypto import open_libcrypto

_MASK = 0xFFFFFFFF

# Per-round left-rotation amounts (RFC 1320 section 3.4).
_ROUND1_SHIFTS = (3, 7, 11, 19)
_ROUND2_SHIFTS = (3, 5, 9, 13)
_ROUND3_SHIFTS = (3, 9, 11, 15)

# Word access orders for rounds 2 and 3.
_ROUND2_ORDER = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)
_ROUND3_ORDER = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)

_ROUND2_CONSTANT = 0x5A827999
_ROUND3_CONSTANT = 0x6ED9EBA1

_BLOCK_WORDS = struct.Struct("<16I")


def _rotl(value, amount):
    value &= _MASK
    return ((value << amount) | (value >> (32 - amount))) & _MASK


def _f(x, y, z):
    return (x & y) | (~x & z)


def _g(x, y, z):
    return (x & y) | (x & z) | (y & z)


def _h(x, y, z):
    return x ^ y ^ z


def _pad(message):
    """RFC 1320 section 3.1-3.2: pad to 448 mod 512 bits, append length."""
    bit_length = (8 * len(message)) & 0xFFFFFFFFFFFFFFFF
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack("<Q", bit_length)
    return padded


def _process_block_reference(state, block):
    """Table-driven transcription of RFC 1320 (test oracle; never selected)."""
    x = _BLOCK_WORDS.unpack(block)
    a, b, c, d = state

    # Round 1.
    for i in range(16):
        shift = _ROUND1_SHIFTS[i % 4]
        a, b, c, d = d, _rotl(a + _f(b, c, d) + x[i], shift), b, c
        # After the rotation the roles cycle: the new value becomes the
        # next round-robin register.  The tuple assignment above rotates
        # (a, b, c, d) -> (d, new, b, c), matching the RFC's
        # [ABCD k s] ... [DABC k s] ... pattern.

    # Round 2.
    for i in range(16):
        k = _ROUND2_ORDER[i]
        shift = _ROUND2_SHIFTS[i % 4]
        a, b, c, d = d, _rotl(a + _g(b, c, d) + x[k] + _ROUND2_CONSTANT, shift), b, c

    # Round 3.
    for i in range(16):
        k = _ROUND3_ORDER[i]
        shift = _ROUND3_SHIFTS[i % 4]
        a, b, c, d = d, _rotl(a + _h(b, c, d) + x[k] + _ROUND3_CONSTANT, shift), b, c

    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
    )


def _process_block(state, block):
    """Fully unrolled compression: one unpack call, 48 inline steps.

    F is computed as ``z ^ (x & (y ^ z))`` and G as
    ``(x & (y | z)) | (y & z)`` — boolean-identical to the RFC forms
    but one operation shorter.  Rotations inline the ``(v << s | v >>
    32-s) & mask`` idiom so no helper call remains in the loop body.
    """
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = (
        _BLOCK_WORDS.unpack(block)
    )
    a, b, c, d = state
    M = _MASK

    # Round 1: A = (A + F(B,C,D) + X[k]) <<< s, shifts 3/7/11/19.
    t = (a + (d ^ (b & (c ^ d))) + x0) & M; a = (t << 3 | t >> 29) & M
    t = (d + (c ^ (a & (b ^ c))) + x1) & M; d = (t << 7 | t >> 25) & M
    t = (c + (b ^ (d & (a ^ b))) + x2) & M; c = (t << 11 | t >> 21) & M
    t = (b + (a ^ (c & (d ^ a))) + x3) & M; b = (t << 19 | t >> 13) & M
    t = (a + (d ^ (b & (c ^ d))) + x4) & M; a = (t << 3 | t >> 29) & M
    t = (d + (c ^ (a & (b ^ c))) + x5) & M; d = (t << 7 | t >> 25) & M
    t = (c + (b ^ (d & (a ^ b))) + x6) & M; c = (t << 11 | t >> 21) & M
    t = (b + (a ^ (c & (d ^ a))) + x7) & M; b = (t << 19 | t >> 13) & M
    t = (a + (d ^ (b & (c ^ d))) + x8) & M; a = (t << 3 | t >> 29) & M
    t = (d + (c ^ (a & (b ^ c))) + x9) & M; d = (t << 7 | t >> 25) & M
    t = (c + (b ^ (d & (a ^ b))) + x10) & M; c = (t << 11 | t >> 21) & M
    t = (b + (a ^ (c & (d ^ a))) + x11) & M; b = (t << 19 | t >> 13) & M
    t = (a + (d ^ (b & (c ^ d))) + x12) & M; a = (t << 3 | t >> 29) & M
    t = (d + (c ^ (a & (b ^ c))) + x13) & M; d = (t << 7 | t >> 25) & M
    t = (c + (b ^ (d & (a ^ b))) + x14) & M; c = (t << 11 | t >> 21) & M
    t = (b + (a ^ (c & (d ^ a))) + x15) & M; b = (t << 19 | t >> 13) & M

    # Round 2: A = (A + G(B,C,D) + X[k] + 5A827999) <<< s, shifts 3/5/9/13.
    K = _ROUND2_CONSTANT
    t = (a + ((b & (c | d)) | (c & d)) + x0 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + ((a & (b | c)) | (b & c)) + x4 + K) & M; d = (t << 5 | t >> 27) & M
    t = (c + ((d & (a | b)) | (a & b)) + x8 + K) & M; c = (t << 9 | t >> 23) & M
    t = (b + ((c & (d | a)) | (d & a)) + x12 + K) & M; b = (t << 13 | t >> 19) & M
    t = (a + ((b & (c | d)) | (c & d)) + x1 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + ((a & (b | c)) | (b & c)) + x5 + K) & M; d = (t << 5 | t >> 27) & M
    t = (c + ((d & (a | b)) | (a & b)) + x9 + K) & M; c = (t << 9 | t >> 23) & M
    t = (b + ((c & (d | a)) | (d & a)) + x13 + K) & M; b = (t << 13 | t >> 19) & M
    t = (a + ((b & (c | d)) | (c & d)) + x2 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + ((a & (b | c)) | (b & c)) + x6 + K) & M; d = (t << 5 | t >> 27) & M
    t = (c + ((d & (a | b)) | (a & b)) + x10 + K) & M; c = (t << 9 | t >> 23) & M
    t = (b + ((c & (d | a)) | (d & a)) + x14 + K) & M; b = (t << 13 | t >> 19) & M
    t = (a + ((b & (c | d)) | (c & d)) + x3 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + ((a & (b | c)) | (b & c)) + x7 + K) & M; d = (t << 5 | t >> 27) & M
    t = (c + ((d & (a | b)) | (a & b)) + x11 + K) & M; c = (t << 9 | t >> 23) & M
    t = (b + ((c & (d | a)) | (d & a)) + x15 + K) & M; b = (t << 13 | t >> 19) & M

    # Round 3: A = (A + (B^C^D) + X[k] + 6ED9EBA1) <<< s, shifts 3/9/11/15.
    K = _ROUND3_CONSTANT
    t = (a + (b ^ c ^ d) + x0 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + (a ^ b ^ c) + x8 + K) & M; d = (t << 9 | t >> 23) & M
    t = (c + (d ^ a ^ b) + x4 + K) & M; c = (t << 11 | t >> 21) & M
    t = (b + (c ^ d ^ a) + x12 + K) & M; b = (t << 15 | t >> 17) & M
    t = (a + (b ^ c ^ d) + x2 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + (a ^ b ^ c) + x10 + K) & M; d = (t << 9 | t >> 23) & M
    t = (c + (d ^ a ^ b) + x6 + K) & M; c = (t << 11 | t >> 21) & M
    t = (b + (c ^ d ^ a) + x14 + K) & M; b = (t << 15 | t >> 17) & M
    t = (a + (b ^ c ^ d) + x1 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + (a ^ b ^ c) + x9 + K) & M; d = (t << 9 | t >> 23) & M
    t = (c + (d ^ a ^ b) + x5 + K) & M; c = (t << 11 | t >> 21) & M
    t = (b + (c ^ d ^ a) + x13 + K) & M; b = (t << 15 | t >> 17) & M
    t = (a + (b ^ c ^ d) + x3 + K) & M; a = (t << 3 | t >> 29) & M
    t = (d + (a ^ b ^ c) + x11 + K) & M; d = (t << 9 | t >> 23) & M
    t = (c + (d ^ a ^ b) + x7 + K) & M; c = (t << 11 | t >> 21) & M
    t = (b + (c ^ d ^ a) + x15 + K) & M; b = (t << 15 | t >> 17) & M

    return (
        (state[0] + a) & M,
        (state[1] + b) & M,
        (state[2] + c) & M,
        (state[3] + d) & M,
    )


def _python_digest(message):
    """RFC 1320 in Python: the fallback backend and the native one's oracle."""
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    padded = _pad(message)
    for offset in range(0, len(padded), 64):
        state = _process_block(state, padded[offset : offset + 64])
    return struct.pack("<4I", *state)


#: RFC 1320 appendix A.5 test suite
_KNOWN_ANSWERS = (
    (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
    (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
    (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
    (b"message digest", "d9130a8164549fe818874806e1c7014b"),
    (b"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "043f8582f241db351ce627e153e7f0e4",
    ),
    (b"1234567890" * 8, "e33b4ddc9c38f2199c3e7b164fcc0536"),
)

#: nine blocks with every byte value, embedded NULs included
_MULTI_BLOCK_PROBE = bytes(range(256)) * 2


def _load_libcrypto():
    """libcrypto's one-shot MD4 as ``bytes -> 16 bytes``, or ``None``.

    Resolved from :func:`repro.crypto.libcrypto.open_libcrypto`'s handle.
    """
    library = open_libcrypto()
    if library is None:
        return None
    try:
        one_shot = library.MD4
    except AttributeError:
        return None
    import ctypes

    digest_buffer = ctypes.c_char * 16
    one_shot.argtypes = (ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p)
    one_shot.restype = ctypes.c_void_p

    def libcrypto_digest(message):
        # the length goes explicitly (payloads carry NULs); a fresh
        # buffer per call keeps the function reentrant
        out = digest_buffer()
        one_shot(message, len(message), out)
        return out.raw

    return libcrypto_digest


def _select_backend():
    """Pick the digest implementation: native if present and correct."""
    native = _load_libcrypto()
    if (
        native is not None
        and all(native(message).hex() == answer for message, answer in _KNOWN_ANSWERS)
        and native(_MULTI_BLOCK_PROBE) == _python_digest(_MULTI_BLOCK_PROBE)
    ):
        return "libcrypto", native
    return "python", _python_digest


#: which implementation :func:`md4_digest` runs: "libcrypto" or "python"
BACKEND, _digest = _select_backend()


def md4_digest(message):
    """Return the 16-byte MD4 digest of ``message`` (bytes or bytearray).

    A plain pure function: the one digest memo is the key store's
    (``crypto.digest``), which wraps this; a caller that takes the raw
    function (the gateway voters) computes every digest it asks for.
    Simulated CPU time for the computation is charged by the cost
    model, not measured here.
    """
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("md4_digest expects bytes, got %r" % type(message))
    return _digest(bytes(message))


def md4_hexdigest(message):
    """Return the MD4 digest of ``message`` as a lowercase hex string."""
    return md4_digest(message).hex()
