"""MD5 message digest (RFC 1321).

The paper uses MD4 but phrases the requirement as "a message digest
function such as MD4"; MD5 was its era's conservative alternative.
This from-scratch implementation is validated against the RFC 1321
appendix vectors and against :mod:`hashlib` in the tests, and can be
plugged into the key store via ``ImmuneConfig(digest="md5")``.
"""

import math
import struct

_MASK = 0xFFFFFFFF

#: T[i] = floor(2**32 * abs(sin(i+1))), RFC 1321 section 3.4
_T = [int(abs(math.sin(i + 1)) * 4294967296) & _MASK for i in range(64)]

_SHIFTS = (
    (7, 12, 17, 22),
    (5, 9, 14, 20),
    (4, 11, 16, 23),
    (6, 10, 15, 21),
)


def _rotl(value, amount):
    value &= _MASK
    return ((value << amount) | (value >> (32 - amount))) & _MASK


def _f(x, y, z):
    return (x & y) | (~x & z)


def _g(x, y, z):
    return (x & z) | (y & ~z)


def _h(x, y, z):
    return x ^ y ^ z


def _i(x, y, z):
    return y ^ (x | (~z & _MASK))


_ROUND_FN = (_f, _g, _h, _i)


def _index(round_number, step):
    if round_number == 0:
        return step
    if round_number == 1:
        return (5 * step + 1) % 16
    if round_number == 2:
        return (3 * step + 5) % 16
    return (7 * step) % 16


def _pad(message):
    bit_length = (8 * len(message)) & 0xFFFFFFFFFFFFFFFF
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack("<Q", bit_length)
    return padded


def _process_block(state, block):
    x = struct.unpack("<16I", block)
    a, b, c, d = state
    for round_number in range(4):
        fn = _ROUND_FN[round_number]
        shifts = _SHIFTS[round_number]
        for step in range(16):
            k = _index(round_number, step)
            i = 16 * round_number + step
            rotated = _rotl(a + fn(b, c, d) + x[k] + _T[i], shifts[step % 4])
            a, b, c, d = d, (b + rotated) & _MASK, b, c
    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
    )


def md5_digest(message):
    """Return the 16-byte MD5 digest of ``message`` (bytes or bytearray)."""
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("md5_digest expects bytes, got %r" % type(message))
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    padded = _pad(bytes(message))
    for offset in range(0, len(padded), 64):
        state = _process_block(state, padded[offset : offset + 64])
    return struct.pack("<4I", *state)


def md5_hexdigest(message):
    """Return the MD5 digest of ``message`` as a lowercase hex string."""
    return md5_digest(message).hex()
