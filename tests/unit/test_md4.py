"""MD4 against the RFC 1320 appendix test vectors and other constants.

These are the behavioural tests: what ``md4_digest`` returns and accepts,
whichever backend ``repro.crypto.md4`` selected at import.  The expected
values are constants, so no backend is its own oracle.
``test_md4_python.py`` collects every test of this module a second time
with the RFC 1320 Python code forced, so a test added here runs on both
backends; how the backend is chosen is tested in ``test_md4_backend.py``.
"""

import pytest

from repro.crypto.md4 import md4_digest, md4_hexdigest

RFC1320_VECTORS = [
    (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
    (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
    (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
    (b"message digest", "d9130a8164549fe818874806e1c7014b"),
    (b"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "043f8582f241db351ce627e153e7f0e4",
    ),
    (
        b"1234567890123456789012345678901234567890"
        b"1234567890123456789012345678901234567890",
        "e33b4ddc9c38f2199c3e7b164fcc0536",
    ),
]

#: MD4 of ``bytes(range(n))`` at the lengths that straddle the 56-byte
#: padding boundary and the 64-byte block boundary, one and two blocks in
BOUNDARY_ANSWERS = {
    55: "cc8a7f2bd608e3eeecb7f121d13bea55",
    56: "b8e94b6408bbfa6ec9805bf21bc05cbd",
    57: "6aec85410412ff54078a9fc72a55ace5",
    63: "54ba4472fcd03e99cf28f90eed9f2ae0",
    64: "2de6578f0e7898fa17acd84b79685d3a",
    65: "3a4f2ca37eebdf6dc99a6155517b74fc",
    119: "9c1067170940ce8f8e4745d362675fab",
    120: "c5bb35660e3d0a286a96ea3aa4922b3c",
    127: "2067886da4bde10a94b971cd740b0aab",
    128: "e1275970eb67d2d996e6e658270aa149",
}


@pytest.mark.parametrize("message,expected", RFC1320_VECTORS)
def test_rfc1320_vectors(message, expected):
    assert md4_hexdigest(message) == expected


def test_digest_is_16_bytes():
    digest = md4_digest(b"whatever")
    assert type(digest) is bytes and len(digest) == 16


def test_digest_rejects_str():
    with pytest.raises(TypeError):
        md4_digest("not bytes")


def test_block_boundary_lengths():
    # Lengths straddling the 64-byte block and 56-byte padding boundary
    # exercise every padding branch.
    for length, expected in BOUNDARY_ANSWERS.items():
        assert md4_hexdigest(bytes(range(length))) == expected, length


def test_bytearray_accepted():
    assert md4_digest(bytearray(b"abc")) == md4_digest(b"abc")
    assert md4_hexdigest(bytearray(b"abc")) == "a448017aaf21d8525fc10ae87aa6729d"


def test_embedded_nul_bytes_are_digested():
    # the length is passed explicitly: a NUL neither ends the input nor is dropped
    assert md4_hexdigest(b"\x00") == "47c61a0fa8738ba77308a8a600f88e4b"
    assert md4_hexdigest(b"a\x00b") == "a52ae77eebdaf052b969448174a2626c"
    assert md4_hexdigest(b"abc\x00") == "0ee5201897ecb206c4eaba1d2da5224d"


def test_single_bit_change_changes_digest():
    base = md4_digest(b"\x00" * 64)
    flipped = md4_digest(b"\x01" + b"\x00" * 63)
    assert base != flipped
