"""How ``repro.crypto.md4`` chooses its backend, and that both agree.

The loader tests drive ``_load_libcrypto`` / ``_select_backend`` with a
faked ``ctypes.CDLL``; what ``md4_digest`` returns is held to constants
on both backends by ``test_md4.py`` / ``test_md4_python.py``.
"""

import ctypes
import os
import random
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.crypto import md4
from repro.crypto.md4 import md4_digest


def test_backend_is_reported():
    assert md4.BACKEND in ("libcrypto", "python")
    assert (md4.BACKEND == "python") == (md4._digest is md4._python_digest)


@pytest.mark.skipif(
    md4.BACKEND == "python",
    reason="no usable libcrypto MD4 on this platform: the Python backend is the only one",
)
@given(st.integers(0, 5000), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_native_equals_python(length, seed):
    data = random.Random(seed).randbytes(length)
    assert md4_digest(data) == md4._python_digest(data)


# ---------------------------------------------------------------------------
# The loader: what the platform offers decides, and a wrong answer is refused.
# ---------------------------------------------------------------------------


def _fake_libcrypto(monkeypatch, one_shot):
    """Make ``ctypes.CDLL(...)`` hand out a library exporting ``one_shot`` as MD4."""

    def exported(message, length, out):
        out.raw = one_shot(message[:length])

    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(MD4=exported))


def _flip_one_bit(digest):
    return bytes([digest[0] ^ 0x01]) + digest[1:]


def test_loader_trusts_a_symbol_that_passes_the_self_test(monkeypatch):
    _fake_libcrypto(monkeypatch, md4._python_digest)
    backend, digest = md4._select_backend()
    assert backend == "libcrypto"
    assert digest(b"abc").hex() == "a448017aaf21d8525fc10ae87aa6729d"


def test_loader_without_hashlib_selects_python(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # import raises ImportError
    assert md4._load_libcrypto() is None
    assert md4._select_backend() == ("python", md4._python_digest)


def test_loader_selects_python_when_the_library_cannot_be_opened(monkeypatch):
    def cannot_open(path):
        raise OSError("cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", cannot_open)
    assert md4._load_libcrypto() is None
    assert md4._select_backend() == ("python", md4._python_digest)


def test_loader_selects_python_when_the_symbol_is_missing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
    assert md4._load_libcrypto() is None
    assert md4._select_backend() == ("python", md4._python_digest)


@pytest.mark.parametrize("wrong_from", [0, 81], ids=["every-input", "beyond-the-rfc-vectors"])
def test_loader_refuses_a_symbol_that_returns_wrong_bytes(monkeypatch, wrong_from):
    """One flipped output bit fails the self-test — also when only inputs
    longer than every RFC vector are affected (the multi-block probe)."""

    def wrong(message):
        digest = md4._python_digest(message)
        return _flip_one_bit(digest) if len(message) >= wrong_from else digest

    _fake_libcrypto(monkeypatch, wrong)
    assert md4._load_libcrypto() is not None
    assert md4._select_backend() == ("python", md4._python_digest)


def test_loader_lets_other_errors_through(monkeypatch):
    def broken(path):
        raise ZeroDivisionError("not a platform condition")

    monkeypatch.setattr(ctypes, "CDLL", broken)
    with pytest.raises(ZeroDivisionError):
        md4._select_backend()


_IMPORT_PROBE = """
import sys
spawned = []
watched = {"subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn", "os.system", "os.exec"}
sys.addaudithook(lambda event, args: spawned.append(event) if event in watched else None)
from repro.crypto import md4
assert not spawned, spawned
assert "ctypes.util" not in sys.modules
print(md4.BACKEND)
"""


def test_import_starts_no_process_and_searches_no_library():
    """Selecting the backend must not cost a ``find_library`` (it can run
    ``ldconfig`` or a compiler): the audit hook sees every spawn."""
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == md4.BACKEND
