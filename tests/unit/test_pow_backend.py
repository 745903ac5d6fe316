"""How ``repro.crypto.primes`` chooses its exponentiation, and that both agree.

The loader tests drive ``_load_libcrypto`` / ``_select_backend`` with a
faked ``ctypes.CDLL`` whose bignums are Python ints in a table; that the
selected native exponentiation equals builtin ``pow`` is a Hypothesis
property in ``tests/properties/test_crypto_properties.py``.
"""

import ctypes
import os
import random
import subprocess
import sys
import types

import pytest

import repro
from repro.crypto import primes
from repro.crypto.keystore import KeyStore
from tests.support import force_builtin_pow


def test_backend_is_reported():
    assert primes.BACKEND in ("libcrypto", "builtin")
    assert (primes.BACKEND == "builtin") == (
        primes._fixed_modulus is primes._builtin_fixed_modulus
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_keys_and_the_random_stream_do_not_depend_on_the_backend(seed, monkeypatch):
    """Same bases, same order, same decisions: the key pairs a store draws
    and the state its ``Random`` is left in are the builtin path's."""

    def draw():
        rng = random.Random(seed)
        store = KeyStore(rng)
        keys = [store.provision(pid) for pid in range(8)]
        return [(k.public.n, k.public.e, k._crt) for k in keys], rng.getstate()

    selected = draw()
    with monkeypatch.context() as patch:
        force_builtin_pow(patch)
        assert primes._fixed_modulus is primes._builtin_fixed_modulus
        builtin = draw()
    assert selected == builtin


# ---------------------------------------------------------------------------
# The loader: what the platform offers decides, and a wrong answer is refused.
# ---------------------------------------------------------------------------


def _fake_libcrypto(monkeypatch, wrong=lambda call, modulus: 0, missing=None):
    """Make ``ctypes.CDLL(...)`` hand out a bignum library over Python ints.

    ``wrong(call, modulus)`` is added to the result of the ``call``-th
    exponentiation (from 0) over each Montgomery context; ``missing``
    names a symbol the library lacks.
    """
    table = {}
    calls = {}

    def new():
        handle = len(table) + 1  # 0 would be NULL
        table[handle] = 0
        return handle

    def bin2bn(raw, length, bignum):
        table[bignum] = int.from_bytes(raw[:length], "big")
        return bignum

    def bn2binpad(handle, out, width):
        out.raw = table[handle].to_bytes(width, "big")
        return width

    def mod_exp_mont(result, base, exponent, modulus, context, mont):
        m, call = table[modulus], calls.get(mont, 0)
        calls[mont] = call + 1
        table[result] = (pow(table[base], table[exponent], m) + wrong(call, m)) % m
        return 1

    symbols = {
        "BN_new": new,
        "BN_free": lambda handle: None,
        "BN_bin2bn": bin2bn,
        "BN_bn2binpad": bn2binpad,
        "BN_CTX_new": new,
        "BN_CTX_free": lambda handle: None,
        "BN_MONT_CTX_new": new,
        "BN_MONT_CTX_set": lambda mont, m, ctx: 1,
        "BN_MONT_CTX_free": lambda handle: None,
        "BN_mod_exp_mont": mod_exp_mont,
    }
    assert set(symbols) == set(primes._SIGNATURES)
    symbols.pop(missing, None)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(**symbols))


def _is_builtin(selected):
    return selected == ("builtin", primes._builtin_fixed_modulus)


def test_loader_trusts_a_library_that_passes_the_self_test(monkeypatch):
    _fake_libcrypto(monkeypatch)
    backend, fixed_modulus = primes._select_backend()
    assert backend == "libcrypto"
    with fixed_modulus(5, 1009) as power:
        assert [power(base) for base in (2, 3)] == [32, 243]


def test_loader_without_hashlib_selects_builtin(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # import raises ImportError
    assert primes._load_libcrypto() is None
    assert _is_builtin(primes._select_backend())


def test_loader_selects_builtin_when_the_library_cannot_be_opened(monkeypatch):
    def cannot_open(path):
        raise OSError("cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", cannot_open)
    assert primes._load_libcrypto() is None
    assert _is_builtin(primes._select_backend())


@pytest.mark.parametrize("missing", sorted(primes._SIGNATURES))
def test_loader_selects_builtin_when_a_symbol_is_missing(monkeypatch, missing):
    _fake_libcrypto(monkeypatch, missing=missing)
    assert primes._load_libcrypto() is None
    assert _is_builtin(primes._select_backend())


@pytest.mark.parametrize(
    "wrong",
    [
        lambda call, modulus: 1,
        lambda call, modulus: call > 0,
        lambda call, modulus: modulus > 2**64,
    ],
    ids=["every-answer", "after-the-first-base", "beyond-64-bits"],
)
def test_loader_refuses_an_exponentiation_that_returns_a_wrong_answer(monkeypatch, wrong):
    """An answer off by one fails the self-test — also when only the later
    bases over a loaded modulus (the rounds after the first), or only
    moduli wider than a machine word, are affected."""
    _fake_libcrypto(monkeypatch, wrong=wrong)
    assert primes._load_libcrypto() is not None
    assert _is_builtin(primes._select_backend())


def test_loader_lets_other_errors_through(monkeypatch):
    def broken(path):
        raise ZeroDivisionError("not a platform condition")

    monkeypatch.setattr(ctypes, "CDLL", broken)
    with pytest.raises(ZeroDivisionError):
        primes._select_backend()


_IMPORT_PROBE = """
import sys
spawned = []
watched = {"subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn", "os.system", "os.exec"}
sys.addaudithook(lambda event, args: spawned.append(event) if event in watched else None)
from repro.crypto import primes
assert not spawned, spawned
assert "ctypes.util" not in sys.modules
print(primes.BACKEND)
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
    assert result.stdout.strip() == primes.BACKEND
