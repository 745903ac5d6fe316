"""How ``repro.crypto.bignum`` chooses its exponentiation, and that both agree.

Key generation, signing and verification all run on the one backend.
The loader tests drive ``_load_libcrypto`` / ``_select_backend`` with a
faked ``ctypes.CDLL`` whose bignums are Python ints in a table; that the
selected native exponentiation, and the signatures and verdicts it
gives, equal builtin ``pow``'s are Hypothesis properties in
``tests/properties/test_crypto_properties.py``.
"""

import ctypes
import gc
import itertools
import os
import random
import subprocess
import sys
import types

import pytest

import repro
from repro.crypto import bignum
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import generate_keypair
from tests.support import force_builtin_pow

_DIGESTS = [bytes([i]) * 16 for i in range(8)]


def test_backend_is_reported():
    assert bignum.BACKEND in ("libcrypto", "builtin")
    assert (bignum.BACKEND == "builtin") == (
        bignum.fixed_modulus is bignum._builtin_fixed_modulus
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_keys_and_the_random_stream_do_not_depend_on_the_backend(seed, monkeypatch):
    """Same bases, same order, same decisions: the key pairs a store draws,
    the signatures they make and the state its ``Random`` is left in are
    the builtin path's."""

    def draw():
        rng = random.Random(seed)
        store = KeyStore(rng)
        keys = [store.provision(pid) for pid in range(8)]
        signatures = [[k.sign(digest) for digest in _DIGESTS] for k in keys]
        return [(k.public.n, k.public.e, k._crt) for k in keys], signatures, rng.getstate()

    selected = draw()
    with monkeypatch.context() as patch:
        force_builtin_pow(patch)
        assert bignum.fixed_modulus is bignum._builtin_fixed_modulus
        builtin = draw()
    assert selected == builtin


# ---------------------------------------------------------------------------
# The loader: what the platform offers decides, and a wrong answer is refused.
# ---------------------------------------------------------------------------


def _fake_libcrypto(monkeypatch, wrong=lambda call, modulus, exponent: 0, missing=None):
    """Make ``ctypes.CDLL(...)`` hand out a bignum library over Python ints.

    ``wrong(call, modulus, exponent)`` is added to the result of the
    ``call``-th exponentiation (from 0) over each Montgomery context;
    ``missing`` names a symbol the library lacks.  Returns the table of
    what is allocated and not yet freed, by handle.
    """
    table = {}
    calls = {}
    handles = itertools.count(1)  # 0 would be NULL

    def new():
        handle = next(handles)
        table[handle] = 0
        return handle

    def free(handle):
        del table[handle]

    def bin2bn(raw, length, handle):
        table[handle] = int.from_bytes(raw[:length], "big")
        return handle

    def bn2binpad(handle, out, width):
        out.raw = table[handle].to_bytes(width, "big")
        return width

    def mod_exp_mont(result, base, exponent, modulus, context, mont):
        m, e, call = table[modulus], table[exponent], calls.get(mont, 0)
        calls[mont] = call + 1
        table[result] = (pow(table[base], e, m) + wrong(call, m, e)) % m
        return 1

    symbols = {
        "BN_new": new,
        "BN_free": free,
        "BN_bin2bn": bin2bn,
        "BN_bn2binpad": bn2binpad,
        "BN_CTX_new": new,
        "BN_CTX_free": free,
        "BN_MONT_CTX_new": new,
        "BN_MONT_CTX_set": lambda mont, m, ctx: 1,
        "BN_MONT_CTX_free": free,
        "BN_mod_exp_mont": mod_exp_mont,
    }
    assert set(symbols) == set(bignum._SIGNATURES)
    symbols.pop(missing, None)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(**symbols))
    return table


def _cannot_open(path):
    raise OSError("cannot open shared object file")


def _is_builtin(selected):
    return selected == ("builtin", bignum._builtin_fixed_modulus)


def _install(monkeypatch, selected):
    """Make ``selected`` (a ``_select_backend()`` result) the backend every
    key pair drawn from now on runs on."""
    monkeypatch.setattr(bignum, "BACKEND", selected[0])
    monkeypatch.setattr(bignum, "fixed_modulus", selected[1])


def test_loader_trusts_a_library_that_passes_the_self_test(monkeypatch):
    _fake_libcrypto(monkeypatch)
    backend, fixed_modulus = bignum._select_backend()
    assert backend == "libcrypto"
    power = fixed_modulus(5, 1009)
    assert [power(base) for base in (2, 3)] == [32, 243]
    power.close()


def test_loader_without_hashlib_selects_builtin(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # import raises ImportError
    assert bignum._load_libcrypto() is None
    assert _is_builtin(bignum._select_backend())


def test_loader_selects_builtin_when_the_library_cannot_be_opened(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", _cannot_open)
    assert bignum._load_libcrypto() is None
    assert _is_builtin(bignum._select_backend())


@pytest.mark.parametrize("missing", sorted(bignum._SIGNATURES))
def test_loader_selects_builtin_when_a_symbol_is_missing(monkeypatch, missing):
    _fake_libcrypto(monkeypatch, missing=missing)
    assert bignum._load_libcrypto() is None
    assert _is_builtin(bignum._select_backend())


@pytest.mark.parametrize(
    "wrong",
    [
        lambda call, modulus, exponent: 1,
        lambda call, modulus, exponent: call > 0,
        lambda call, modulus, exponent: modulus > 2**64,
        lambda call, modulus, exponent: exponent == 65537,
    ],
    ids=["every-answer", "after-the-first-base", "beyond-64-bits", "verify-shape"],
)
def test_loader_refuses_an_exponentiation_that_returns_a_wrong_answer(monkeypatch, wrong):
    """An answer off by one fails the self-test — also when only the later
    bases over a loaded modulus (the rounds after the first), only moduli
    wider than a machine word, or only a verification's ``e``-th power
    are affected."""
    _fake_libcrypto(monkeypatch, wrong=wrong)
    assert bignum._load_libcrypto() is not None
    assert _is_builtin(bignum._select_backend())


@pytest.mark.parametrize("fault", ["missing-symbol", "cannot-open", "beyond-64-bits"])
def test_sign_and_verify_fall_back_to_builtin_pow(monkeypatch, fault):
    """A key pair drawn after the loader refused the library signs and
    verifies on builtin ``pow``, and gives the selected backend's answers."""
    selected = generate_keypair(random.Random(5))
    expected = [selected.sign(digest) for digest in _DIGESTS]
    if fault == "missing-symbol":
        _fake_libcrypto(monkeypatch, missing="BN_mod_exp_mont")
    elif fault == "cannot-open":
        monkeypatch.setattr(ctypes, "CDLL", _cannot_open)
    else:
        _fake_libcrypto(monkeypatch, wrong=lambda call, modulus, exponent: modulus > 2**64)
    _install(monkeypatch, bignum._select_backend())
    assert bignum.BACKEND == "builtin"

    key = generate_keypair(random.Random(5))
    powers = (*key._halves, key.public._power)
    assert all(power.close is bignum._nothing_to_free for power in powers)
    assert [key.sign(digest) for digest in _DIGESTS] == expected
    assert all(key.public.verify(d, s) for d, s in zip(_DIGESTS, expected))
    assert not key.public.verify(_DIGESTS[0], expected[1])


def test_a_dropped_key_pair_frees_its_contexts(monkeypatch):
    """A key pair holds three loaded moduli (its CRT halves and its public
    key), six allocations each; Miller-Rabin has closed every candidate's
    by the time the pair is drawn, and dropping the pair frees the rest."""
    live = _fake_libcrypto(monkeypatch)
    _install(monkeypatch, bignum._select_backend())
    assert bignum.BACKEND == "libcrypto"
    before = set(live)

    key = generate_keypair(random.Random(5), modulus_bits=200)
    assert len(set(live) - before) == 3 * 6
    assert key.public.verify(_DIGESTS[0], key.sign(_DIGESTS[0]))
    del key
    gc.collect()
    assert set(live) == before


def test_loader_lets_other_errors_through(monkeypatch):
    def broken(path):
        raise ZeroDivisionError("not a platform condition")

    monkeypatch.setattr(ctypes, "CDLL", broken)
    with pytest.raises(ZeroDivisionError):
        bignum._select_backend()


_IMPORT_PROBE = """
import sys
spawned = []
watched = {"subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn", "os.system", "os.exec"}
sys.addaudithook(lambda event, args: spawned.append(event) if event in watched else None)
from repro.crypto import bignum
assert not spawned, spawned
assert "ctypes.util" not in sys.modules
print(bignum.BACKEND)
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
    assert result.stdout.strip() == bignum.BACKEND
