"""Unit tests for the key store, signing service, and cost model."""

import random

import pytest

from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keystore import KeyStore
from repro.sim.process import Processor
from repro.sim.scheduler import Scheduler


@pytest.fixture
def world():
    sched = Scheduler()
    proc_a = Processor(0, sched)
    proc_b = Processor(1, sched)
    store = KeyStore(random.Random(42), modulus_bits=256)
    model = CryptoCostModel(modulus_bits=256)
    return sched, proc_a, proc_b, store, model


def test_provision_is_idempotent(world):
    _, _, _, store, _ = world
    assert store.provision(0) is store.provision(0)


def test_sign_verify_across_processors(world):
    _, proc_a, proc_b, store, model = world
    svc_a = store.signing_service(proc_a, model)
    svc_b = store.signing_service(proc_b, model)
    signature = svc_a.sign(b"token")
    assert svc_b.verify(0, b"token", signature)
    assert not svc_b.verify(0, b"mutant", signature)
    assert not svc_b.verify(1, b"token", signature)


def test_crypto_charges_cpu_time(world):
    _, proc_a, _, store, model = world
    svc = store.signing_service(proc_a, model)
    svc.sign(b"token")
    assert proc_a.cpu_accounting["crypto.sign"] == pytest.approx(model.sign_cost())
    assert proc_a.cpu_accounting["crypto.digest"] > 0
    assert proc_a.cpu_busy()


def test_verify_charges_less_than_sign(world):
    _, proc_a, proc_b, store, model = world
    svc_a = store.signing_service(proc_a, model)
    svc_b = store.signing_service(proc_b, model)
    signature = svc_a.sign(b"token")
    svc_b.verify(0, b"token", signature)
    assert proc_b.cpu_accounting["crypto.verify"] < proc_a.cpu_accounting["crypto.sign"]


def test_digest_cost_grows_with_size():
    model = CryptoCostModel()
    assert model.digest_cost(10_000) > model.digest_cost(100)


def test_sign_cost_scales_cubically():
    model = CryptoCostModel(modulus_bits=300)
    doubled = CryptoCostModel(modulus_bits=600)
    assert doubled.sign_cost() == pytest.approx(8 * model.sign_cost())
    assert doubled.verify_cost() == pytest.approx(4 * model.verify_cost())
