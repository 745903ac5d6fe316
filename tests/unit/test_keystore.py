"""Unit tests for the key store, signing service, and cost model."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import MIN_MODULUS_BITS, CryptoError
from repro.sim.process import Processor
from repro.sim.scheduler import Scheduler
from repro.wan.config import SiteSpec, WanConfig
from repro.wan.manager import WanManager


@pytest.fixture
def world():
    sched = Scheduler()
    proc_a = Processor(0, sched)
    proc_b = Processor(1, sched)
    store = KeyStore(random.Random(42), modulus_bits=256)
    model = CryptoCostModel(modulus_bits=256)
    return sched, proc_a, proc_b, store, model


def test_an_unusable_modulus_is_refused_when_the_store_is_built():
    """A voting ring draws no key, yet a modulus too small to hold a padded
    digest still fails at construction, not in the first signing ring."""
    with pytest.raises(CryptoError):
        ImmuneSystem(4, config=ImmuneConfig(
            case=SurvivabilityCase.MAJORITY_VOTING, modulus_bits=128, seed=1))
    with pytest.raises(CryptoError):
        KeyStore(random.Random(1), modulus_bits=MIN_MODULUS_BITS - 1)
    assert KeyStore(random.Random(1), modulus_bits=MIN_MODULUS_BITS).drawn == 0


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


def test_public_key_of_a_principal_never_enrolled_fails(world):
    _, proc_a, _, store, model = world
    store.signing_service(proc_a, model)
    with pytest.raises(KeyError):
        store.public_key(99)
    assert store.drawn == 0


def test_verify_against_a_signer_never_enrolled_fails_and_draws_nothing(world):
    _, proc_a, _, store, model = world
    svc = store.signing_service(proc_a, model)
    assert not svc.verify(99, b"token", b"\x00" * 32)
    assert store.drawn == 0
    # the simulated verification is still paid for
    assert proc_a.cpu_accounting["crypto.verify"] == pytest.approx(model.verify_cost())
    assert svc.stats["verify_ops"] == 1


def test_a_key_is_drawn_when_first_needed(world):
    _, proc_a, proc_b, store, model = world
    svc_a = store.signing_service(proc_a, model)
    svc_b = store.signing_service(proc_b, model)
    assert store.drawn == 0
    signature = svc_b.sign(b"token")  # draws pid 0's key first, then pid 1's
    assert store.drawn == 2
    assert svc_a.verify(1, b"token", signature)
    assert store.drawn == 2


#: principal ids, enrolled in this order
PIDS = (5, 2, 9, 0)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**16),
    ops=st.lists(
        st.tuples(st.sampled_from(("enrol", "provision", "public_key", "sign")),
                  st.integers(0, len(PIDS) - 1)),
        max_size=12,
    ),
)
def test_keys_do_not_depend_on_the_order_they_are_asked_for(seed, ops):
    """Any interleaving of enrolments and first uses gives every principal
    the key that provisioning each one as it is enrolled gives."""
    eager = KeyStore(random.Random(seed), modulus_bits=200)
    expected = {pid: eager.provision(pid).public for pid in PIDS}

    store = KeyStore(random.Random(seed), modulus_bits=200)
    model = CryptoCostModel(modulus_bits=200)
    scheduler = Scheduler()
    services = {}

    def enrol(pid):
        services[pid] = store.signing_service(Processor(pid, scheduler), model)

    for kind, index in ops:
        if kind == "enrol" or not services:
            if len(services) < len(PIDS):
                enrol(PIDS[len(services)])
            continue
        enrolled = list(services)
        pid = enrolled[index % len(enrolled)]
        if kind == "provision":
            store.provision(pid)
        elif kind == "public_key":
            store.public_key(pid)
        else:
            signature = services[pid].sign(b"visit")
            assert expected[pid].verify(store.digest_fn(b"visit"), signature)
        assert store.drawn <= len(services)
    for pid in PIDS[len(services):]:
        enrol(pid)
    assert {pid: store.public_key(pid) for pid in PIDS} == expected
    assert store.drawn == len(PIDS)


# The pinned digests are those of the store that drew every key pair the
# moment its principal was enrolled: lazy drawing must not move a key.
def _moduli_digest(store, pids):
    return hashlib.sha256(
        repr([(pid, store.public_key(pid).n) for pid in sorted(pids)]).encode()
    ).hexdigest()


def test_a_six_processor_ring_holds_the_pinned_keys():
    immune = ImmuneSystem(
        6, config=ImmuneConfig(seed=7, case=SurvivabilityCase.MAJORITY_VOTING)
    )
    assert _moduli_digest(immune.keystore, immune.processors) == (
        "38d62d9176e8d0c61f69f6483256b512bb6a4193526c65c5f48b213b8b7c92c6"
    )


def test_the_six_processor_ring_signs_the_pinned_signatures():
    """Signing runs on whichever exponentiation the platform offers; the
    signatures are those builtin ``pow`` made, bit for bit."""
    immune = ImmuneSystem(
        6, config=ImmuneConfig(seed=7, case=SurvivabilityCase.MAJORITY_VOTING)
    )
    store = immune.keystore
    digests = [hashlib.sha256(b"digest %d" % i).digest()[:16] for i in range(64)]
    signatures = [(pid, [store.provision(pid).sign(d) for d in digests])
                  for pid in sorted(immune.processors)]
    assert hashlib.sha256(repr(signatures).encode()).hexdigest() == (
        "9fe8006ccbcb040ceb90a36299193d6eb24eea3d7d855533cf496b8babe53297"
    )
    assert all(store.public_key(pid).verify(d, s)
               for pid, row in signatures for d, s in zip(digests, row))


def test_a_thirty_processor_wan_holds_the_pinned_keys():
    wan = WanManager(
        WanConfig(sites=(SiteSpec("alpha", num_rings=2), SiteSpec("beta")), seed=7)
    )
    pids = [pid for site in wan.sites.values() for ring in site.rings
            for pid in ring.processors]
    assert len(pids) == 30
    assert _moduli_digest(wan.keystore, pids) == (
        "f2fcf8f8f83b3db0179e68422fe5e20b1c176064e89f03180291e9111710d978"
    )
