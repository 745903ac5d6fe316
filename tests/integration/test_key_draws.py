"""Where the key store generates RSA key pairs, counted exactly.

Only a ring whose tokens are signed (``SecurityLevel.SIGNATURES``: the
per-visit and batch-signature schemes) ever uses a key pair, and it
generates all of them while it is built, so ``run()`` never pays for
one.  A ring that only digests (majority voting, the WAN) generates
none.  A corrupted signer id is refused by the key store; it draws no
key, so a ring's keys do not depend on what its links did to its frames.
"""

import pytest

from repro.bench.build import Scenario, build
from repro.workloads.open_loop import echo

ECHO = ("echo", "test.keys", 0.1, 40, 0.05)


def _ring(case, **fields):
    return build(Scenario(case=case, service="echo", workload=ECHO, **fields))


def test_a_voting_ring_draws_no_key():
    built = _ring("MAJORITY_VOTING", tail=0.5)
    assert built.system.keystore.drawn == 0
    built.run()
    digests = sum(endpoint.signing.stats["digest_ops"]
                  for endpoint in built.system.endpoints.values())
    assert digests > 0
    assert built.system.keystore.drawn == 0


def test_a_wan_draws_no_key():
    built = build(Scenario(
        shape="wan", case="MAJORITY_VOTING",
        config=(("sites", (("alpha", 2), "beta")),), service="echo", server=0, client=0,
    ))
    wan = built.system
    assert sum(len(ring.processors) for site in wan.sites.values()
               for ring in site.rings) == 30
    replies = []
    for k in range(10):
        for _pid, stub in built.stubs:
            wan.scheduler.at(0.1 + 0.05 * k, echo, stub, k, replies.append)
    wan.run(until=1.0)
    assert replies
    assert wan.keystore.drawn == 0


@pytest.mark.parametrize("batch", [False, True], ids=["per-visit", "batch"])
def test_a_signed_ring_draws_every_key_while_it_is_built(batch):
    built = build(Scenario(config=(("batch_signatures", batch),)))
    assert built.system.keystore.drawn == 6


def test_a_processor_added_to_a_signed_ring_draws_one_key():
    immune = build(Scenario()).system
    immune.add_processor(6)
    assert immune.keystore.drawn == 7


def test_a_corrupted_signer_id_draws_no_key():
    """Corrupted links on a per-visit-signed ring: tokens whose signer id
    took a bit flip are verified against a principal nobody holds."""
    built = _ring(
        "FULL_SURVIVABILITY", faults=(("corruption", 0.03, 0.0, 10.0),), tail=8.0,
    ).run()
    stats = [endpoint.signing.stats for endpoint in built.system.endpoints.values()]
    assert sum(s["verify_ops"] for s in stats) > 0
    assert built.system.keystore.drawn == 6
