"""Regression tests for ring-size-scaled default timeout derivation.

The bug class pinned here: a :class:`MulticastConfig`'s derived
``token_rotation_timeout`` used to be fixed once, so a config resolved
for a small ring and then reused for a bigger one (cluster rings of
different sizes, or a ring growing on rejoin) kept a timeout one full
rotation of the bigger ring could exceed — correct-but-slow processors
got suspected, violating eventual strong accuracy.
"""

import pytest

from repro.crypto.costmodel import CryptoCostModel
from repro.multicast.config import MulticastConfig, SecurityLevel

COSTS = CryptoCostModel(modulus_bits=256)


def resolved(num_processors, security=SecurityLevel.SIGNATURES, batch_signatures=False,
             **constants):
    """A config resolved for ``num_processors``, with ``constants``
    (``signature_batch_visits``, ``pipeline_depth``) set on it in place
    of the class's."""
    config = MulticastConfig(security=security, batch_signatures=batch_signatures)
    for name, value in constants.items():
        assert hasattr(MulticastConfig, name), name
        setattr(config, name, value)
    config.resolve_timeouts(COSTS, num_processors)
    return config


def test_derived_timeouts_scale_with_ring_size():
    small = resolved(2)
    large = resolved(7)
    # One rotation visits every processor, so a 7-processor ring needs
    # proportionally longer timeouts than a 2-processor one.
    assert large.token_rotation_timeout > small.token_rotation_timeout
    assert large.membership_round_timeout > small.membership_round_timeout
    assert large.token_rotation_timeout == pytest.approx(
        small.token_rotation_timeout * 7 / 2
    )


def test_derived_timeouts_exceed_a_full_rotation():
    for n in (2, 7):
        config = resolved(n)
        per_visit = (
            config.token_hold_cost
            + config.token_idle_delay
            + 200e-6
            + COSTS.sign_cost()
            + 2 * COSTS.verify_cost()
        )
        assert config.token_rotation_timeout >= 4 * per_visit * n
        assert config.membership_round_timeout > config.token_rotation_timeout
        # A batch ring signs no token: its slowest fault-free rotation is
        # the idle one, every hop parked for token_idle_delay.
        batch = resolved(n, batch_signatures=True)
        parked_visit = batch.token_hold_cost + batch.token_idle_delay + 200e-6
        assert batch.token_rotation_timeout >= 4 * parked_visit * n
        assert batch.membership_round_timeout > batch.token_rotation_timeout


def test_signature_costs_lengthen_derived_timeouts():
    assert (
        resolved(7, security=SecurityLevel.SIGNATURES).token_rotation_timeout
        > resolved(7, security=SecurityLevel.DIGESTS).token_rotation_timeout
    )


def test_reresolving_for_a_bigger_ring_grows_the_derived_timeout():
    config = resolved(2)
    small_rotation = config.token_rotation_timeout
    small_membership = config.membership_round_timeout
    config.resolve_timeouts(COSTS, 7)
    assert config.token_rotation_timeout > small_rotation
    assert config.membership_round_timeout > small_membership


def test_reresolving_for_a_smaller_ring_keeps_the_larger_timeout():
    # Growth-only: shrinking the membership must never tighten timeouts
    # under a live protocol (a pending round still expects the old bound).
    config = resolved(7)
    big_rotation = config.token_rotation_timeout
    big_membership = config.membership_round_timeout
    config.resolve_timeouts(COSTS, 2)
    assert config.token_rotation_timeout == big_rotation
    assert config.membership_round_timeout == big_membership


# ----------------------------------------------------------------------
# timeouts follow the ring's mode
# ----------------------------------------------------------------------

SIGNING = COSTS.sign_cost() + 2 * COSTS.verify_cost()

#: (token_rotation_timeout, membership_round_timeout) as derived at
#: commit 867c249, before the token-visit estimate learned about batch
#: rings: nothing that does not run a batch ring may move
PARENT_DERIVED = {
    ("NONE", 2): (0.027440000000000003, 0.04116),
    ("NONE", 7): (0.09604000000000001, 0.14406000000000002),
    ("NONE", 8): (0.10976000000000001, 0.16464),
    ("DIGESTS", 2): (0.027440000000000003, 0.04116),
    ("DIGESTS", 7): (0.09604000000000001, 0.14406000000000002),
    ("DIGESTS", 8): (0.10976000000000001, 0.16464),
    ("SIGNATURES", 2): (0.06192649955555557, 0.09288974933333335),
    ("SIGNATURES", 7): (0.2167427484444445, 0.3251141226666667),
    ("SIGNATURES", 8): (0.24770599822222228, 0.3715589973333334),
}


@pytest.mark.parametrize("level,n", sorted(PARENT_DERIVED))
def test_non_batch_timeouts_are_the_parents_bit_for_bit(level, n):
    config = resolved(n, security=SecurityLevel[level])
    assert (
        config.token_rotation_timeout,
        config.membership_round_timeout,
    ) == PARENT_DERIVED[level, n]


@pytest.mark.parametrize("n", [2, 7, 8])
def test_batch_ring_budgets_one_signature_per_batch_of_visits(n):
    batch = resolved(n, batch_signatures=True, signature_batch_visits=4)
    per_visit = batch.token_hold_cost + batch.token_idle_delay + 200e-6 + SIGNING / 4
    assert batch.token_rotation_timeout == 8 * (per_visit * n)
    assert batch.token_rotation_timeout < resolved(n).token_rotation_timeout


@pytest.mark.parametrize("n", [2, 7, 8])
def test_membership_rounds_are_signature_bound_batch_or_not(n):
    # Proposals and commits are RSA-signed on every SIGNATURES ring.
    for visits in (1, 4, 64):
        batch = resolved(n, batch_signatures=True, signature_batch_visits=visits)
        assert batch.membership_round_timeout == PARENT_DERIVED["SIGNATURES", n][1]


def test_batch_rotation_timeout_is_monotone_in_the_batch_size():
    timeouts = [
        resolved(
            7, batch_signatures=True, signature_batch_visits=visits, pipeline_depth=64
        ).token_rotation_timeout
        for visits in (1, 2, 4, 8, 16, 64)
    ]
    assert timeouts == sorted(timeouts, reverse=True)
    assert len(set(timeouts)) == len(timeouts)
    # certifying at every visit is per-visit signing
    assert timeouts[0] == PARENT_DERIVED["SIGNATURES", 7][0]
    # and no batch size goes below the unsigned ring's budget
    assert timeouts[-1] > PARENT_DERIVED["DIGESTS", 7][0]


@pytest.mark.parametrize("visits,depth", [(64, 1), (64, 2), (16, 4), (8, 4)])
def test_a_cadence_longer_than_the_pipeline_amortises_over_the_pipeline(visits, depth):
    # Past pipeline_depth rotations of lag a holder certifies before it
    # originates (backpressure), so the signature is back on the rotation
    # path that often whatever signature_batch_visits says.
    config = resolved(
        7, batch_signatures=True, signature_batch_visits=visits, pipeline_depth=depth
    )
    at_the_depth = resolved(
        7, batch_signatures=True, signature_batch_visits=depth, pipeline_depth=depth
    )
    per_visit = config.token_hold_cost + config.token_idle_delay + 200e-6 + SIGNING / depth
    assert config.token_rotation_timeout == 8 * (per_visit * 7)
    assert config.token_rotation_timeout == at_the_depth.token_rotation_timeout
    # a pipeline one rotation deep is a per-visit-signed ring to the timer
    if depth == 1:
        assert config.token_rotation_timeout == PARENT_DERIVED["SIGNATURES", 7][0]


def test_growth_only_holds_for_a_batch_config():
    config = resolved(2, batch_signatures=True)
    small = (config.token_rotation_timeout, config.membership_round_timeout)
    config.resolve_timeouts(COSTS, 8)
    big = (config.token_rotation_timeout, config.membership_round_timeout)
    assert big[0] > small[0] and big[1] > small[1]
    config.resolve_timeouts(COSTS, 2)
    assert (config.token_rotation_timeout, config.membership_round_timeout) == big
