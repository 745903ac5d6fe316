"""Survivability configuration and resilience invariants.

The paper's Figure 7 compares four configurations; they are first-class
here so every bench and example names them explicitly:

* ``UNREPLICATED`` (case 1) — plain CORBA over point-to-point IIOP, no
  Immune system at all;
* ``ACTIVE_REPLICATION`` (case 2) — three-way active replication over
  reliable totally ordered multicast, no voting, no digests, no
  signatures;
* ``MAJORITY_VOTING`` (case 3) — case 2 plus majority voting and MD4
  message digests in the token;
* ``FULL_SURVIVABILITY`` (case 4) — case 3 plus RSA-signed tokens.

:class:`ImmuneConfig` bundles the knobs (messages per token visit, RSA
modulus size, batch signatures) and enforces the
resilience requirements of section 3.1: at least ``ceil((2n+1)/3)``
correct processors out of ``n``, at least ``ceil((r+1)/2)`` correct
replicas out of ``r``, and at most one replica of an object per
processor.
"""

import enum

from repro.crypto.costmodel import CryptoCostModel
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.orb.core import BatchingPolicy, OrbCostModel


class SurvivabilityCase(enum.Enum):
    UNREPLICATED = 1
    ACTIVE_REPLICATION = 2
    MAJORITY_VOTING = 3
    FULL_SURVIVABILITY = 4

    @property
    def replicated(self):
        return self is not SurvivabilityCase.UNREPLICATED

    @property
    def voting(self):
        return self in (
            SurvivabilityCase.MAJORITY_VOTING,
            SurvivabilityCase.FULL_SURVIVABILITY,
        )

    @property
    def security_level(self):
        if self is SurvivabilityCase.FULL_SURVIVABILITY:
            return SecurityLevel.SIGNATURES
        if self is SurvivabilityCase.MAJORITY_VOTING:
            return SecurityLevel.DIGESTS
        return SecurityLevel.NONE


class ConfigError(Exception):
    """Raised when a deployment violates the resilience requirements."""


def required_correct_processors(n):
    """ceil((2n+1)/3) of n processors must be correct (section 3.1)."""
    return -(-(2 * n + 1) // 3)


def max_faulty_processors(n):
    return n - required_correct_processors(n)


class ImmuneConfig:
    """All tunables of one Immune deployment."""

    def __init__(
        self,
        case=SurvivabilityCase.FULL_SURVIVABILITY,
        modulus_bits=300,
        messages_per_token_visit=6,
        seed=0,
        batch_signatures=False,
    ):
        self.case = case
        self.modulus_bits = modulus_bits
        self.messages_per_token_visit = messages_per_token_visit
        self.seed = seed
        self.orb_costs = OrbCostModel()
        self.crypto_costs = CryptoCostModel(modulus_bits=modulus_bits)
        self.batching = BatchingPolicy()
        self.multicast = MulticastConfig(
            security=case.security_level,
            max_messages_per_token_visit=messages_per_token_visit,
            batch_signatures=batch_signatures,
        )
        self.batch_signatures = self.multicast.batch_signatures

    def validate_system(self, num_processors, expected_faulty=0):
        """Check the processor-level resilience requirement."""
        if num_processors < 1:
            raise ConfigError("need at least one processor")
        allowed = max_faulty_processors(num_processors)
        if expected_faulty > allowed:
            raise ConfigError(
                "a system of %d processors tolerates at most %d faulty, not %d"
                % (num_processors, allowed, expected_faulty)
            )

    def validate_placement(self, group_name, proc_ids, processors):
        """Check the replica-placement rules for one object group.

        ``processors`` is either the processor count (ids are then
        ``0..n-1``) or the collection of valid processor ids — cluster
        rings number their processors from disjoint global ranges.
        """
        if len(set(proc_ids)) != len(proc_ids):
            raise ConfigError(
                "at most one replica of %r per processor (got %r)"
                % (group_name, list(proc_ids))
            )
        valid = range(processors) if isinstance(processors, int) else processors
        for pid in proc_ids:
            if pid not in valid:
                raise ConfigError("replica of %r on unknown processor %d" % (group_name, pid))
        if self.case.replicated and self.case.voting and len(proc_ids) < 2:
            raise ConfigError(
                "majority voting on %r needs at least 2 replicas, got %d"
                % (group_name, len(proc_ids))
            )
