"""Unit tests for survivability cases and resilience invariants."""

import pytest

from repro.core.config import (
    ConfigError,
    ImmuneConfig,
    SurvivabilityCase,
    max_faulty_processors,
    required_correct_processors,
)
from repro.multicast.config import SecurityLevel


def test_case_properties():
    assert not SurvivabilityCase.UNREPLICATED.replicated
    assert SurvivabilityCase.ACTIVE_REPLICATION.replicated
    assert not SurvivabilityCase.ACTIVE_REPLICATION.voting
    assert SurvivabilityCase.MAJORITY_VOTING.voting
    assert SurvivabilityCase.FULL_SURVIVABILITY.voting


def test_case_security_levels():
    assert (
        SurvivabilityCase.ACTIVE_REPLICATION.security_level is SecurityLevel.NONE
    )
    assert SurvivabilityCase.MAJORITY_VOTING.security_level is SecurityLevel.DIGESTS
    assert (
        SurvivabilityCase.FULL_SURVIVABILITY.security_level
        is SecurityLevel.SIGNATURES
    )


def test_required_correct_matches_paper_formula():
    # ceil((2n+1)/3): the paper's section 3.1 requirement.
    assert required_correct_processors(4) == 3
    assert required_correct_processors(6) == 5
    assert required_correct_processors(7) == 5
    # and the faulty bound k <= floor((n-1)/3)
    assert max_faulty_processors(4) == 1
    assert max_faulty_processors(6) == 1
    assert max_faulty_processors(7) == 2
    assert max_faulty_processors(10) == 3


def test_validate_system_rejects_too_many_faults():
    config = ImmuneConfig()
    config.validate_system(6, expected_faulty=1)  # fine
    with pytest.raises(ConfigError):
        config.validate_system(6, expected_faulty=2)
    with pytest.raises(ConfigError):
        config.validate_system(0)


def test_validate_placement_one_replica_per_processor():
    config = ImmuneConfig()
    config.validate_placement("g", [0, 1, 2], 6)
    with pytest.raises(ConfigError):
        config.validate_placement("g", [0, 0, 1], 6)


def test_validate_placement_unknown_processor():
    config = ImmuneConfig()
    with pytest.raises(ConfigError):
        config.validate_placement("g", [0, 9], 6)


def test_validate_placement_voting_needs_replicas():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY)
    with pytest.raises(ConfigError):
        config.validate_placement("g", [0], 6)
    # The unreplicated case accepts singletons.
    ImmuneConfig(case=SurvivabilityCase.UNREPLICATED).validate_placement("g", [0], 6)


def test_config_wires_multicast_security():
    config = ImmuneConfig(case=SurvivabilityCase.MAJORITY_VOTING)
    assert config.multicast.security is SecurityLevel.DIGESTS
    config4 = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY)
    assert config4.multicast.security is SecurityLevel.SIGNATURES


def test_config_passes_j_and_modulus_through():
    config = ImmuneConfig(messages_per_token_visit=4, modulus_bits=512)
    assert config.multicast.max_messages_per_token_visit == 4
    assert config.crypto_costs.modulus_bits == 512


def test_config_digest_selection():
    """Every deployment digests with MD4, as in the paper."""
    from repro.core.immune import ImmuneSystem
    from repro.crypto.md4 import md4_digest

    immune = ImmuneSystem(num_processors=4, config=ImmuneConfig())
    assert immune.keystore._raw_digest_fn is md4_digest
