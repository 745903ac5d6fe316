"""Validation of the MulticastConfig knobs (the paper's j, batch signatures).

The paper's ``j`` (messages per token visit) and the batch-signature
switch must reject nonsense values with an error message that names
the field, the accepted range, and the offending value, so a
misconfigured experiment fails at construction instead of deadlocking a
ring.  The pipeline's cadence, depth and fragment size are constants.
"""

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.multicast.config import (
    MulticastConfig,
    MulticastConfigError,
    SecurityLevel,
)


def test_defaults_are_valid():
    config = MulticastConfig()
    assert config.max_messages_per_token_visit == 6
    assert config.batch_signatures is False
    assert config.signature_batch_visits == 4
    assert config.pipeline_depth == 4
    assert config.fragment_payload_bytes == 4096


@pytest.mark.parametrize("value", [0, -1, 4097, "6", 6.0, None, True])
def test_j_rejects_out_of_range_and_non_integers(value):
    with pytest.raises(MulticastConfigError) as excinfo:
        MulticastConfig(max_messages_per_token_visit=value)
    message = str(excinfo.value)
    assert "max_messages_per_token_visit" in message
    assert "j" in message  # names the paper's parameter
    assert repr(value) in message or str(value) in message


def test_batch_signatures_must_be_bool():
    with pytest.raises(MulticastConfigError) as excinfo:
        MulticastConfig(batch_signatures=1)
    assert "batch_signatures" in str(excinfo.value)


def test_batch_signatures_requires_signature_security():
    for security in (SecurityLevel.NONE, SecurityLevel.DIGESTS):
        with pytest.raises(MulticastConfigError) as excinfo:
            MulticastConfig(security=security, batch_signatures=True)
        message = str(excinfo.value)
        assert "batch_signatures" in message
        assert "SIGNATURES" in message
        assert security.name in message
    config = MulticastConfig(
        security=SecurityLevel.SIGNATURES, batch_signatures=True
    )
    assert config.batch_signatures is True


def test_immune_config_passes_pipeline_knobs_through():
    config = ImmuneConfig(
        case=SurvivabilityCase.FULL_SURVIVABILITY,
        batch_signatures=True,
    )
    assert config.batch_signatures is True
    assert config.multicast.batch_signatures is True
