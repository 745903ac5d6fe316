"""Span stages and critpath sums under MessageFragment split/reassembly.

Patching ``MulticastConfig.fragment_payload_bytes`` tiny makes every
invocation and reply cross the ring as multiple :class:`MessageFragment`
frames.  The span machinery must not notice: an invocation's stage set
is the same whether its bytes rode one frame or eight, and the
critical-path decomposition still sums to the end-to-end latency
exactly — the reassembly wait shows up inside the token stages, never
as a missing or phantom stage.
"""

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.multicast.config import MulticastConfig
from repro.obs import Observability
from repro.obs.critpath import attribute_span, _TokenEvidence
from repro.obs.forensics import ForensicsHub, merge_timeline
from repro.workloads.open_loop import ECHO_IDL, EchoServant


def observed_run(monkeypatch, fragment_payload_bytes, seed=3, operations=4):
    monkeypatch.setattr(MulticastConfig, "fragment_payload_bytes", fragment_payload_bytes)
    obs = Observability(forensics=ForensicsHub())
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed)
    immune = ImmuneSystem(num_processors=6, config=config, obs=obs)
    server = immune.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1, 2])
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, ECHO_IDL, server)
    replies = []
    for k in range(operations):

        def fire(k=k):
            for _pid, stub in stubs:
                stub.echo(k, reply_to=replies.append)

        immune.scheduler.at(0.1 + 0.05 * k, fire, label="test.workload")
    immune.run(until=1.5)
    assert replies
    return immune, obs


def stage_sets(obs):
    return {
        span.key: tuple(stage for stage, _ in span.breakdown())
        for span in obs.spans.closed_spans()
    }


def test_tiny_fragment_threshold_actually_fragments(monkeypatch):
    immune, obs = observed_run(monkeypatch, fragment_payload_bytes=64)
    assert obs.registry.total("multicast.fragments_sent") > 0
    # and the default threshold sends the same workload unfragmented
    immune2, obs2 = observed_run(monkeypatch, fragment_payload_bytes=4096)
    assert obs2.registry.total("multicast.fragments_sent") == 0


def test_fragmented_spans_keep_the_same_stage_set(monkeypatch):
    _, whole = observed_run(monkeypatch, fragment_payload_bytes=4096)
    _, split = observed_run(monkeypatch, fragment_payload_bytes=64)
    whole_stages = stage_sets(whole)
    split_stages = stage_sets(split)
    # Same invocations closed, and each walked the identical stage
    # sequence — fragmentation adds frames, never span stages.
    assert set(whole_stages) == set(split_stages)
    assert whole_stages == split_stages
    for stages in split_stages.values():
        assert stages[0] == "intercepted"
        assert stages[-1] == "reply_voted"


def test_fragmented_critpath_sums_exactly(monkeypatch):
    immune, obs = observed_run(monkeypatch, fragment_payload_bytes=64)
    evidence = _TokenEvidence(merge_timeline(obs.forensics))
    spans = obs.spans.closed_spans()
    assert spans
    for span in spans:
        rows = attribute_span(span, evidence, cost_model=immune.config.crypto_costs)
        # exact equality, not approx: the decomposition is accounting,
        # and reassembly wait must be absorbed without leaking time
        assert sum(seconds for _, _, seconds in rows) == span.end_to_end()
        deltas = dict((stage, delta) for stage, delta in span.breakdown())
        for stage, _cause, seconds in rows:
            assert seconds >= 0.0
            assert seconds <= deltas[stage] + 1e-12
