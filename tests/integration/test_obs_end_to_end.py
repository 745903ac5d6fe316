"""End-to-end observability: metrics, spans, trace cross-checks."""

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.obs import Observability
from repro.obs.export import render_dashboard, summarize
from repro.obs.forensics import ForensicsHub
from repro.workloads.open_loop import ECHO_IDL, EchoServant


def observed_run(seed=3, operations=5):
    """A small fully-survivable run with metrics, flight recorders AND
    full tracing on; ``issued`` counts the calls each client replica
    made."""
    obs = Observability(forensics=ForensicsHub())
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed)
    immune = ImmuneSystem(num_processors=6, config=config, obs=obs)
    server = immune.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1, 2])
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, ECHO_IDL, server)
    replies = []
    issued = {pid: 0 for pid in immune.processors}
    for k in range(operations):

        def fire(k=k):
            for pid, stub in stubs:
                issued[pid] += 1
                stub.echo(k, reply_to=replies.append)

        immune.scheduler.at(0.1 + 0.05 * k, fire, label="test.workload")
    immune.run(until=1.5)
    return immune, obs, replies, issued


def test_metrics_agree_with_trace_log():
    immune, obs, replies, issued = observed_run()
    registry = obs.registry
    trace = immune.trace
    assert replies  # the workload actually completed

    # Ordered deliveries: counter vs trace history, per processor.
    for pid in immune.processors:
        assert registry.value("multicast.delivered", proc=pid) == len(
            trace.where("multicast.deliver", proc=pid)
        )

    # Token visits: every accept and every origination is one visit,
    # and each leaves one row on the processor's flight recorder.
    for pid in immune.processors:
        recorder = obs.forensics.recorder(pid)
        assert recorder.dropped == 0
        rows = [e for e in recorder.events if e.etype in ("token_send", "token_receive")]
        assert rows
        assert registry.value("multicast.token_visits", proc=pid) == len(rows)

    # Invocations intercepted: counter vs the calls the workload issued.
    assert sum(issued.values()) > 0
    for pid in immune.processors:
        assert registry.value("rm.invocations_sent", proc=pid) == issued[pid]

    # Suspicions: per-observer totals vs detector.suspect records.
    for pid in immune.processors:
        raised = sum(
            m.value
            for m in registry.family("detector.suspicions")
            if dict(m.labels)["proc"] == pid
        )
        assert raised == len(trace.where("detector.suspect", observer=pid))


def test_votes_and_spans_close_out():
    immune, obs, replies, _ = observed_run(operations=4)
    registry = obs.registry
    # 4 ops x (invocation vote at 3 servers + response vote at 3 clients).
    assert registry.total("vote.decisions") == 4 * 6
    assert registry.total("vote.mismatches") == 0
    # Every logical invocation's span reached reply_voted.
    assert len(obs.spans.closed_spans()) == 4
    assert obs.spans.open_spans() == []
    for span in obs.spans.closed_spans():
        stages = [stage for stage, _ in span.breakdown()]
        assert stages[0] == "intercepted"
        assert stages[-1] == "reply_voted"
    # The registry's span histograms agree with the tracker.
    assert registry.value("span.closed") == 4
    assert registry.histogram("span.end_to_end_seconds").count == 4


def test_cpu_and_crypto_accounting_published():
    immune, obs, _, _ = observed_run(operations=2)
    registry = obs.registry
    registry.collect()
    # Case 4 signs every token: measured crypto work must be present
    # and agree with the processors' own CPU accounting.
    assert registry.total("crypto.sign_ops") > 0
    sign_seconds = sum(
        m.value
        for m in registry.family("crypto.seconds")
        if dict(m.labels)["op"] == "sign"
    )
    accounted = sum(
        p.cpu_accounting.get("crypto.sign", 0.0)
        for p in immune.processors.values()
    )
    assert abs(sign_seconds - accounted) < 1e-9
    assert registry.value("scheduler.events_executed") == immune.scheduler.events_executed
    assert immune.scheduler.busiest_labels(3)


def test_summary_and_dashboard_render():
    immune, obs, _, _ = observed_run(operations=3)
    summary = summarize(obs, crypto_costs=immune.config.crypto_costs)
    stages = [row["stage"] for row in summary["stage_breakdown"]]
    assert "voted" in stages and "reply_voted" in stages
    assert summary["amortisation"]["tokens_signed"] > 0
    assert summary["amortisation"]["ratio"] is not None
    assert summary["votes"]["decisions"] == 3 * 6
    text = render_dashboard(summary, run_info={"seed": 3})
    assert "Figure 7" in text
    assert "amortisation" in text
    assert "seed=3" in text


def test_observed_runs_are_deterministic():
    _, obs_a, _, _ = observed_run(seed=5)
    _, obs_b, _, _ = observed_run(seed=5)
    obs_a.registry.collect()
    obs_b.registry.collect()
    assert obs_a.registry.snapshot() == obs_b.registry.snapshot()
    spans_a = [s.to_dict() for s in obs_a.spans.spans()]
    spans_b = [s.to_dict() for s in obs_b.spans.spans()]
    assert spans_a == spans_b


def test_uninstrumented_run_matches_instrumented():
    # Attaching observability must not perturb the simulation itself.
    immune_a, _, replies_a, _ = observed_run(seed=7)
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7)
    immune_b = ImmuneSystem(num_processors=6, config=config)
    server = immune_b.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1, 2])
    client = immune_b.deploy_client("driver", [3, 4, 5])
    immune_b.start()
    stubs = immune_b.client_stubs(client, ECHO_IDL, server)
    replies_b = []
    for k in range(5):

        def fire(k=k):
            for _pid, stub in stubs:
                stub.echo(k, reply_to=replies_b.append)

        immune_b.scheduler.at(0.1 + 0.05 * k, fire, label="test.workload")
    immune_b.run(until=1.5)
    assert replies_a == replies_b
    assert immune_a.scheduler.events_executed == immune_b.scheduler.events_executed
