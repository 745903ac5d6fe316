"""End-to-end federation tests: rings of rings across sites.

A WAN invocation crosses four total orders — the client's ring, the
source site's backbone, the destination site's backbone, and back —
with a voted site-gateway hop in the middle.  These tests drive real
cross-site invocations and assert the federation's contract: exactly
once, correct replies, one Byzantine site-gateway replica masked and
attributed, a fully compromised site failing safe, and the
observability plane (span stages, site-labelled metrics, per-site
critical path) telling the truth about all of it.
"""

import pytest

from repro.core.config import SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.obs import Observability
from repro.obs.critpath import attribute_spans, render_critpath
from repro.obs.forensics import ForensicsHub, merge_timeline, score
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan
from repro.wan import SiteSpec, WanConfig, WanManager
from repro.workloads.bank import GeoBank

COUNTER_IDL = InterfaceDef(
    "Counter",
    [OperationDef("add", [ParamDef("n", "long")], result="long")],
)


class CountingServant:
    def __init__(self):
        self.total = 0
        self.calls = 0

    def add(self, n):
        self.calls += 1
        self.total += n
        return self.total


def _drive(wan, client, server, operations, start=0.1, interval=0.25):
    stubs = wan.client_stubs(client, COUNTER_IDL, server)
    replies = []
    for k in range(operations):
        def fire():
            for _pid, stub in stubs:
                stub.add(1, reply_to=replies.append)

        wan.scheduler.at(start + k * interval, fire, label="test.drive")
    return replies


def test_cross_site_invocation_exactly_once():
    config = WanConfig(sites=("alpha", "beta"), seed=3, latency=0.020)
    obs = Observability(forensics=ForensicsHub())
    wan = WanManager(config=config, obs=obs)
    server = wan.deploy(
        "counter", COUNTER_IDL, lambda pid: CountingServant(), site="alpha"
    )
    client = wan.deploy_client("driver", site="beta")
    replies = _drive(wan, client, server, operations=5)
    wan.start()
    wan.run(until=2.5)

    assert all(s.calls == 5 for s in server.servants.values())
    expected = sorted(
        total for total in range(1, 6) for _ in client.replica_procs
    )
    assert sorted(replies) == expected
    # every site-gateway replica carried traffic both ways
    for link in wan.links.values():
        for replica in link.replicas:
            assert replica.forward_ab.stats["forwarded"] > 0
            assert replica.forward_ba.stats["forwarded"] > 0


def test_byzantine_site_gateway_masked_and_attributed():
    config = WanConfig(sites=("alpha", "beta"), seed=5, latency=0.015)
    obs = Observability(forensics=ForensicsHub())
    wan = WanManager(config=config, obs=obs)
    server = wan.deploy(
        "counter", COUNTER_IDL, lambda pid: CountingServant(), site="beta"
    )
    client = wan.deploy_client("driver", site="alpha")
    corrupt = wan.corrupt_gateway("alpha", "beta", index=0, direction="alpha")
    replies = _drive(wan, client, server, operations=5)
    wan.start()
    wan.run(until=4.0)

    # masked: the two honest replicas outvote the corrupt copy
    assert all(s.calls == 5 for s in server.servants.values())
    expected = sorted(
        total for total in range(1, 6) for _ in client.replica_procs
    )
    assert sorted(replies) == expected
    # attributed: only the corrupting direction's destination pid
    timeline = merge_timeline(obs.forensics)
    culprits = {
        e.get("culprit")
        for e in timeline
        if e.etype == "vote_divergence" and not e.get("late")
    }
    assert culprits == {corrupt.pid_b}
    scorecard = score(obs.forensics, timeline)
    assert scorecard["precision"] == 1.0
    assert scorecard["recall"] == 1.0


def test_wan_span_stages_price_the_flight():
    rtt = 0.080
    latency = {("alpha", "beta"): 0.5 * rtt, ("beta", "alpha"): 0.5 * rtt}
    config = WanConfig(sites=("alpha", "beta"), seed=9, latency=latency)
    obs = Observability(forensics=ForensicsHub())
    wan = WanManager(config=config, obs=obs)
    server = wan.deploy(
        "counter", COUNTER_IDL, lambda pid: CountingServant(), site="beta"
    )
    client = wan.deploy_client("driver", site="alpha")
    _drive(wan, client, server, operations=3, interval=0.5)
    wan.start()
    wan.run(until=3.0)

    closed = obs.spans.closed_spans()
    assert closed
    marks = closed[0].marks
    assert "wan_forwarded" in marks
    assert "reply_wan_forwarded" in marks
    assert marks["wan_forwarded"] <= marks["ordered"]
    # the wan_forwarded stage delta carries the one-way flight
    assert marks["wan_forwarded"] - marks["multicast_queued"] >= 0.5 * rtt

    report = attribute_spans(
        obs.spans,
        merge_timeline(obs.forensics),
        shard_of_group=wan.shard_of_group(),
        site_of_shard=wan.site_of_shard(),
    )
    causes = {row["cause"]: row["seconds"] for row in report["per_cause"]}
    # the WAN flight dominates an 80 ms RTT invocation's critical path
    assert causes.get("wan_hop", 0.0) > 0.5 * report["total_seconds"]
    assert "per_site" in report
    assert set(report["per_site"]) <= {"alpha", "beta"}
    rendered = render_critpath(report)
    assert "by site:" in rendered
    assert "wan_hop" in rendered


def test_metrics_carry_site_labels():
    config = WanConfig(sites=("alpha", "beta"), seed=3, latency=0.010)
    obs = Observability(forensics=ForensicsHub())
    wan = WanManager(config=config, obs=obs)
    server = wan.deploy(
        "counter", COUNTER_IDL, lambda pid: CountingServant(), site="alpha"
    )
    client = wan.deploy_client("driver", site="beta")
    _drive(wan, client, server, operations=2)
    wan.start()
    wan.run(until=1.5)

    obs.registry.collect()
    sites = {
        dict(metric.labels).get("site")
        for metric in obs.registry.family("multicast.delivered")
    }
    assert {"alpha", "beta"} <= sites
    wan_forwarded = list(obs.registry.family("wan.forwarded"))
    assert wan_forwarded
    for metric in wan_forwarded:
        labels = dict(metric.labels)
        assert labels["site"] in ("alpha", "beta")
        assert labels["to_site"] in ("alpha", "beta")
        assert labels["site"] != labels["to_site"]
    # federation-level gauges
    assert obs.registry.value("wan.sites") == 2
    assert obs.registry.value("wan.groups") == 2


def test_whole_site_compromise_fails_safe():
    obs = Observability(forensics=ForensicsHub())
    config = WanConfig(sites=("alpha", "beta", "gamma"), seed=11, latency=0.010)
    wan = WanManager(config=config, obs=obs, fault_plan=FaultPlan())
    bank = GeoBank(
        wan,
        branches=["north", "south", "east"],
        branch_homes={"north": "alpha", "south": "beta", "east": "gamma"},
        teller_home="alpha",
    )
    rogue, rogue_stubs = bank.add_teller("bank.rogue", "gamma")

    # pre-compromise: honest cross-site traffic and a still-honest rogue
    bank.schedule_transfer(0.2, "north", 1, "south", 1, 10)
    bank.schedule_transfer(0.5, "east", 1, "north", 1, 7, stubs=rogue_stubs)
    wan.compromise_site("gamma", at_time=1.0)
    # post-compromise: the rogue attacks the surviving sites; every
    # invocation must leave gamma through corrupted forwarders
    bank.schedule_transfer(1.1, "north", 2, "south", 2, 50, stubs=rogue_stubs)
    # honest traffic between survivors carries on
    bank.schedule_transfer(1.4, "north", 2, "south", 2, 3)
    wan.start()
    wan.run(until=3.5)

    assert bank.conserved()
    assert bank.replicas_agree()
    assert not bank.failed
    labels = {}
    for label, _value in bank.replies:
        labels[label] = labels.get(label, 0) + 1
    degree = config.replication_degree
    # the rogue's pre-compromise transfer completed everywhere ...
    assert labels["transfer:east#1->north#1:7@0.5:w"] == degree
    assert labels["transfer:east#1->north#1:7@0.5:d"] == degree
    # ... its post-compromise attack executed nowhere (fail-safe omission)
    assert "transfer:north#2->south#2:50@1.1:w" not in labels
    # ... and honest post-compromise traffic was untouched
    assert labels["transfer:north#2->south#2:3@1.4:w"] == degree
    assert labels["transfer:north#2->south#2:3@1.4:d"] == degree
    # the suppressed compromise is charged to gamma's gateways only
    scorecard = score(obs.forensics)
    assert scorecard["precision"] == 1.0
    assert scorecard["recall"] == 1.0


def test_value_faulty_replica_is_convicted_from_another_site():
    """The cross-site leg of the section 6.2 chain (the same-ring and
    cross-ring legs are in ``test_cluster_end_to_end``): the faulty
    replica's reply copies are voted down by beta's site-gateway
    forwarders, which must therefore report it on beta's backbone."""
    config = WanConfig(
        sites=("alpha", "beta"),
        case=SurvivabilityCase.FULL_SURVIVABILITY,
        seed=5,
        latency=0.015,
    )
    wan = WanManager(config=config)
    beta = wan.sites["beta"]
    faulty_pid = beta.config.worker_pids(0)[0]
    server = wan.deploy(
        "counter",
        COUNTER_IDL,
        lambda pid: ValueFaultServant(CountingServant())
        if pid == faulty_pid
        else CountingServant(),
        site="beta",
        on_procs=beta.config.worker_pids(0)[:3],
    )
    client = wan.deploy_client("driver", site="alpha")
    replies = _drive(wan, client, server, operations=4, interval=1.0)
    wan.start()
    wan.run(until=6.0)

    expected = sorted(total for total in range(1, 5) for _ in client.replica_procs)
    assert sorted(replies) == expected
    assert set(beta.surviving_members(0)) == set(beta.config.ring_pids(0)) - {faulty_pid}
    alpha = wan.sites["alpha"]
    assert set(alpha.surviving_members(0)) == set(alpha.config.ring_pids(0))
    for site in (alpha, beta):
        assert set(site.config.wan_gateway_pids()) <= set(site.surviving_members(0))
