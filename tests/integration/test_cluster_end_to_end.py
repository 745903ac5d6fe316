"""End-to-end tests for multi-ring clusters and cross-ring gateways."""

import pytest

from repro.cluster import ClusterConfig, ClusterManager
from repro.core.config import SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.obs import Observability
from repro.obs.forensics import ForensicsHub, merge_timeline
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan

COUNTER_IDL = InterfaceDef(
    "Counter",
    [OperationDef("add", [ParamDef("amount", "long")], result="long")],
)


class CounterServant:
    def __init__(self):
        self.value = 0
        self.calls = 0

    def add(self, amount):
        self.calls += 1
        self.value += amount
        return self.value


def build(case=SurvivabilityCase.MAJORITY_VOTING, obs=None, server_ring=1, client_ring=0):
    cluster = ClusterManager(ClusterConfig(num_rings=2, case=case, seed=5), obs=obs)
    server = cluster.deploy(
        "counter", COUNTER_IDL, lambda pid: CounterServant(), ring=server_ring
    )
    client = cluster.deploy_client("driver", ring=client_ring)
    cluster.start()
    return cluster, server, client


def drive(cluster, client, server, operations, spacing=0.25):
    """Schedule ``operations`` spaced adds; returns the replies list."""
    stubs = cluster.client_stubs(client, COUNTER_IDL, server)
    replies = []
    for k in range(operations):
        def fire():
            for pid, stub in stubs:
                if not cluster.processors[pid].crashed:
                    stub.add(1, reply_to=replies.append)

        cluster.scheduler.at(0.1 + k * spacing, fire, label="test.drive")
    cluster.run(until=0.1 + operations * spacing + 1.5)
    return replies


def expected_replies(operations, client):
    return sorted(
        total for total in range(1, operations + 1) for _ in client.replica_procs
    )


@pytest.mark.parametrize(
    "case",
    [
        SurvivabilityCase.ACTIVE_REPLICATION,
        SurvivabilityCase.MAJORITY_VOTING,
        SurvivabilityCase.FULL_SURVIVABILITY,
    ],
)
def test_cross_ring_invocation_is_exactly_once_with_voted_replies(case):
    cluster, server, client = build(case=case)
    replies = drive(cluster, client, server, operations=3)
    # Exactly-once at every server replica despite three gateway copies.
    for pid, servant in server.servants.items():
        assert servant.calls == 3, "replica on P%d saw duplicates or losses" % pid
    # Every client replica received every voted reply.
    assert sorted(replies) == expected_replies(3, client)


def test_same_ring_invocation_never_touches_the_gateways():
    cluster, server, client = build(server_ring=0, client_ring=0)
    replies = drive(cluster, client, server, operations=2)
    assert sorted(replies) == expected_replies(2, client)
    for link_stats in cluster.gateway_stats().values():
        for replica in link_stats["replicas"]:
            assert replica["a_to_b"]["forwarded"] == 0
            assert replica["b_to_a"]["forwarded"] == 0


def test_hash_placed_groups_work_wherever_they_land():
    cluster = ClusterManager(ClusterConfig(num_rings=2, seed=9))
    server = cluster.deploy("svc", COUNTER_IDL, lambda pid: CounterServant())
    client = cluster.deploy_client("drv")
    cluster.start()
    assert cluster.directory.home_ring("svc") == server.ring
    replies = drive(cluster, client, server, operations=2)
    assert sorted(replies) == expected_replies(2, client)


def test_a_resync_of_a_gateway_host_reaches_its_forwarders_voters():
    cluster, server, client = build()
    drive(cluster, client, server, operations=1)
    (link,) = cluster.links.values()
    forwarder = link.replicas[0].forwarder_from(0)
    voter = forwarder._voters["counter"]  # built by the cross-ring call
    manager = cluster.rings[0].managers[forwarder.src_pid]
    snapshot = manager.groups.snapshot()
    moved = snapshot["driver"][:-1]
    snapshot["driver"] = moved
    manager.resync_groups(snapshot)
    # The forwarder votes the client's copies against the table its
    # source-side manager now holds, not the one it held before.
    assert manager.groups.members("driver") == moved
    assert voter._groups.members("driver") == moved


def test_byzantine_gateway_is_outvoted_and_attributed():
    obs = Observability(forensics=ForensicsHub())
    cluster = ClusterManager(
        ClusterConfig(num_rings=2, case=SurvivabilityCase.FULL_SURVIVABILITY, seed=5),
        obs=obs,
    )
    server = cluster.deploy(
        "counter", COUNTER_IDL, lambda pid: CounterServant(), ring=1
    )
    client = cluster.deploy_client("driver", ring=0)
    corrupt = cluster.corrupt_gateway(0, 1, index=0)
    cluster.start()
    replies = drive(cluster, client, server, operations=4)

    # The corrupted copies were outvoted: service stayed exactly-once
    # and every client replica got the correct totals.
    for servant in server.servants.values():
        assert servant.calls == 4
    assert sorted(replies) == expected_replies(4, client)

    # The value-fault machinery attributed the corrupt gateway's pid on
    # the ring where its forged copies were voted against the majority.
    timeline = merge_timeline(obs.forensics)
    culprits = {e.get("culprit") for e in timeline if e.etype == "vote_divergence"}
    assert culprits == {corrupt.pid_b}
    # Gateway hops were recorded on both shards of the merged timeline.
    hop_shards = {e.shard for e in timeline if e.etype == "gateway_forward"}
    assert hop_shards == {0, 1}


def test_metrics_are_ring_labelled_and_spans_cover_gateway_stages():
    obs = Observability()
    cluster = ClusterManager(ClusterConfig(num_rings=2, seed=5), obs=obs)
    server = cluster.deploy(
        "counter", COUNTER_IDL, lambda pid: CounterServant(), ring=1
    )
    client = cluster.deploy_client("driver", ring=0)
    cluster.start()
    drive(cluster, client, server, operations=2)

    # Every RM metric carries its ring label; both rings reported.
    rings_seen = {
        dict(m.labels).get("ring") for m in obs.registry.family("rm.invocations_sent")
    }
    assert rings_seen == {0, 1}
    assert obs.registry.total("gateway.forwarded") > 0
    for metric in obs.registry.family("gateway.forwarded"):
        assert "ring" in dict(metric.labels)

    # One shared span tracker ties both rings' marks to one invocation:
    # the cross-ring stages appear in pipeline order.
    driver_spans = [s for s in obs.spans.closed_spans() if s.key[0] == "driver"]
    assert driver_spans, "no closed invocation spans for the driver group"
    span = driver_spans[0]
    stages = list(span.to_dict()["stages"])
    for stage in ("gateway_forwarded", "reply_gateway_forwarded"):
        assert stage in stages
    assert stages.index("gateway_forwarded") < stages.index("ordered")
    assert stages.index("executed") < stages.index("reply_gateway_forwarded")
    assert stages.index("reply_gateway_forwarded") < stages.index("reply_voted")


@pytest.mark.parametrize("client_ring", [1, 0], ids=["same-ring", "cross-ring"])
def test_value_faulty_replica_is_convicted_wherever_the_client_lives(client_ring):
    """Section 6.2 end to end: detect -> vote -> suspect -> exclude.

    With the client on another ring the faulty replica's reply copies
    are voted down by the gateway forwarders and never reach a client
    voter, so the gateways themselves must publish the Value_Fault_Vote
    on the server's ring.
    """
    cluster = ClusterManager(
        ClusterConfig(num_rings=2, case=SurvivabilityCase.FULL_SURVIVABILITY, seed=5)
    )
    faulty_pid = cluster.config.worker_pids(1)[0]
    server = cluster.deploy(
        "counter",
        COUNTER_IDL,
        lambda pid: ValueFaultServant(CounterServant())
        if pid == faulty_pid
        else CounterServant(),
        ring=1,
    )
    assert faulty_pid in server.replica_procs
    client = cluster.deploy_client("driver", ring=client_ring)
    cluster.start()
    replies = drive(cluster, client, server, operations=4, spacing=1.0)

    # Every reply is correct (a corrupted total would be 666 too high),
    # and every client replica not hosted on the convicted processor
    # got all four.
    honest_clients = [pid for pid in client.replica_procs if pid != faulty_pid]
    assert set(replies) == {1, 2, 3, 4}
    assert all(replies.count(total) >= len(honest_clients) for total in (1, 2, 3, 4))
    survivors = set(cluster.surviving_members(1))
    assert faulty_pid not in survivors
    assert survivors == set(cluster.config.ring_pids(1)) - {faulty_pid}
    assert set(cluster.surviving_members(0)) == set(cluster.config.ring_pids(0))
    for ring in (0, 1):
        assert set(cluster.config.gateway_pids(ring)) <= set(
            cluster.surviving_members(ring)
        )


def test_a_ring_fault_plan_crashes_a_processor_of_that_ring_only():
    config = ClusterConfig(num_rings=2, seed=5)
    victim = config.worker_pids(1)[0]
    cluster = ClusterManager(
        config, fault_plans={1: FaultPlan().schedule_crash(victim, 0.5)}
    )
    cluster.start()
    ring0 = cluster.rings[0].endpoints.values()
    installed = [(endpoint.ring_id, endpoint.members) for endpoint in ring0]
    cluster.run(until=3.0)
    assert cluster.processors[victim].crashed
    assert set(cluster.surviving_members(1)) == set(config.ring_pids(1)) - {victim}
    # ring 0 never reconfigured: same ring id and members everywhere
    assert [(endpoint.ring_id, endpoint.members) for endpoint in ring0] == installed
    assert set(cluster.surviving_members(0)) == set(config.ring_pids(0))
