"""Cluster scaling bench: aggregate throughput across 1, 2, and 4 rings.

The paper's single token ring caps aggregate throughput at one token
circulation; :mod:`repro.cluster` composes rings.  This bench holds the
*workload* fixed — a set of packet-driver pairs, each driving its
server group at a saturating rate — and varies only the number of rings
it is sharded across.  On one ring every pair shares one token; on two
rings the placement engine splits the pairs evenly and the aggregate
delivered throughput approximately doubles.

A second section drills the cross-ring gateway under a Byzantine
gateway replica: a two-ring cluster, a client group on ring 0 invoking
a counter group on ring 1, with one gateway replica corrupting every
message it forwards.  The report asserts end-to-end exactly-once (every
server replica executed every operation exactly once) and correctness
(every client replica saw the right voted totals).

Every number in the JSON artifact derives from simulated state only —
no wall clocks — so the report is byte-identical across repeated
runs, which CI checks.

Usage::

    python -m repro.bench cluster            # writes BENCH_pr5.json
    python -m repro.bench cluster --smoke    # CI's run-twice form
"""

from repro.cluster import ClusterConfig, ClusterManager
from repro.core.config import SurvivabilityCase
from repro.obs import Observability
from repro.obs.forensics import ForensicsHub, merge_timeline
from repro.workloads.open_loop import (
    COUNTER_IDL,
    CounterServant,
    OpenLoopDriver,
    add_one,
)
from repro.workloads.packet_driver import PACKET_IDL, PacketDriver, PacketSink

# ----------------------------------------------------------------------
# scaling section
# ----------------------------------------------------------------------

def run_scaling_case(
    num_rings,
    pairs,
    interval,
    duration,
    warmup,
    case=SurvivabilityCase.MAJORITY_VOTING,
    seed=7,
    procs_per_ring=6,
):
    """One fixed workload sharded across ``num_rings`` rings.

    ``pairs`` packet-driver pairs are deployed through the balanced
    placement mode, which splits them evenly across rings; each pair's
    client group is pinned to its server's ring (intra-ring traffic —
    the scaling story is about the token bottleneck, not the gateway).
    Returns the per-pair and aggregate delivered throughput over the
    steady-state window ``[warmup, warmup + duration)``.
    """
    config = ClusterConfig(
        num_rings=num_rings,
        procs_per_ring=procs_per_ring,
        case=case,
        seed=seed,
        placement_mode="balanced",
    )
    cluster = ClusterManager(config)
    deployments = []
    for k in range(pairs):
        server = cluster.deploy(
            "sink%d" % k, PACKET_IDL, lambda pid: PacketSink(cluster.scheduler)
        )
        client = cluster.deploy_client("driver%d" % k, ring=server.ring)
        deployments.append((server, client))
    cluster.start()

    for server, client in deployments:
        driver = PacketDriver(cluster, client, server, interval)
        driver.run_for(0.05, warmup + duration)
    end = 0.05 + warmup + duration
    cluster.run(until=end + 0.05)

    window = (0.05 + warmup, end)
    per_pair = []
    aggregate = 0.0
    for k, (server, client) in enumerate(deployments):
        # All replicas deliver the same stream; measure at the lowest
        # surviving replica's sink (they agree by total order).
        sink = server.servants[min(server.servants)]
        rate = sink.throughput(*window)
        aggregate += rate
        per_pair.append(
            {
                "pair": k,
                "ring": server.ring,
                "server_procs": list(server.replica_procs),
                "received": sink.received_between(*window),
                "throughput": rate,
            }
        )
    return {
        "rings": num_rings,
        "pairs": pairs,
        "interval": interval,
        "offered_aggregate": pairs / interval,
        "measured_seconds": duration,
        "per_pair": per_pair,
        "aggregate_throughput": aggregate,
        "placement": cluster.placement.distribution(),
        "simulated_seconds": cluster.scheduler.now,
    }


# ----------------------------------------------------------------------
# Byzantine gateway section
# ----------------------------------------------------------------------

def run_byzantine_gateway_case(
    operations=8,
    op_interval=0.25,
    case=SurvivabilityCase.FULL_SURVIVABILITY,
    seed=11,
):
    """Cross-ring exactly-once under one corrupt gateway replica."""
    obs = Observability(forensics=ForensicsHub())
    config = ClusterConfig(num_rings=2, case=case, seed=seed)
    cluster = ClusterManager(config, obs=obs)
    server = cluster.deploy("counter", COUNTER_IDL, lambda pid: CounterServant(), ring=1)
    client = cluster.deploy_client("driver", ring=0)
    corrupt = cluster.corrupt_gateway(0, 1, index=0)
    cluster.start()

    stubs = cluster.client_stubs(client, COUNTER_IDL, server)
    driver = OpenLoopDriver(cluster, stubs, add_one, "bench.byzantine")
    driver.run(0.1, operations, op_interval)
    cluster.run(until=0.1 + operations * op_interval + 1.5)

    executions = {
        pid: servant.calls for pid, servant in sorted(server.servants.items())
    }
    expected_replies = sorted(
        total for total in range(1, operations + 1)
        for _ in client.replica_procs
    )
    replies = [value for _k, _pid, value, _latency in driver.replies]
    timeline = merge_timeline(obs.forensics)
    divergence_culprits = sorted(
        {e.get("culprit") for e in timeline if e.etype == "vote_divergence"}
    )
    gateway_hops = sum(1 for e in timeline if e.etype == "gateway_forward")
    exactly_once = all(calls == operations for calls in executions.values())
    return {
        "case": case.name,
        "operations": operations,
        "corrupt_gateway": {"pid_ring0": corrupt.pid_a, "pid_ring1": corrupt.pid_b},
        "executions_per_replica": executions,
        "exactly_once": exactly_once,
        "replies_received": len(replies),
        "replies_correct": sorted(replies) == expected_replies,
        "divergence_culprits": divergence_culprits,
        "gateway_hops_recorded": gateway_hops,
        "gateway_stats": cluster.gateway_stats(),
        "surviving_ring1": list(cluster.surviving_members(1)),
        "simulated_seconds": cluster.scheduler.now,
    }


def run_bench(
    ring_counts, pairs, interval, duration, warmup, operations,
    case=SurvivabilityCase.MAJORITY_VOTING, seed=7,
):
    """The scaling sweep over ``ring_counts`` and the Byzantine drill."""
    scaling = []
    baseline = None
    for num_rings in ring_counts:
        result = run_scaling_case(
            num_rings, pairs, interval, duration, warmup, case=case, seed=seed
        )
        if baseline is None:
            baseline = result["aggregate_throughput"]
        result["scaling_vs_1_ring"] = (
            result["aggregate_throughput"] / baseline if baseline else 0.0
        )
        scaling.append(result)
    by_rings = {entry["rings"]: entry for entry in scaling}
    return {
        "bench": "cluster-scaling",
        "config": {
            "case": case.name,
            "seed": seed,
            "pairs": pairs,
            "interval": interval,
            "duration": duration,
            "warmup": warmup,
            "ring_counts": list(ring_counts),
        },
        "scaling": scaling,
        "scaling_2_rings": by_rings.get(2, {}).get("scaling_vs_1_ring"),
        "scaling_4_rings": by_rings.get(4, {}).get("scaling_vs_1_ring"),
        "byzantine_gateway": run_byzantine_gateway_case(
            operations=operations, seed=seed + 4
        ),
    }
