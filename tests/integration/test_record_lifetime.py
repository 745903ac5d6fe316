"""A vote ends with its operation: retained state does not grow with a run.

Voters and duplicate filters hold an operation's record from its
decision until every replica of its source group has been heard for it,
plus the latest completed operation of each source group
(:class:`repro.core.duplicates.Hearings`).  So after a run settles, what
a deployment retains is at most one record per (voter, source group),
however many invocations it carried.  Holding nothing longer is
invisible: with retirement patched off, the seeded drills export the
same bytes.
"""

import json

import pytest

from repro import perf
from repro.cluster import ClusterConfig, ClusterManager
from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.duplicates import Hearings
from repro.core.immune import ImmuneSystem
from repro.workloads.open_loop import COUNTER_IDL, CounterServant, add_one
from repro.workloads.packet_driver import PACKET_IDL, PacketSink
from tests.integration.test_memo_invisible import batch_intrusion_drill, figure7_case4_drill
from tests.support import retained_operations

N = 8
SPACING = 0.02


def never_retire(monkeypatch):
    """Patch retirement off: every record and key is held for good."""
    monkeypatch.setattr(Hearings, "_complete", lambda self, op_key, source_group: ())


def figure7_ring(count, case=SurvivabilityCase.FULL_SURVIVABILITY):
    """Figure 7's ring: 6 processors, 3 client replicas pushing one-way
    to 3 server replicas; ``count`` pushes, then the ring settles."""
    immune = ImmuneSystem(6, config=ImmuneConfig(case=case, seed=7))
    server = immune.deploy(
        "sink", PACKET_IDL, lambda pid: PacketSink(immune.scheduler), [0, 1, 2]
    )
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, PACKET_IDL, server)
    for k in range(count):
        for _pid, stub in stubs:
            immune.scheduler.at(0.05 + SPACING * k, stub.push, b"%d" % k)
    immune.run(until=0.05 + SPACING * count + 0.5)
    return immune, server


def counter_ring(count, case):
    """Two-way adds, 3 client replicas to 3 server replicas on one ring."""
    immune = ImmuneSystem(6, config=ImmuneConfig(case=case, seed=7))
    server = immune.deploy("counter", COUNTER_IDL, lambda pid: CounterServant(), [0, 1, 2])
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    replies = []
    for k in range(count):
        for _pid, stub in immune.client_stubs(client, COUNTER_IDL, server):
            immune.scheduler.at(0.05 + SPACING * k, add_one, stub, k, replies.append)
    immune.run(until=0.05 + SPACING * count + 0.5)
    assert len(replies) == 3 * count
    return immune, server


def two_ring_cluster(count):
    """A counter on ring 1 called two-way from ring 0 through the gateways."""
    cluster = ClusterManager(ClusterConfig(num_rings=2, seed=5))
    server = cluster.deploy("counter", COUNTER_IDL, lambda pid: CounterServant(), ring=1)
    client = cluster.deploy_client("driver", ring=0)
    cluster.start()
    replies = []
    stubs = cluster.client_stubs(client, COUNTER_IDL, server)
    for k in range(count):
        for _pid, stub in stubs:
            cluster.scheduler.at(0.1 + SPACING * k, add_one, stub, k, replies.append)
    cluster.run(until=0.1 + SPACING * count + 1.0)
    assert sorted(replies) == sorted(list(range(1, count + 1)) * 3)
    return cluster, server


@pytest.mark.parametrize(
    "build, bound",
    [
        # three server voters, one source group (the client)
        (figure7_ring, {"records": 3, "keys": 0}),
        # six Replication Manager voters (server and client replicas)
        # and six gateway forwarders (three per direction), one source
        # group each; a forwarder's filter holds its voter's key
        (two_ring_cluster, {"records": 12, "keys": 6}),
    ],
    ids=["figure7_ring", "two_ring_cluster"],
)
def test_retained_state_does_not_grow_with_the_run(build, bound):
    short = retained_operations(build(N)[0])
    long = retained_operations(build(3 * N)[0])
    assert short == long
    assert short["pending"] == 0
    assert short["records"] <= bound["records"] and short["keys"] <= bound["keys"]


def test_an_unvoted_ring_suppresses_as_before_and_forgets():
    """Case 2 (active replication, no voting) runs through the filters."""
    case = SurvivabilityCase.ACTIVE_REPLICATION
    counts = []
    for count in (N, 3 * N):
        immune, _server = counter_ring(count, case)
        suppressed = sum(m.stats["duplicates_suppressed"] for m in immune.managers.values())
        # each replica's copy past the first, on both legs
        assert suppressed == 2 * 3 * 2 * count
        counts.append(retained_operations(immune))
    assert counts[0] == counts[1]
    # one key per (filter, source group): three server and three client replicas
    assert counts[0]["keys"] == 6 and counts[0]["records"] == 0


def test_the_unvoted_count_matches_a_filter_that_never_forgets(monkeypatch):
    case = SurvivabilityCase.ACTIVE_REPLICATION
    forgetting, _ = counter_ring(N, case)
    never_retire(monkeypatch)
    holding, _ = counter_ring(N, case)
    for pid, manager in forgetting.managers.items():
        assert manager.stats == holding.managers[pid].stats
    assert retained_operations(holding)["keys"] == 6 * N


def test_a_passive_group_forgets_invocations_and_holds_primary_responses():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7)
    immune = ImmuneSystem(6, config=config)
    server = immune.deploy_passive(
        "counter", COUNTER_IDL, lambda pid: CounterServant(), [0, 1, 2]
    )
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    replies = []
    for k in range(N):
        for _pid, stub in immune.client_stubs(client, COUNTER_IDL, server):
            immune.scheduler.at(0.05 + SPACING * k, add_one, stub, k, replies.append)
    immune.run(until=0.05 + SPACING * N + 0.5)
    assert len(replies) == 3 * N
    keys = {pid: len(immune.managers[pid].dup_filter_for(name))
            for pid, name in [(0, "counter"), (1, "counter"), (2, "counter"),
                              (3, "driver"), (4, "driver"), (5, "driver")]}
    # the server replicas heard every client replica; a primary answers alone
    assert keys == {0: 1, 1: 1, 2: 1, 3: N, 4: N, 5: N}


def _run(drill, path):
    perf.clear_caches()
    fingerprint = drill(str(path))
    return path.read_bytes(), json.dumps(fingerprint, sort_keys=True)


@pytest.mark.parametrize("drill", [figure7_case4_drill, batch_intrusion_drill])
def test_retirement_is_invisible_to_the_exports(drill, tmp_path, monkeypatch):
    retired = []
    complete = Hearings._complete

    def counting(self, op_key, source_group):
        keys = complete(self, op_key, source_group)
        retired.extend(keys)
        return keys

    with monkeypatch.context() as patch:
        patch.setattr(Hearings, "_complete", counting)
        forgetting = _run(drill, tmp_path / "forgetting.jsonl")
    assert len(retired) > 20  # the comparison below has something to see
    never_retire(monkeypatch)
    holding = _run(drill, tmp_path / "holding.jsonl")
    assert forgetting[0].count(b"\n") > 100
    assert forgetting == holding
