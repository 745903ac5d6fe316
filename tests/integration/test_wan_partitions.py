"""Partition edge cases on the WAN federation (satellite drills).

Partitions are decided at *send* time on the site-gateway forwarders:
cutting a cable does not recall packets already in flight, and healing
does not resurrect packets dropped while it was cut.  These tests pin
the three awkward corners of that model — a partition in place before
the federation's first token rotation, a heal landing in the middle of
an invocation's round trip, and a site that is partitioned *and*
Byzantine at the same time — and assert the invariants that must hold
in every one of them: delivered operations execute exactly once and
the geo-bank's money is conserved.
"""

from repro.obs import Observability
from repro.obs.forensics import ForensicsHub
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan
from repro.wan import WanConfig, WanManager
from repro.workloads.bank import GeoBank

COUNTER_IDL = InterfaceDef(
    "Counter",
    [OperationDef("add", [ParamDef("n", "long")], result="long")],
)


class CountingServant:
    def __init__(self):
        self.calls = 0
        self.total = 0

    def add(self, n):
        self.calls += 1
        self.total += n
        return self.total


def _federation(plan, latency=0.020, seed=3):
    config = WanConfig(sites=("alpha", "beta"), seed=seed, latency=latency)
    wan = WanManager(
        config=config,
        obs=Observability(forensics=ForensicsHub()),
        fault_plan=plan,
    )
    server = wan.deploy(
        "counter", COUNTER_IDL, lambda pid: CountingServant(), site="alpha"
    )
    client = wan.deploy_client("driver", site="beta")
    stubs = wan.client_stubs(client, COUNTER_IDL, server)
    replies = []

    def fire_at(at, tag):
        def fire():
            for _pid, stub in stubs:
                stub.add(1, reply_to=lambda value, tag=tag: replies.append((tag, value)))

        wan.scheduler.at(at, fire, label="test.fire")

    return wan, server, client, replies, fire_at


def test_partition_before_first_token_rotation():
    """A link partitioned from t=0 — before any backbone token has
    rotated — drops the first cross-site invocation cleanly; after the
    heal the next one executes exactly once."""
    plan = FaultPlan()
    plan.schedule_partition("alpha", "beta", start=0.0, heal=0.6)
    wan, server, client, replies, fire_at = _federation(plan)
    fire_at(0.2, "during")   # request copies dropped at send
    fire_at(0.9, "after")    # post-heal: full round trip
    wan.start()
    wan.run(until=3.0)

    assert all(s.calls == 1 for s in server.servants.values())
    tags = {tag for tag, _value in replies}
    assert tags == {"after"}
    assert len(replies) == len(client.replica_procs)
    # the drop is recorded as partition-caused on the request direction
    drops = sum(
        r.forward_ba.stats["dropped"]
        for link in wan.links.values()
        for r in link.replicas
    )
    assert drops >= 3  # one request copy per site-gateway replica


def test_heal_mid_invocation_keeps_exactly_once():
    """The partition begins after the request is sent but before the
    reply is: the request lands (send-time semantics), the server
    executes exactly once, the reply dies on the cut link, and healing
    does not resurrect it — re-issuing is the client's job, and the
    re-issued operation also executes exactly once."""
    plan = FaultPlan()
    plan.schedule_partition("alpha", "beta", start=0.6, heal=1.2)
    # 200 ms one-way flight: wide margins around the cut
    wan, server, client, replies, fire_at = _federation(plan, latency=0.2)
    fire_at(0.5, "split")    # request sent ~0.51 < 0.6; reply sent ~0.73: dropped
    fire_at(1.5, "after")    # post-heal round trip
    wan.start()
    wan.run(until=4.0)

    # the split invocation executed exactly once despite its lost reply
    assert all(s.calls == 2 for s in server.servants.values())
    by_tag = {}
    for tag, value in replies:
        by_tag.setdefault(tag, []).append(value)
    assert "split" not in by_tag
    assert sorted(by_tag["after"]) == [2] * len(client.replica_procs)
    # replies died on the return path, at every gateway replica
    reply_drops = sum(
        r.forward_ab.stats["dropped"]
        for link in wan.links.values()
        for r in link.replicas
    )
    assert reply_drops >= 3


def test_partitioned_and_byzantine_site_conserves_money():
    """A site that is compromised *and* partitioned: the partition
    isolates gamma entirely, the compromise corrupts whatever its
    gateways send in the windows the partition allows.  Either way no
    rogue operation reaches the surviving sites' state, honest
    alpha-beta traffic is untouched, and the bank stays conserved."""
    plan = FaultPlan()
    plan.schedule_partition("gamma", start=1.2, heal=2.0)
    obs = Observability(forensics=ForensicsHub())
    config = WanConfig(sites=("alpha", "beta", "gamma"), seed=11, latency=0.010)
    wan = WanManager(config=config, obs=obs, fault_plan=plan)
    bank = GeoBank(
        wan,
        branches=["north", "south", "east"],
        branch_homes={"north": "alpha", "south": "beta", "east": "gamma"},
        teller_home="alpha",
    )
    rogue, rogue_stubs = bank.add_teller("bank.rogue", "gamma")

    # honest pre-fault traffic, including to the doomed site
    bank.schedule_transfer(0.2, "north", 1, "south", 1, 10)
    bank.schedule_transfer(0.5, "east", 1, "north", 1, 7, stubs=rogue_stubs)
    # gamma turns Byzantine, then is partitioned from everyone
    wan.compromise_site("gamma", at_time=1.0)
    # rogue attacks while compromised-but-connected (corrupted copies,
    # no majority), while partitioned (dropped at send), and after the
    # heal while still compromised (corrupted again)
    bank.schedule_transfer(1.1, "north", 2, "south", 2, 50, stubs=rogue_stubs)
    bank.schedule_transfer(1.5, "north", 1, "south", 1, 60, stubs=rogue_stubs)
    bank.schedule_transfer(2.3, "south", 1, "north", 1, 70, stubs=rogue_stubs)
    # honest alpha-beta traffic throughout
    bank.schedule_transfer(1.6, "north", 2, "south", 2, 3)
    bank.schedule_transfer(2.6, "south", 2, "north", 2, 4)
    wan.start()
    wan.run(until=5.0)

    assert bank.conserved()
    assert bank.replicas_agree()
    assert not bank.failed
    labels = {}
    for label, _value in bank.replies:
        labels[label] = labels.get(label, 0) + 1
    degree = config.replication_degree
    # honest ops: exactly one reply per teller replica, every time
    for honest in (
        "transfer:north#1->south#1:10@0.2",
        "transfer:east#1->north#1:7@0.5",
        "transfer:north#2->south#2:3@1.6",
        "transfer:south#2->north#2:4@2.6",
    ):
        assert labels[honest + ":w"] == degree
        assert labels[honest + ":d"] == degree
    # every rogue attack died before touching surviving state
    for rogue_op in (
        "transfer:north#2->south#2:50@1.1",
        "transfer:north#1->south#1:60@1.5",
        "transfer:south#1->north#1:70@2.3",
    ):
        assert rogue_op + ":w" not in labels
        assert rogue_op + ":d" not in labels
