"""Unit tests of the voted link, driven at both hops from one body.

The forwarder (:mod:`repro.cluster.gateway`) is fed totally-ordered
deliveries by hand — no ring is started, so nothing but the link runs —
once per level: the chassis hop of a two-ring cluster and the WAN hop of
a two-site federation.  Copies re-originated on the destination ring are
captured at the gateway hosts' endpoints.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterManager
from repro.core.identifiers import (
    BASE_GROUP,
    ImmuneMessage,
    KIND_INVOCATION,
    KIND_RESPONSE,
    KIND_STATE_TRANSFER,
)
from repro.multicast.membership import STATE_HALTED
from repro.obs import Observability
from repro.obs.forensics import ForensicsHub
from repro.orb.idl import InterfaceDef, OperationDef
from repro.sim.faults import FaultPlan
from repro.wan import WanConfig, WanManager

PING_IDL = InterfaceDef("Ping", [OperationDef("ping", [], result="long")])
LATENCY = 0.030
PARTITION = (1.0, 2.0)


class Level:
    """One federation level with a client group ``src`` under child
    ``a`` and a server group ``dst`` under child ``b``."""

    def __init__(self, name):
        self.obs = Observability(forensics=ForensicsHub())
        if name == "chassis":
            self.a, self.b = 0, 1
            self.manager = ClusterManager(ClusterConfig(num_rings=2, seed=1), obs=self.obs)
            where = lambda key: {"ring": key}
        else:
            self.a, self.b = "alpha", "beta"
            plan = FaultPlan().schedule_partition("alpha", "beta", *PARTITION)
            self.manager = WanManager(
                WanConfig(sites=(self.a, self.b), seed=1, latency=LATENCY),
                obs=self.obs,
                fault_plan=plan,
            )
            where = lambda key: {"site": key}
        self.corrupt = self.manager.corrupt_gateway
        self.scheduler = self.manager.scheduler
        self.src = self.manager.deploy_client("src", **where(self.a)).replica_procs
        self.dst = self.manager.deploy(
            "dst", PING_IDL, lambda pid: object(), **where(self.b)
        ).replica_procs
        (self.link,) = self.manager.links.values()
        self.hop = self.link.hop
        #: (re-originating pid, group, decoded message) per landed copy
        self.sent = []
        for end in (self.link.a, self.link.b):
            for pid in end.pids:
                end.immune.endpoints[pid].multicast = (
                    lambda group, payload, pid=pid: self.sent.append(
                        (pid, group, ImmuneMessage.decode(payload))
                    )
                )

    def request(self, sender, body=b"ping", op=1, claimed=None, target="dst", dest=None):
        """Deliver one invocation copy from ``sender`` to every replica's
        a->b forwarder, as ring a's total order would."""
        payload = ImmuneMessage(
            KIND_INVOCATION, "src", op, sender if claimed is None else claimed, target, body
        ).encode()
        for replica in self.link.replicas:
            replica.forward_ab._on_deliver(sender, 0, dest or target, payload)

    def reply(self, sender, body=b"pong", op=1):
        payload = ImmuneMessage(KIND_RESPONSE, "dst", op, sender, "src", body).encode()
        for replica in self.link.replicas:
            replica.forward_ba._on_deliver(sender, 0, "src", payload)

    def settle(self):
        """Let every frame in flight land (a no-op on the chassis)."""
        self.scheduler.run(until=self.scheduler.now + 2 * LATENCY)

    def stats(self, key, direction="forward_ab"):
        return [getattr(r, direction).stats[key] for r in self.link.replicas]


@pytest.fixture(params=["chassis", "wan"])
def level(request):
    return Level(request.param)


def test_forwards_once_on_the_majority_copy_and_never_on_the_first(level):
    first, second, third = level.src
    level.request(first)
    level.settle()
    assert level.sent == [] and level.stats("forwarded") == [0, 0, 0]

    level.request(second)
    level.settle()
    assert level.stats("forwarded") == [1, 1, 1]
    assert [pid for pid, _group, _m in level.sent] == [r.pid_b for r in level.link.replicas]
    for pid, group, message in level.sent:
        # the winner, re-originated under the gateway's destination pid
        assert group == "dst" and message.replica_proc == pid
        assert (message.kind, message.source_group, message.op_num, message.target_group) == (
            KIND_INVOCATION, "src", 1, "dst"
        )
        assert message.body == b"ping"


def test_late_identical_copies_are_never_forwarded_again(level):
    first, second, third = level.src
    for sender in (first, second, third, first):  # the third and a replay
        level.request(sender)
    level.settle()
    assert level.stats("forwarded") == [1, 1, 1] and len(level.sent) == 3
    # The voter absorbs them as late duplicates before the filter is
    # asked; ``suppressed`` counts only what the filter itself stops.
    assert level.stats("suppressed") == [0, 0, 0]
    for replica in level.link.replicas:
        assert replica.forward_ab._voters["dst"].stats["late_duplicates"] == 2


def test_the_duplicate_filter_backstops_a_second_decision(level):
    op_key = (KIND_INVOCATION, "src", "dst", 1)
    for replica in level.link.replicas:
        assert replica.forward_ab.dup_filter.mark_delivered(op_key)
    for sender in level.src[:2]:
        level.request(sender)
    level.settle()
    assert level.stats("suppressed") == [1, 1, 1]
    assert level.sent == [] and level.stats("forwarded") == [0, 0, 0]


def test_masquerades_and_base_group_traffic_are_not_voted(level):
    first, second, third = level.src
    for sender in level.src:
        level.request(sender, claimed=first if sender != first else second)
        level.request(sender, target="elsewhere", dest="dst")
        level.request(sender, target=BASE_GROUP)
    level.settle()
    assert level.sent == []
    for replica in level.link.replicas:
        assert replica.forward_ab._voters == {}
    # a well-formed frame of a kind that never crosses is counted
    payload = ImmuneMessage(KIND_STATE_TRANSFER, "src", 1, first, "dst", b"").encode()
    level.link.replicas[0].forward_ab._on_deliver(first, 0, "dst", payload)
    assert level.stats("ignored") == [1, 0, 0]


@pytest.mark.parametrize("dead", ["source host", "destination host", "destination endpoint"])
def test_a_dead_gateway_forwards_nothing_while_its_peers_carry_on(level, dead):
    victim = level.link.replicas[0]
    if dead == "source host":
        level.link.a.immune.processors[victim.pid_a].crash()
    elif dead == "destination host":
        level.link.b.immune.processors[victim.pid_b].crash()
    else:
        level.link.b.immune.endpoints[victim.pid_b].membership.state = STATE_HALTED
    for sender in level.src:
        level.request(sender)
    level.settle()
    assert level.stats("forwarded") == [0, 1, 1]
    assert [pid for pid, _group, _m in level.sent] == [r.pid_b for r in level.link.replicas[1:]]


def test_directed_corruption_corrupts_one_direction_only(level):
    replica = level.corrupt(level.a, level.b, index=1, direction=level.a)
    assert replica is level.link.replicas[1]
    assert replica.forward_ab.corrupt and not replica.forward_ba.corrupt
    assert not replica.corrupt
    # ground truth names the pid the destination ring can convict
    (fault,) = level.obs.forensics.ground_truth()
    assert (fault.kind, fault.culprit) == ("value_fault", replica.pid_b)

    for sender in level.src[:2]:
        level.request(sender)
    for sender in level.dst[:2]:
        level.reply(sender)
    level.settle()
    bodies = {(pid, message.body) for pid, _group, message in level.sent}
    forged = level.hop.corrupted(b"ping", 1)
    assert forged != b"ping"
    assert bodies == {
        (r.pid_b, forged if r is replica else b"ping") for r in level.link.replicas
    } | {(r.pid_a, b"pong") for r in level.link.replicas}


def test_a_chassis_forward_costs_no_scheduler_event():
    level = Level("chassis")
    before, pending = level.scheduler.events_executed, level.scheduler.pending()
    for sender in level.src:
        level.request(sender)
    assert level.stats("forwarded") == [1, 1, 1]  # landed in the same call
    assert level.scheduler.events_executed == before
    assert level.scheduler.pending() == pending
    assert "dropped" not in level.link.replicas[0].forward_ab.stats


def test_a_wan_partition_drops_at_send_time_but_not_in_flight():
    level = Level("wan")
    start, _heal = PARTITION
    level.scheduler.run(until=start - LATENCY / 2)
    for sender in level.src[:2]:
        level.request(sender, op=1)
    # sent before the cut, still in the air: counted only at landing
    assert level.stats("forwarded") == [0, 0, 0] and level.sent == []
    level.scheduler.run(until=start + LATENCY)
    assert level.stats("forwarded") == [1, 1, 1] and len(level.sent) == 3

    for sender in level.src[:2]:
        level.request(sender, op=2)  # sent inside the window
    level.settle()
    assert level.stats("dropped") == [1, 1, 1]
    assert level.stats("forwarded") == [1, 1, 1] and len(level.sent) == 3
    drops = [
        event
        for recorder in level.obs.forensics.recorders()
        for event in recorder.events
        if event.etype == "wan_drop"
    ]
    assert len(drops) == 3
    for event in drops:
        assert event.get("partitioned") is True
        assert (event.get("from_site"), event.get("to_site")) == ("alpha", "beta")
        assert event.get("op_num") == 2
