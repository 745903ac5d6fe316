"""Integration tests: the Immune system across processor failures.

These exercise the whole stack's recovery story with *two-way*
invocations in flight: voting thresholds shrink when an excluded
processor's replicas are dropped, pending votes are re-evaluated, and
the service answers throughout.
"""

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.groups import UPDATE_REMOVE, GroupUpdate
from repro.core.identifiers import BASE_GROUP, KIND_GROUP_UPDATE, ImmuneMessage
from repro.core.immune import ImmuneSystem
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan

STORE_IDL = InterfaceDef(
    "Store",
    [
        OperationDef(
            "put",
            [ParamDef("key", "string"), ParamDef("value", "string")],
            result="boolean",
        ),
        OperationDef("get", [ParamDef("key", "string")], result="string"),
        OperationDef("count", [], result="long"),
    ],
)


class StoreServant:
    def __init__(self):
        self.data = {}

    def put(self, key, value):
        self.data[key] = value
        return True

    def get(self, key):
        return self.data.get(key, "")

    def count(self):
        return len(self.data)


def build(fault_plan=None, seed=23, num=6):
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed)
    immune = ImmuneSystem(num_processors=num, config=config, fault_plan=fault_plan)
    store = immune.deploy("store", STORE_IDL, lambda pid: StoreServant(), [0, 1, 2])
    client = immune.deploy_client("shopper", [3, 4, 5])
    immune.start()
    return immune, store, client


def test_server_crash_mid_stream_service_continues():
    plan = FaultPlan().schedule_crash(1, 1.0)
    immune, store, client = build(fault_plan=plan)
    stubs = immune.client_stubs(client, STORE_IDL, store)
    replies = {pid: [] for pid, _ in stubs}

    def put_all(key, value):
        for pid, stub in stubs:
            if not immune.processors[pid].crashed:
                stub.put(key, value, reply_to=replies[pid].append)

    immune.scheduler.at(0.3, put_all, "before", "crash")
    immune.scheduler.at(4.0, put_all, "after", "crash")
    immune.run(until=7.0)
    # Both puts answered at every client replica, before and after.
    for got in replies.values():
        assert got == [True, True]
    assert immune.group_members("store") == (0, 2)
    for pid in (0, 2):
        assert store.servants[pid].data == {"before": "crash", "after": "crash"}


def test_client_crash_mid_stream_votes_still_complete():
    # A client replica's processor dies: input voting must still reach
    # majority from the surviving client replicas.
    plan = FaultPlan().schedule_crash(4, 1.0)
    immune, store, client = build(fault_plan=plan)
    stubs = immune.client_stubs(client, STORE_IDL, store)
    replies = {pid: [] for pid, _ in stubs}

    def put_all(key):
        for pid, stub in stubs:
            if not immune.processors[pid].crashed:
                stub.put(key, "v", reply_to=replies[pid].append)

    immune.scheduler.at(0.3, put_all, "k1")
    immune.scheduler.at(4.0, put_all, "k2")
    immune.run(until=7.0)
    assert immune.group_members("shopper") == (3, 5)
    for pid in (3, 5):
        assert replies[pid] == [True, True]
    for pid in (0, 1, 2):
        assert store.servants[pid].count() == 2


def test_in_flight_vote_unblocks_when_degree_shrinks():
    # The client replica on P4 is silenced (send omission) *and* its
    # processor later crashes.  A 2-of-3 vote on an invocation issued
    # while it was only silent still completes; after the crash the
    # group degree drops to 2 and subsequent votes need 2-of-2.
    from repro.core.replica import SendOmissionTap

    plan = FaultPlan().schedule_crash(4, 2.0)
    immune, store, client = build(fault_plan=plan)
    SendOmissionTap(immune.managers[4], from_time=0.0)
    stubs = immune.client_stubs(client, STORE_IDL, store)
    replies = []

    def put_all(key):
        for pid, stub in stubs:
            if not immune.processors[pid].crashed:
                stub.put(key, "v", reply_to=replies.append)

    immune.scheduler.at(0.3, put_all, "while-silent")
    immune.scheduler.at(5.0, put_all, "after-crash")
    immune.run(until=8.0)
    for pid in (0, 1, 2):
        assert set(store.servants[pid].data) == {"while-silent", "after-crash"}


def test_reads_after_recovery_are_consistent():
    plan = FaultPlan().schedule_crash(2, 1.5)
    immune, store, client = build(fault_plan=plan)
    stubs = immune.client_stubs(client, STORE_IDL, store)
    got = {pid: [] for pid, _ in stubs}

    def seed_data():
        for pid, stub in stubs:
            stub.put("city", "santa barbara", reply_to=lambda _: None)

    def read_back():
        for pid, stub in stubs:
            if not immune.processors[pid].crashed:
                stub.get("city", reply_to=got[pid].append)

    immune.scheduler.at(0.3, seed_data)
    immune.scheduler.at(5.0, read_back)
    immune.run(until=8.0)
    for pid, values in got.items():
        assert values == ["santa barbara"], "client on P%d got %r" % (pid, values)


def _announce(immune, pid, action, group_name, proc_id):
    """Processor ``pid`` multicasts a group update to the base group."""
    update = GroupUpdate(action, group_name, proc_id).encode()
    message = ImmuneMessage(KIND_GROUP_UPDATE, group_name, 0, pid, BASE_GROUP, update)
    immune.managers[pid].endpoint.multicast(BASE_GROUP, message.encode())


def test_a_group_update_with_an_unknown_action_is_dropped():
    """It used to decode, and ``ObjectGroupTable.apply`` raised out of
    every Replication Manager's delivery."""
    immune, _store, _client = build()
    immune.scheduler.at(0.5, _announce, immune, 5, 3, "store", 5)
    immune.run(until=1.5)
    for manager in immune.managers.values():
        assert manager.groups.members("store") == (0, 1, 2)


def test_a_member_cannot_remove_another_processors_replicas():
    """P5 hosts no ``store`` replica; removing P0's and P1's would leave
    one replica deciding every vote."""
    immune, _store, _client = build()
    immune.scheduler.at(0.5, _announce, immune, 5, UPDATE_REMOVE, "store", 0)
    immune.scheduler.at(0.5, _announce, immune, 5, UPDATE_REMOVE, "store", 1)
    immune.run(until=1.5)
    for manager in immune.managers.values():
        assert manager.groups.members("store") == (0, 1, 2)
        assert manager.stats["group_updates_refused"] == 2
