"""White-box unit tests for the Replication Manager's plumbing.

A minimal two-processor world isolates the manager's own logic:
identifier assignment, normalisation, reply correlation, spoof
rejection, and base-group handling.
"""

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.identifiers import (
    BASE_GROUP,
    ImmuneMessage,
    KIND_INVOCATION,
    KIND_RESPONSE,
    KIND_VALUE_FAULT_VOTE,
)
from repro.core.immune import ImmuneSystem
from repro.core.value_fault import ValueFaultVote
from repro.orb.giop import RequestMessage, decode_message
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef

PING_IDL = InterfaceDef(
    "Ping",
    [
        OperationDef("ping", [ParamDef("n", "long")], result="long"),
        OperationDef("poke", [ParamDef("n", "long")], oneway=True),
    ],
)


class PingServant:
    def ping(self, n):
        return n + 1

    def poke(self, n):
        pass


@pytest.fixture
def world():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=19)
    immune = ImmuneSystem(num_processors=4, config=config)
    server = immune.deploy("ping", PING_IDL, lambda pid: PingServant(), [0, 1])
    client = immune.deploy_client("caller", [2, 3])
    immune.start()
    return immune, server, client


def captured_multicasts(immune, pid):
    """Tap endpoint.multicast on processor pid; returns the capture list."""
    captured = []
    endpoint = immune.endpoints[pid]
    original = endpoint.multicast

    def spy(dest_group, payload):
        captured.append((dest_group, ImmuneMessage.decode(payload)))
        original(dest_group, payload)

    endpoint.multicast = spy
    return captured


def test_operation_numbers_increase_per_source_group(world):
    immune, server, client = world
    captured = captured_multicasts(immune, 2)
    stubs = dict(immune.client_stubs(client, PING_IDL, server))
    stubs[2].poke(1)
    stubs[2].poke(2)
    stubs[2].ping(3, reply_to=lambda _r: None)
    immune.run(until=1.0)
    invocations = [m for g, m in captured if m.kind == KIND_INVOCATION]
    assert [m.op_num for m in invocations] == [0, 1, 2]
    assert all(m.source_group == "caller" for m in invocations)
    assert all(m.target_group == "ping" for m in invocations)


def test_giop_request_id_is_normalised_to_op_num(world):
    immune, server, client = world
    captured = captured_multicasts(immune, 2)
    stubs = dict(immune.client_stubs(client, PING_IDL, server))
    # Burn some local GIOP request ids so they diverge from op numbers.
    orb = immune.orbs[2]
    for _ in range(5):
        orb._next_request_id += 1
    stubs[2].ping(7, reply_to=lambda _r: None)
    immune.run(until=1.0)
    (invocation,) = [m for g, m in captured if m.kind == KIND_INVOCATION]
    inner = decode_message(invocation.body)
    assert isinstance(inner, RequestMessage)
    assert inner.request_id == invocation.op_num == 0


def test_reply_correlated_back_to_original_request_id(world):
    immune, server, client = world
    stubs = dict(immune.client_stubs(client, PING_IDL, server))
    orb = immune.orbs[2]
    orb._next_request_id = 42  # client replica's local id space differs
    results = []
    stubs[2].ping(1, reply_to=results.append)
    stubs[3].ping(1, reply_to=lambda _r: None)
    immune.run(until=2.0)
    assert results == [2]
    assert orb.stats["replies_matched"] == 1


def test_a_held_two_way_is_pending_from_its_release_to_its_voted_reply(world):
    immune, server, client = world
    stubs = dict(immune.client_stubs(client, PING_IDL, server))
    callers = [immune.managers[pid] for pid in client.replica_procs]
    for manager in callers:
        manager.hold_group("ping")
    results = []
    stubs[2].ping(1, reply_to=results.append)
    stubs[3].ping(1, reply_to=lambda _r: None)
    immune.run(until=0.5)
    manager = immune.managers[2]
    # parked frames are not in flight: a drain does not wait on them
    assert (manager.held_for("ping"), manager.pending_to("ping")) == (1, 0)
    for each in callers:
        each.release_group("ping")
    assert (manager.held_for("ping"), manager.pending_to("ping")) == (0, 1)
    immune.run(until=2.0)
    assert manager.pending_to("ping") == 0
    assert results == [2]


def test_spoofed_replica_proc_is_dropped(world):
    immune, server, client = world
    manager = immune.managers[0]
    before = manager.stats["delivered_to_orb"]
    # Claim to be processor 3 while actually delivered from sender 2.
    spoof = ImmuneMessage(KIND_INVOCATION, "caller", 99, 3, "ping", b"junk")
    manager._on_deliver(2, 1, "ping", spoof.encode())
    assert manager.stats["delivered_to_orb"] == before


def test_mismatched_target_group_is_dropped(world):
    immune, server, client = world
    manager = immune.managers[0]
    message = ImmuneMessage(KIND_INVOCATION, "caller", 99, 2, "other-group", b"junk")
    before = manager.stats["delivered_to_orb"]
    manager._on_deliver(2, 1, "ping", message.encode())
    assert manager.stats["delivered_to_orb"] == before


def test_unhosted_group_is_filtered(world):
    immune, server, client = world
    manager = immune.managers[3]  # hosts only the client group
    message = ImmuneMessage(KIND_INVOCATION, "caller", 0, 2, "ping", b"junk")
    before = manager.stats["delivered_to_orb"]
    manager._on_deliver(2, 1, "ping", message.encode())
    assert manager.stats["delivered_to_orb"] == before


def test_value_fault_votes_are_deduplicated(world):
    immune, server, client = world
    manager = immune.managers[3]
    vote = ValueFaultVote(0, "caller", 5, "ping", [(2, b"a"), (3, b"b"), (2, b"a")])
    wrapped_a = ImmuneMessage(
        KIND_VALUE_FAULT_VOTE, "caller", 5, 0, BASE_GROUP, vote.encode()
    )
    wrapped_b = ImmuneMessage(
        KIND_VALUE_FAULT_VOTE, "caller", 5, 1, BASE_GROUP,
        ValueFaultVote(1, "caller", 5, "ping", vote.entries).encode(),
    )
    manager._on_deliver(0, 1, BASE_GROUP, wrapped_a.encode())
    manager._on_deliver(1, 2, BASE_GROUP, wrapped_b.encode())
    assert manager._vfd.stats["votes"] == 1
    assert manager._vfd.stats["duplicates"] == 1


def test_outgoing_requires_source_attribution(world):
    immune, server, client = world
    from repro.core.manager import ReplicationError

    manager = immune.managers[2]
    frame = RequestMessage(0, b"ping", "poke", b"", response_expected=False).encode()
    with pytest.raises(ReplicationError):
        manager.outgoing_iiop(server.reference, frame, None)


def test_garbage_outgoing_frame_ignored(world):
    immune, server, client = world
    manager = immune.managers[2]
    before = manager.stats["invocations_sent"]
    manager.outgoing_iiop(server.reference, b"not a giop frame", b"caller")
    assert manager.stats["invocations_sent"] == before
