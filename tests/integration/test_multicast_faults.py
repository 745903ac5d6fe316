"""Integration tests: the multicast stack under injected faults."""

import pytest

from repro.bench.properties import (
    delivery_violations,
    detector_violations,
    membership_violations,
)
from repro.multicast.adversary import (
    MalformedTokenBehaviour,
    MasqueradeBehaviour,
    MutantTokenBehaviour,
    ReceiveOmissionBehaviour,
    SilentBehaviour,
)
from repro.multicast.config import SecurityLevel
from repro.multicast.messages import MULTICAST_PORT
from repro.sim.faults import FaultPlan, LinkFaults
from tests.support import MulticastWorld


def pump_messages(world, count=10, spacing=0.05, start=0.1, sender=0):
    for i in range(count):
        world.scheduler.at(
            start + i * spacing,
            world.endpoints[sender].multicast,
            "g",
            b"m%02d" % i,
        )
    return [b"m%02d" % i for i in range(count)]


def test_message_loss_repaired_by_retransmission():
    plan = FaultPlan(default=LinkFaults(loss_prob=0.2), active_until=1.0)
    world = MulticastWorld(num=4, fault_plan=plan, seed=5).start()
    expected = pump_messages(world)
    world.run(until=5.0)
    for pid in range(4):
        assert world.delivered_payloads(pid) == expected
    assert delivery_violations(world.trace, set(range(4))) == []


def test_message_corruption_detected_by_digests():
    plan = FaultPlan(default=LinkFaults(corrupt_prob=0.2), active_until=1.0)
    world = MulticastWorld(num=4, fault_plan=plan, seed=6).start()
    expected = pump_messages(world)
    world.run(until=5.0)
    assert world.network.stats["corrupted"] > 0
    for pid in range(4):
        assert world.delivered_payloads(pid) == expected
    assert delivery_violations(world.trace, set(range(4))) == []


@pytest.mark.parametrize("security", [SecurityLevel.SIGNATURES, SecurityLevel.DIGESTS])
def test_padding_flipped_in_transit_convicts_nobody(security):
    """Every receiver is re-sent the newest token with one bit of the
    CDR padding after its type octet flipped: same fields, same valid
    signature, other bytes.  That is line noise, not equivocation — no
    correct holder may be suspected, let alone excluded (Table 5)."""
    world = MulticastWorld(num=4, security=security, seed=9).start()
    expected = pump_messages(world, count=6)

    def resend_with_flipped_padding():
        delivery = world.endpoints[0].delivery
        holder = delivery._last_accepted.sender_id
        bad = bytearray(delivery._last_accepted_raw)
        bad[1] ^= 1
        for pid in world.endpoints:
            if pid != holder:
                world.network.unicast(holder, pid, MULTICAST_PORT, bytes(bad))

    for at in (0.2, 0.25, 0.3):
        world.scheduler.at(at, resend_with_flipped_padding)
    world.run(until=3.0)
    for pid, endpoint in world.endpoints.items():
        assert endpoint.detector.suspects() == set()
        assert endpoint.members == (0, 1, 2, 3)
        assert world.memberships[pid] == world.memberships[0]
        assert world.delivered_payloads(pid) == expected
    assert detector_violations(world.trace, set(range(4)), faulty=set()) == []


def test_processor_crash_is_excluded_and_ring_continues():
    plan = FaultPlan().schedule_crash(2, 0.5)
    world = MulticastWorld(num=4, fault_plan=plan, seed=7).start()
    pump_messages(world, count=4, start=0.1, spacing=0.05)
    extra = [b"post-%d" % i for i in range(3)]
    for i, payload in enumerate(extra):
        world.scheduler.at(3.0 + 0.05 * i, world.endpoints[1].multicast, "g", payload)
    world.run(until=8.0)
    correct = {0, 1, 3}
    for pid in correct:
        assert world.endpoints[pid].members == (0, 1, 3)
        assert world.delivered_payloads(pid)[-3:] == extra
    assert membership_violations(world.trace, correct, faulty={2}) == []
    assert detector_violations(world.trace, correct, faulty={2}) == []


def test_fail_to_send_is_suspected_and_excluded():
    world = MulticastWorld(num=4, seed=8).start()
    SilentBehaviour(at_time=0.4).compromise(world.endpoints[3])
    pump_messages(world, count=4)
    world.run(until=8.0)
    correct = {0, 1, 2}
    for pid in correct:
        assert 3 not in world.endpoints[pid].members
        assert world.endpoints[pid].detector.reasons_for(3), "P3 must stay suspected"
    # At least one correct processor observed the fail-to-send directly.
    assert any(
        "fail_to_send" in world.endpoints[pid].detector.reasons_for(3)
        for pid in correct
    )
    assert membership_violations(world.trace, correct, faulty={3}) == []


def test_receive_omission_is_suspected_via_aru_stall():
    world = MulticastWorld(num=4, seed=9).start()
    ReceiveOmissionBehaviour(at_time=0.2).compromise(world.endpoints[1])
    pump_messages(world, count=6, start=0.3)
    world.run(until=10.0)
    correct = {0, 2, 3}
    for pid in correct:
        assert 1 not in world.endpoints[pid].members
    assert detector_violations(world.trace, correct, faulty={1}) == []


def test_mutant_tokens_provably_convict_the_equivocator():
    world = MulticastWorld(num=4, seed=10).start()
    behaviour = MutantTokenBehaviour(at_time=0.4).compromise(world.endpoints[2])
    pump_messages(world, count=4)
    world.run(until=8.0)
    behaviour.restore()
    correct = {0, 1, 3}
    convicted_by = [
        pid
        for pid in correct
        if "mutant_token" in world.endpoints[pid].detector.reasons_for(2)
    ]
    assert convicted_by, "no correct processor convicted the equivocator"
    for pid in correct:
        assert 2 not in world.endpoints[pid].members
    assert membership_violations(world.trace, correct, faulty={2}) == []
    assert delivery_violations(world.trace, correct) == []


def test_masqueraded_message_is_never_delivered():
    world = MulticastWorld(num=4, seed=11).start()
    MasqueradeBehaviour(
        victim_id=0, dest_group="g", payload=b"FORGED", at_time=0.3
    ).compromise(world.endpoints[3])
    expected = pump_messages(world, count=5)
    world.run(until=5.0)
    for pid in range(4):
        assert b"FORGED" not in world.delivered_payloads(pid)
        assert world.delivered_payloads(pid) == expected


def test_masquerade_succeeds_without_digests():
    # Sanity check of the threat model: at security level NONE the
    # forged message *is* delivered — the protection really does come
    # from the digests in the signed token.
    world = MulticastWorld(num=4, security=SecurityLevel.NONE, seed=11).start()
    MasqueradeBehaviour(
        victim_id=0, dest_group="g", payload=b"FORGED", at_time=5.0
    ).compromise(world.endpoints[3])
    world.scheduler.at(5.2, world.endpoints[0].multicast, "g", b"real")
    world.run(until=7.0)
    assert b"FORGED" in world.delivered_payloads(1)


def test_malformed_token_suspected_by_form_check():
    world = MulticastWorld(num=4, seed=12).start()
    MalformedTokenBehaviour(at_time=0.4).compromise(world.endpoints[1])
    pump_messages(world, count=3)
    world.run(until=8.0)
    correct = {0, 2, 3}
    for pid in correct:
        assert "malformed_token" in world.endpoints[pid].detector.reasons_for(1)
        assert 1 not in world.endpoints[pid].members


def test_two_simultaneous_crashes_within_resilience():
    # n=7 tolerates floor((7-1)/3) = 2 faults.
    plan = FaultPlan().schedule_crash(5, 0.5).schedule_crash(6, 0.6)
    world = MulticastWorld(num=7, fault_plan=plan, seed=14).start()
    pump_messages(world, count=4)
    tail = [b"tail-%d" % i for i in range(3)]
    for i, payload in enumerate(tail):
        world.scheduler.at(4.0 + 0.05 * i, world.endpoints[0].multicast, "g", payload)
    world.run(until=10.0)
    correct = {0, 1, 2, 3, 4}
    for pid in correct:
        assert world.endpoints[pid].members == (0, 1, 2, 3, 4)
        assert world.delivered_payloads(pid)[-3:] == tail
    assert membership_violations(world.trace, correct, faulty={5, 6}) == []


def test_no_fault_run_has_perfect_accuracy():
    world = MulticastWorld(num=5, seed=15).start()
    pump_messages(world, count=8)
    world.run(until=4.0)
    correct = set(range(5))
    assert detector_violations(world.trace, correct) == []
    assert membership_violations(world.trace, correct) == []
    assert delivery_violations(world.trace, correct) == []
