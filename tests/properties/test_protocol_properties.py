"""Property-based tests over whole protocol histories (Tables 2, 4, 5).

Each example builds a complete simulated world from a hypothesis-chosen
seed, message pattern, and fault scenario, runs it to quiescence, and
asserts the property tables over the recorded history — the same
checkers the table benches use.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.properties import (
    delivery_violations,
    detector_violations,
    membership_violations,
)
from repro.multicast.config import SecurityLevel
from repro.sim.faults import FaultPlan, LinkFaults
from tests.support import MulticastWorld

_SETTINGS = dict(max_examples=8, deadline=None)


@given(
    seed=st.integers(0, 10_000),
    senders=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    security=st.sampled_from(list(SecurityLevel)),
)
@settings(**_SETTINGS)
def test_fault_free_histories_satisfy_table2(seed, senders, security):
    world = MulticastWorld(num=4, seed=seed, security=security).start()
    for i, sender in enumerate(senders):
        world.scheduler.at(
            0.1 + 0.03 * i,
            world.endpoints[sender].multicast,
            "g%d" % (i % 2),
            b"payload-%d" % i,
        )
    world.run(until=3.0)
    correct = set(range(4))
    assert delivery_violations(world.trace, correct) == []
    assert detector_violations(world.trace, correct) == []
    # Everyone must actually have delivered everything that was sent.
    for pid in correct:
        assert len(world.delivered[pid]) == len(senders)


def _assert_lossy_history_satisfies_table2(seed, loss, senders):
    plan = FaultPlan(default=LinkFaults(loss_prob=loss), active_until=1.5)
    world = MulticastWorld(num=4, seed=seed, fault_plan=plan).start()
    for i, sender in enumerate(senders):
        world.scheduler.at(
            0.1 + 0.05 * i, world.endpoints[sender].multicast, "g", b"p%d" % i
        )
    world.run(until=8.0)
    correct = set(range(4))
    assert delivery_violations(world.trace, correct) == []
    for pid in correct:
        assert len(world.delivered[pid]) == len(senders)


@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.0, 0.25),
    senders=st.lists(st.integers(0, 3), min_size=1, max_size=8),
)
@settings(**_SETTINGS)
def test_lossy_histories_still_satisfy_table2(seed, loss, senders):
    _assert_lossy_history_satisfies_table2(seed, loss, senders)


def test_five_lossy_messages_survive_a_reconfiguration():
    """Found by the property above under random exploration (about one
    run in ten before the suite was derandomised).  Loss only, no
    corruption, no crash: P2 transiently suspects P3 (``fail_to_send``,
    t=0.633, absolved 0.1 ms later), ring 3 is installed at t=0.819 with
    the same four members and cut 3, and ``p2`` and ``p3`` (sender 1)
    lie above the cut.  They used to be lost, in one order at all four
    processors, so only the origination clause of
    ``delivery_violations`` sees it; P1 now sends them again on ring 3."""
    _assert_lossy_history_satisfies_table2(seed=97, loss=0.25, senders=[1, 0, 1, 1, 3])


@given(
    seed=st.integers(0, 10_000),
    crash_pid=st.integers(0, 4),
    crash_time=st.floats(0.2, 1.5),
)
@settings(**_SETTINGS)
def test_crash_histories_satisfy_tables_4_and_5(seed, crash_pid, crash_time):
    plan = FaultPlan().schedule_crash(crash_pid, crash_time)
    world = MulticastWorld(num=5, seed=seed, fault_plan=plan).start()
    for i in range(5):
        sender = (crash_pid + 1 + i) % 5
        world.scheduler.at(
            0.1 + 0.05 * i, world.endpoints[sender].multicast, "g", b"p%d" % i
        )
    world.run(until=10.0)
    correct = set(range(5)) - {crash_pid}
    assert membership_violations(world.trace, correct, faulty={crash_pid}) == []
    assert detector_violations(world.trace, correct, faulty={crash_pid}) == []
    assert delivery_violations(world.trace, correct) == []
    for pid in correct:
        assert world.endpoints[pid].members == tuple(sorted(correct))
