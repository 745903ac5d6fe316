"""Unit tests for the shared-medium LAN model."""

import pytest

from repro.sim.faults import FaultPlan, LinkFaults
from repro.sim.network import Network, NetworkParams
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler, SimulationError


def make_lan(num=3, fault_plan=None, params=None, seed=7):
    sched = Scheduler()
    rng = RngStreams(seed).stream("net")
    net = Network(sched, params=params, rng=rng, fault_plan=fault_plan)
    procs = []
    for i in range(num):
        proc = Processor(i, sched)
        net.add_processor(proc)
        procs.append(proc)
    return sched, net, procs


def collect(proc, port="p"):
    inbox = []
    proc.register_handler(port, inbox.append)
    return inbox


def test_unicast_reaches_only_destination():
    sched, net, procs = make_lan()
    boxes = [collect(p) for p in procs]
    net.unicast(0, 1, "p", b"hello")
    sched.run()
    assert [len(b) for b in boxes] == [0, 1, 0]
    assert boxes[1][0].payload == b"hello"


def test_broadcast_reaches_everyone_but_sender():
    sched, net, procs = make_lan(4)
    boxes = [collect(p) for p in procs]
    net.broadcast(0, "p", b"x" * 10)
    sched.run()
    assert [len(b) for b in boxes] == [0, 1, 1, 1]


def test_payload_must_be_bytes():
    sched, net, procs = make_lan()
    with pytest.raises(SimulationError):
        net.unicast(0, 1, "p", {"not": "bytes"})


def slow_wire(monkeypatch):
    """A jitter-free 8 Mbps LAN with no propagation delay."""
    monkeypatch.setattr(NetworkParams, "bandwidth_bps", 8_000_000)
    monkeypatch.setattr(NetworkParams, "propagation_delay", 0.0)
    return NetworkParams(jitter=0.0)


def test_transmission_time_models_bandwidth(monkeypatch):
    params = slow_wire(monkeypatch)
    # 1000 payload + 42 header bytes at 1 MB/s -> 1.042 ms on the wire.
    sched, net, procs = make_lan(2, params=params)
    arrivals = []
    procs[1].register_handler("p", lambda d: arrivals.append(sched.now))
    net.unicast(0, 1, "p", b"z" * 1000)
    sched.run()
    assert arrivals[0] == pytest.approx(1.042e-3)


def test_medium_is_serialised(monkeypatch):
    params = slow_wire(monkeypatch)
    sched, net, procs = make_lan(2, params=params)
    arrivals = []
    procs[1].register_handler("p", lambda d: arrivals.append(sched.now))
    net.unicast(0, 1, "p", b"z" * 958)  # 1000 bytes with header -> 1 ms
    net.unicast(0, 1, "p", b"z" * 958)
    sched.run()
    assert arrivals[0] == pytest.approx(1e-3)
    assert arrivals[1] == pytest.approx(2e-3)


def test_crashed_sender_sends_nothing():
    sched, net, procs = make_lan()
    box = collect(procs[1])
    procs[0].crash()
    net.unicast(0, 1, "p", b"hello")
    sched.run()
    assert box == []


def test_crashed_receiver_receives_nothing():
    sched, net, procs = make_lan()
    box = collect(procs[1])
    net.unicast(0, 1, "p", b"hello")
    procs[1].crash()
    sched.run()
    assert box == []


def test_loss_injection_drops_all_with_probability_one():
    plan = FaultPlan(default=LinkFaults(loss_prob=1.0))
    sched, net, procs = make_lan(fault_plan=plan)
    box = collect(procs[1])
    for _ in range(5):
        net.unicast(0, 1, "p", b"hello")
    sched.run()
    assert box == []
    assert net.stats["dropped"] == 5


def test_corruption_injection_flips_payload_bytes():
    plan = FaultPlan(default=LinkFaults(corrupt_prob=1.0))
    sched, net, procs = make_lan(fault_plan=plan)
    box = collect(procs[1])
    net.unicast(0, 1, "p", b"A" * 64)
    sched.run()
    assert len(box) == 1
    assert box[0].corrupted
    assert box[0].payload != b"A" * 64
    assert len(box[0].payload) == 64


def test_per_link_faults_override_default():
    plan = FaultPlan()
    plan.set_link(0, 1, LinkFaults(loss_prob=1.0))
    sched, net, procs = make_lan(fault_plan=plan)
    box1 = collect(procs[1])
    box2 = collect(procs[2])
    net.broadcast(0, "p", b"hello")
    sched.run()
    assert box1 == []
    assert len(box2) == 1


def test_fault_window_deactivates():
    plan = FaultPlan(default=LinkFaults(loss_prob=1.0), active_from=1.0, active_until=2.0)
    sched, net, procs = make_lan(fault_plan=plan)
    box = collect(procs[1])
    net.unicast(0, 1, "p", b"before")
    sched.at(1.5, net.unicast, 0, 1, "p", b"during")
    sched.at(3.0, net.unicast, 0, 1, "p", b"after")
    sched.run()
    payloads = [d.payload for d in box]
    assert payloads == [b"before", b"after"]


def test_scheduled_crash_fires_via_arm_crashes():
    plan = FaultPlan().schedule_crash(2, 1.0)
    sched, net, procs = make_lan(fault_plan=plan)
    plan.arm_crashes(sched, {p.proc_id: p for p in procs})
    sched.run()
    assert procs[2].crashed and procs[2].crash_time == 1.0


def test_duplicate_processor_id_rejected():
    sched, net, procs = make_lan()
    with pytest.raises(SimulationError):
        net.add_processor(Processor(0, sched))


# ----------------------------------------------------------------------
# corruption injection internals
# ----------------------------------------------------------------------

import random  # noqa: E402

from repro.sim.network import _flip_bytes  # noqa: E402


def test_flip_bytes_changes_one_to_four_distinct_bytes():
    """Indices are sampled without replacement: the number of bytes drawn
    is the number actually changed, and no flip can cancel another."""
    rng = random.Random(42)
    for _ in range(200):
        original = bytes(64)
        flipped = _flip_bytes(original, rng)
        assert len(flipped) == 64
        changed = sum(1 for a, b in zip(original, flipped) if a != b)
        assert 1 <= changed <= 4


def test_flip_bytes_single_byte_payload_always_changes():
    rng = random.Random(7)
    for _ in range(50):
        assert _flip_bytes(b"\x5a", rng) != b"\x5a"


def test_flip_bytes_empty_payload_is_noop():
    assert _flip_bytes(b"", random.Random(1)) == b""


def test_a_broadcast_hands_every_intact_receiver_one_shared_datagram():
    sched, net, procs = make_lan(5)
    boxes = [collect(p) for p in procs]
    net.broadcast(2, "p", b"shared")
    net.unicast(2, 4, "p", b"alone")
    sched.run()
    received = [box[0] for box in boxes if box]
    assert len(received) == 4
    assert all(d is received[0] for d in received)
    shared = received[0]
    assert (shared.src, shared.dst, shared.payload, shared.corrupted) == (2, None, b"shared", False)
    alone = boxes[4][1]
    assert alone is not shared
    assert (alone.src, alone.dst, alone.payload) == (2, 4, b"alone")


def test_each_corrupted_copy_is_a_datagram_of_its_own():
    sched, net, procs = make_lan(8, fault_plan=FaultPlan(LinkFaults(corrupt_prob=0.5)))
    boxes = [collect(p) for p in procs]
    net.broadcast(0, "p", b"payload-" * 8)
    sched.run()
    received = [d for box in boxes for d in box]
    assert len(received) == 7
    corrupted = [d for d in received if d.corrupted]
    intact = [d for d in received if not d.corrupted]
    assert corrupted and intact  # (seed 7 draws both)
    assert len({id(d) for d in corrupted}) == len(corrupted)
    assert all(d is intact[0] for d in intact)
    assert all(d is not intact[0] and d.payload != intact[0].payload for d in corrupted)
    assert all((d.src, d.dst) == (0, None) for d in received)
    assert net.stats["corrupted"] == len(corrupted)
