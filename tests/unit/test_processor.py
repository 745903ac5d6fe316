"""Unit tests for the simulated processor and its CPU model."""

import pytest

from repro.sim.network import Network
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler, SimulationError


@pytest.fixture
def sched():
    return Scheduler()


@pytest.fixture
def proc(sched):
    return Processor(0, sched)


def test_charge_serialises_cpu_work(proc):
    first = proc.charge(0.5)
    second = proc.charge(0.25)
    assert first == 0.5
    assert second == 0.75
    assert proc.cpu_busy()


def test_cpu_free_at_never_in_the_past(sched, proc):
    proc.charge(0.1)
    sched.at(5.0, lambda: None)
    sched.run()
    assert proc.cpu_free_at == 5.0
    assert not proc.cpu_busy()


def test_charge_rejects_negative_cost(proc):
    with pytest.raises(SimulationError):
        proc.charge(-0.1)


def test_charge_accounts_by_category(proc):
    proc.charge(0.2, "crypto.sign")
    proc.charge(0.3, "crypto.sign")
    proc.charge(0.1, "marshal")
    assert proc.cpu_accounting["crypto.sign"] == pytest.approx(0.5)
    assert proc.cpu_accounting["marshal"] == pytest.approx(0.1)


def test_execute_runs_callback_after_cost(sched, proc):
    times = []
    proc.execute(0.5, lambda: times.append(sched.now))
    proc.execute(0.5, lambda: times.append(sched.now))
    sched.run()
    assert times == [0.5, 1.0]


def test_execute_skipped_after_crash(sched, proc):
    seen = []
    proc.execute(1.0, seen.append, "ran")
    sched.at(0.5, proc.crash)
    sched.run()
    assert seen == []
    assert proc.crashed
    assert proc.crash_time == 0.5


def test_crash_is_idempotent(sched, proc):
    sched.at(1.0, proc.crash)
    sched.at(2.0, proc.crash)
    sched.run()
    assert proc.crash_time == 1.0


def _wired(sched, proc):
    """``proc`` on a LAN with a sender, P1, and what ``proc`` receives on ``ring``."""
    net = Network(sched, rng=RngStreams(7).stream("net"))
    net.add_processor(proc)
    net.add_processor(Processor(1, sched))
    seen = []
    proc.register_handler("ring", seen.append)
    return net, seen


def test_handler_registration_and_dispatch(sched, proc):
    net, seen = _wired(sched, proc)
    net.unicast(1, proc.proc_id, "ring", b"frame")
    sched.run()
    assert [datagram.payload for datagram in seen] == [b"frame"]


def test_duplicate_port_registration_rejected(proc):
    proc.register_handler("ring", lambda d: None)
    with pytest.raises(SimulationError):
        proc.register_handler("ring", lambda d: None)


def test_crashed_processor_drops_deliveries(sched, proc):
    net, seen = _wired(sched, proc)
    proc.crash()
    net.unicast(1, proc.proc_id, "ring", b"frame")
    sched.run()
    assert seen == []


def test_a_stage_that_drops_an_inbound_datagram_leaves_the_handler_nothing(sched, proc):
    class DropAll:
        def __init__(self):
            self.asked = []

        def inbound(self, datagram):
            self.asked.append(datagram.payload)
            return None

    net, seen = _wired(sched, proc)
    proc.stage = DropAll()
    net.unicast(1, proc.proc_id, "ring", b"frame")
    sched.run()
    assert proc.stage.asked == [b"frame"]
    assert seen == []


def test_unattached_processor_has_no_network(proc):
    with pytest.raises(SimulationError):
        _ = proc.network


def test_priority_lane_is_independent_of_app_backlog(proc):
    proc.charge(10.0)  # heavy application backlog
    done = proc.charge(0.5, priority=True)
    assert done == 0.5  # protocol work does not wait for app work


def test_priority_work_pushes_back_app_work(proc):
    proc.charge(1.0)  # app lane free at 1.0
    proc.charge(0.5, priority=True)  # steals CPU
    assert proc.cpu_free_at == 1.5


def test_priority_lane_serialises_protocol_work(proc):
    first = proc.charge(0.5, priority=True)
    second = proc.charge(0.25, priority=True)
    assert first == 0.5
    assert second == 0.75


def test_app_work_does_not_delay_protocol_lane(proc):
    proc.charge(0.5, priority=True)
    proc.charge(5.0)  # app work
    assert proc.prio_free_at == 0.5


def test_priority_execute_runs_at_priority_completion(sched, proc):
    times = []
    proc.charge(10.0)  # app backlog must not matter
    proc.execute(0.5, lambda: times.append(sched.now), priority=True)
    sched.run()
    assert times == [0.5]
