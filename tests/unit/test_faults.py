"""Unit tests for fault plans (loss, corruption, delay, crash windows).

The plan answers one query per datagram, :meth:`FaultPlan.faults_at`;
the network draws from its RNG against the answer.  The parent commit
asked three questions per datagram (``should_drop``, ``should_corrupt``,
``extra_delay``); :class:`ThreeCallPlan` keeps them here as the
reference the single query must be indistinguishable from.
"""

import random

import pytest

from repro.sim.faults import FaultPlan, LinkFaults
from repro.sim.network import Network, NetworkParams, _flip_bytes
from repro.sim.process import Processor
from repro.sim.scheduler import Scheduler


def make_lan(plan, rng, num=4, params=None):
    sched = Scheduler()
    net = Network(sched, params=params, rng=rng, fault_plan=plan)
    arrivals = []
    for pid in range(num):
        proc = Processor(pid, sched)
        net.add_processor(proc)
        proc.register_handler(
            "p", lambda d, pid=pid: arrivals.append((sched.now, d.src, pid, d.payload))
        )
    return sched, net, arrivals


def test_default_plan_is_benign():
    plan = FaultPlan().schedule_crash(1, 2.0)
    assert plan.faults_at(0, 1, 0.0) is None
    assert plan.faults_at(0, 1, 5.0) is None


def test_certain_loss():
    sched, net, arrivals = make_lan(
        FaultPlan(default=LinkFaults(loss_prob=1.0)), random.Random(1)
    )
    for _ in range(10):
        net.unicast(0, 1, "p", b"x")
    sched.run()
    assert arrivals == [] and net.stats["dropped"] == 10


def test_probabilistic_loss_is_roughly_calibrated():
    sched, net, arrivals = make_lan(
        FaultPlan(default=LinkFaults(loss_prob=0.3)), random.Random(1)
    )
    for _ in range(2000):
        net.unicast(0, 1, "p", b"x")
    sched.run()
    assert 450 < net.stats["dropped"] < 750  # ~30% +/- margin
    assert len(arrivals) == 2000 - net.stats["dropped"]


def test_window_bounds():
    lossy = LinkFaults(loss_prob=1.0)
    plan = FaultPlan(default=lossy, active_from=1.0, active_until=2.0)
    assert plan.faults_at(0, 1, 0.5) is None
    assert plan.faults_at(0, 1, 1.0) is lossy
    assert plan.faults_at(0, 1, 1.999) is lossy
    assert plan.faults_at(0, 1, 2.0) is None


def test_per_link_overrides():
    plan = FaultPlan()
    slow_and_lossy = LinkFaults(loss_prob=1.0, extra_delay=0.5)
    plan.set_link(0, 1, slow_and_lossy)
    assert plan.faults_at(0, 1, 0.0) is slow_and_lossy
    assert plan.faults_at(1, 0, 0.0) is None  # directed
    # an override with nothing to inject shields its link from the default
    plan = FaultPlan(default=LinkFaults(loss_prob=1.0)).set_link(0, 1, LinkFaults())
    assert plan.faults_at(0, 1, 0.0) is None
    assert plan.faults_at(1, 0, 0.0).loss_prob == 1.0


def test_egress_helper_covers_all_destinations():
    plan = FaultPlan()
    plan.set_processor_egress(2, LinkFaults(corrupt_prob=1.0), processor_ids=range(4))
    for dst in (0, 1, 3):
        assert plan.faults_at(2, dst, 0.0).corrupt_prob == 1.0
    assert (2, 2) not in plan.links
    assert plan.faults_at(0, 1, 0.0) is None


def test_crash_schedule_recorded_and_chainable():
    plan = FaultPlan().schedule_crash(1, 2.0).schedule_crash(3, 4.0)
    assert plan.crash_times == {1: 2.0, 3: 4.0}


def test_extra_delay_outside_window_is_zero():
    plan = FaultPlan(
        default=LinkFaults(extra_delay=0.1), active_from=1.0, active_until=2.0
    )
    assert plan.faults_at(0, 1, 0.0) is None
    assert plan.faults_at(0, 1, 1.5).extra_delay == 0.1


# ----------------------------------------------------------------------
# one query per datagram draws what three did
# ----------------------------------------------------------------------


class ThreeCallPlan:
    """The parent commit's per-datagram queries over a :class:`FaultPlan`."""

    def __init__(self, plan):
        self.plan = plan

    def _active(self, now):
        if now < self.plan.active_from:
            return False
        if self.plan.active_until is not None and now >= self.plan.active_until:
            return False
        return True

    def _faults_for(self, src, dst):
        return self.plan.links.get((src, dst), self.plan.default)

    def should_drop(self, src, dst, now, rng):
        if not self._active(now):
            return False
        faults = self._faults_for(src, dst)
        if faults.loss_prob <= 0.0:
            return False
        return rng.random() < faults.loss_prob

    def should_corrupt(self, src, dst, now, rng):
        if not self._active(now):
            return False
        faults = self._faults_for(src, dst)
        if faults.corrupt_prob <= 0.0:
            return False
        return rng.random() < faults.corrupt_prob

    def extra_delay(self, src, dst, now, rng):
        if not self._active(now):
            return 0.0
        return self._faults_for(src, dst).extra_delay


class RecordingRng(random.Random):
    """Logs every ``random()`` the network draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def random(self):
        value = super().random()
        self.draws.append(value)
        return value


def reference_run(plan, sends, params, seed, num=4):
    """What the network does with each receiver's copy of each send,
    asking the three per-datagram questions (loss, corruption, delay)."""
    rng = RecordingRng(seed)
    three = ThreeCallPlan(plan)
    arrivals, dropped, corrupted = [], 0, 0
    medium_free_at = 0.0
    for now, src, dst, payload in sends:
        tx_end = max(now, medium_free_at) + params.transmit_time(len(payload))
        medium_free_at = tx_end
        for receiver in range(num) if dst is None else (dst,):
            if receiver == src:
                continue
            if three.should_drop(src, receiver, now, rng):
                dropped += 1
                continue
            delivered = payload
            if three.should_corrupt(src, receiver, now, rng):
                delivered = _flip_bytes(payload, rng)
                corrupted += 1
            delay = params.propagation_delay
            if params.jitter:
                delay += params.jitter * rng.random()
            delay += three.extra_delay(src, receiver, now, rng)
            arrivals.append((tx_end + delay, src, receiver, delivered))
    return sorted(arrivals), dropped, corrupted, rng.draws


#: unicasts and broadcasts (dst None) before, inside and after [1.0, 2.0)
SENDS = [
    (time + 2e-4 * k, src, dst, bytes([k]) * 48)
    for time in (0.2, 1.0, 1.5, 1.999, 2.0, 2.7)
    for k, (src, dst) in enumerate([(0, 1), (1, 0), (2, None), (0, None), (3, 2)])
]

PLANS = {
    "crash only": lambda: FaultPlan().schedule_crash(3, 9.0),
    "loss only": lambda: FaultPlan(default=LinkFaults(loss_prob=0.4)),
    "corrupt only": lambda: FaultPlan(default=LinkFaults(corrupt_prob=0.4)),
    "loss, corruption and delay": lambda: FaultPlan(
        default=LinkFaults(loss_prob=0.3, corrupt_prob=0.3, extra_delay=2e-4)
    ),
    "per-link override": lambda: FaultPlan(default=LinkFaults(loss_prob=0.2))
    .set_link(0, 1, LinkFaults(corrupt_prob=0.9, extra_delay=1e-3))
    .set_link(2, 3, LinkFaults()),
    "windowed": lambda: FaultPlan(
        default=LinkFaults(loss_prob=0.3, corrupt_prob=0.3, extra_delay=2e-4),
        active_from=1.0,
        active_until=2.0,
    ),
    "windowed override": lambda: FaultPlan(active_from=1.0, active_until=2.0).set_link(
        0, 1, LinkFaults(loss_prob=0.5, corrupt_prob=0.5)
    ),
}


@pytest.mark.parametrize("name", sorted(PLANS))
@pytest.mark.parametrize("jitter", [5e-6, 0.0])
def test_one_query_draws_what_three_calls_drew(name, jitter):
    params = NetworkParams(jitter=jitter)
    plan = PLANS[name]()
    rng = RecordingRng(11)
    sched, net, arrivals = make_lan(plan, rng, params=params)
    for now, src, dst, payload in SENDS:
        if dst is None:
            sched.at(now, net.broadcast, src, "p", payload)
        else:
            sched.at(now, net.unicast, src, dst, "p", payload)
    sched.run()
    expected, dropped, corrupted, draws = reference_run(plan, SENDS, params, seed=11)
    assert rng.draws == draws
    assert sorted(arrivals) == expected
    assert (net.stats["dropped"], net.stats["corrupted"]) == (dropped, corrupted)
    if name != "crash only":
        assert dropped + corrupted > 0  # the case injects something


@pytest.mark.parametrize("jitter", [5e-6, 1e-3, 0.1, 7.3])
def test_scaled_random_draws_what_uniform_drew(jitter):
    """``jitter * random()`` is the float ``uniform(0.0, jitter)`` is, draw
    for draw: the network's jitter draw lost a call and moved nothing."""
    scaled, uniform = random.Random(29), random.Random(29)
    for _ in range(10_000):
        assert jitter * scaled.random() == uniform.uniform(0.0, jitter)
    assert scaled.getstate() == uniform.getstate()
