"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.scheduler import Scheduler, SimulationError


def test_events_run_in_time_order():
    sched = Scheduler()
    seen = []
    sched.at(2.0, seen.append, "b")
    sched.at(1.0, seen.append, "a")
    sched.at(3.0, seen.append, "c")
    sched.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_schedule_order():
    sched = Scheduler()
    seen = []
    for i in range(10):
        sched.at(1.0, seen.append, i)
    sched.run()
    assert seen == list(range(10))


def test_priority_orders_simultaneous_events():
    sched = Scheduler()
    seen = []
    sched.at(1.0, seen.append, "timer", priority=Scheduler.PRIORITY_TIMER)
    sched.at(1.0, seen.append, "normal", priority=Scheduler.PRIORITY_NORMAL)
    sched.run()
    assert seen == ["normal", "timer"]


def test_after_is_relative_to_now():
    sched = Scheduler()
    times = []
    sched.at(5.0, lambda: sched.after(2.0, lambda: times.append(sched.now)))
    sched.run()
    assert times == [7.0]


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.at(1.0, lambda: None)


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    seen = []
    event = sched.at(1.0, seen.append, "x")
    event.cancel()
    sched.run()
    assert seen == []


def test_run_until_leaves_later_events_queued():
    sched = Scheduler()
    seen = []
    sched.at(1.0, seen.append, "early")
    sched.at(10.0, seen.append, "late")
    end = sched.run(until=5.0)
    assert seen == ["early"]
    assert end == 5.0
    assert sched.pending() == 1
    sched.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_when_queue_empties():
    sched = Scheduler()
    sched.at(1.0, lambda: None)
    end = sched.run(until=9.0)
    assert end == 9.0
    assert sched.now == 9.0


def test_stop_halts_the_loop():
    sched = Scheduler()
    seen = []
    sched.at(1.0, seen.append, "a")
    sched.at(2.0, lambda: sched.stop())
    sched.at(3.0, seen.append, "c")
    sched.run()
    assert seen == ["a"]
    assert sched.pending() == 1


def test_max_events_bounds_execution():
    sched = Scheduler()
    seen = []
    for i in range(5):
        sched.at(float(i + 1), seen.append, i)
    sched.run(max_events=3)
    assert seen == [0, 1, 2]


def test_events_executed_counter():
    sched = Scheduler()
    for i in range(4):
        sched.at(float(i), lambda: None)
    sched.run()
    assert sched.events_executed == 4


# ----------------------------------------------------------------------
# lazy deletion and heap compaction
# ----------------------------------------------------------------------


def test_cancelled_pending_counts_exactly():
    sched = Scheduler()
    events = [sched.at(float(i + 1), lambda: None) for i in range(10)]
    assert sched.cancelled_pending == 0
    events[0].cancel()
    events[1].cancel()
    events[1].cancel()  # idempotent: must not double-count
    assert sched.cancelled_pending == 2
    assert sched.pending() == 8


def test_compaction_bounds_heap_size():
    """Cancelling most of the heap shrinks it instead of leaving garbage."""
    sched = Scheduler()
    events = [sched.at(float(i + 1), lambda: None) for i in range(100)]
    for event in events[:90]:
        event.cancel()
    # compaction keeps the heap at most ~2x the live count
    assert len(sched._queue) <= 2 * sched.pending() + 1
    assert sched.pending() == 10
    assert sched.cancelled_pending <= sched.pending()


def test_order_preserved_across_compaction():
    """Survivors still fire in (time, priority, seq) order after compaction."""
    sched = Scheduler()
    seen = []
    keep = []
    for i in range(50):
        event = sched.at(float(50 - i), seen.append, 50 - i)
        if i % 5:
            event.cancel()
        else:
            keep.append(50 - i)
    sched.run()
    assert seen == sorted(keep)
    assert sched.cancelled_pending == 0


def test_cancel_during_run_is_safe():
    """A callback cancelling future events (compacting mid-run) is safe."""
    sched = Scheduler()
    seen = []
    victims = [sched.at(2.0 + i * 0.01, seen.append, "victim") for i in range(40)]
    survivor = sched.at(3.0, seen.append, "survivor")

    def massacre():
        seen.append("massacre")
        for event in victims:
            event.cancel()

    sched.at(1.0, massacre)
    sched.run()
    assert seen == ["massacre", "survivor"]
    assert survivor is not None
    assert sched.pending() == 0


def test_every_fires_at_fixed_period():
    sched = Scheduler()
    ticks = []
    sched.every(0.5, lambda: ticks.append(sched.now), label="tick")
    sched.run(until=2.25)
    assert ticks == [0.5, 1.0, 1.5, 2.0]


def test_every_cancel_before_run_means_no_ticks():
    sched = Scheduler()
    ticks = []
    handle = sched.every(0.5, lambda: ticks.append(sched.now))
    handle.cancel()
    sched.run(until=5.0)
    assert ticks == []


def test_every_cancel_mid_run():
    sched = Scheduler()
    ticks = []
    handle = sched.every(0.5, lambda: ticks.append(sched.now))
    sched.at(1.2, handle.cancel)
    sched.run(until=5.0)
    assert ticks == [0.5, 1.0]
    handle.cancel()  # idempotent after the fact


def test_every_rejects_nonpositive_period():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.every(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.every(-1.0, lambda: None)
