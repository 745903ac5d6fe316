"""Property: the scheduler is one ``(time, priority, seq)`` heap, observably.

A random program of ``at`` / ``after`` / ``cancel`` / ``reschedule`` /
``run`` steps is interpreted twice: on the real scheduler — ``reschedule``
re-arming a queued event in place, exact cancellation counts,
compaction — and on a reference written here from the specification:
one heap, lazy deletion and nothing else, whose ``reschedule`` is
literally ``event.cancel()`` followed by ``after()``.  The executed
``(time, priority, label)`` trace, ``events_executed``,
``events_by_label``, ``pending()`` and the clock must agree after every
``run`` step.  Delays come from a small grid so ties (equal time, equal
priority, order by sequence number) are common; bursts of
armed-then-cancelled events force heap compactions in between.
"""
import heapq
import itertools

from hypothesis import example, given, settings, strategies as st

from repro.sim.scheduler import Scheduler

_PRIORITIES = (Scheduler.PRIORITY_NORMAL, Scheduler.PRIORITY_TIMER)


class ReferenceEvent:
    __slots__ = ("time", "priority", "seq", "fn", "args", "label", "cancelled")

    def __init__(self, time, priority, seq, fn, args, label):
        self.time, self.priority, self.seq = time, priority, seq
        self.fn, self.args, self.label = fn, args, label
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    """The specification: one heap, and reschedule the long way round."""

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self.events_by_label = None
        self._heap = []
        self._seq = itertools.count()

    def at(self, time, fn, *args, priority=Scheduler.PRIORITY_NORMAL, label=""):
        assert time >= self.now
        event = ReferenceEvent(time, priority, next(self._seq), fn, args, label)
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        return event

    def after(self, delay, fn, *args, priority=Scheduler.PRIORITY_NORMAL, label=""):
        return self.at(self.now + delay, fn, *args, priority=priority, label=label)

    def reschedule(self, event, delay):
        event.cancel()
        return self.after(
            delay, event.fn, *event.args, priority=event.priority, label=event.label
        )

    def pending(self):
        return sum(not entry[3].cancelled for entry in self._heap)

    def run(self, until=None, max_events=None):
        heap = self._heap
        executed = 0
        while max_events is None or executed < max_events:
            while heap and heap[0][3].cancelled:
                heapq.heappop(heap)
            if not heap or (until is not None and heap[0][0] > until):
                if until is not None:
                    self.now = until
                break
            event = heapq.heappop(heap)[3]
            self.now = event.time
            event.fn(*event.args)
            executed += 1
            self.events_executed += 1
            label = event.label or "(unlabeled)"
            self.events_by_label[label] = self.events_by_label.get(label, 0) + 1
        return self.now


class Interpreter:
    """Runs one program against one scheduler, recording what it observes."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        scheduler.events_by_label = {}
        self.handles = []
        self.trace = []
        self.observed = []

    def _fire(self, priority, label):
        self.trace.append((self.scheduler.now, priority, label))

    def _fire_and_rearm(self, priority, label, index, delay):
        self._fire(priority, label)
        self._rearm(index, delay)

    def _rearm(self, index, delay):
        if self.handles:
            index %= len(self.handles)
            self.handles[index] = self.scheduler.reschedule(self.handles[index], delay)

    def step(self, op):
        scheduler = self.scheduler
        kind = op[0]
        label = "e%d" % len(self.handles)
        if kind == "at":
            _, delay, priority = op
            self.handles.append(
                scheduler.at(
                    scheduler.now + delay, self._fire, priority, label,
                    priority=priority, label=label,
                )
            )
        elif kind == "after":
            _, delay, priority = op
            self.handles.append(
                scheduler.after(delay, self._fire, priority, label, priority=priority, label=label)
            )
        elif kind == "rearmer":
            # an event whose callback re-arms another one mid-run
            _, delay, priority, index, rearm_delay = op
            self.handles.append(
                scheduler.after(
                    delay, self._fire_and_rearm, priority, label, index, rearm_delay,
                    priority=priority, label=label,
                )
            )
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "reschedule":
            self._rearm(op[1], op[2])
        elif kind == "burst":
            # armed and cancelled at once: garbage that forces a compaction
            for event in [scheduler.after(50.0, self._fire, 0, "burst") for _ in range(op[1])]:
                event.cancel()
        elif kind == "run":
            scheduler.run(until=scheduler.now + op[1])
            self._observe()
        elif kind == "run_events":
            scheduler.run(max_events=op[1])
            self._observe()

    def _observe(self):
        scheduler = self.scheduler
        self.observed.append(
            (
                scheduler.now,
                scheduler.events_executed,
                scheduler.pending(),
                dict(scheduler.events_by_label),
                len(self.trace),
            )
        )

    def finish(self):
        # bounded: a rearmer may re-arm itself for ever
        self.scheduler.run(until=self.scheduler.now + 20.0)
        self._observe()


_delay = st.integers(0, 8).map(lambda n: n * 0.25)
_priority = st.sampled_from(_PRIORITIES)
_index = st.integers(0, 40)
_op = st.one_of(
    st.tuples(st.just("at"), _delay, _priority),
    st.tuples(st.just("after"), _delay, _priority),
    # (a rearmer may point at itself: its re-arm delay is never zero)
    st.tuples(st.just("rearmer"), _delay, _priority, _index, _delay.filter(bool)),
    st.tuples(st.just("cancel"), _index),
    st.tuples(st.just("reschedule"), _index, _delay),
    st.tuples(st.just("reschedule"), _index, _delay),
    st.tuples(st.just("burst"), st.integers(1, 12)),
    st.tuples(st.just("run"), _delay),
    st.tuples(st.just("run_events"), st.integers(0, 3)),
)


def _interpret(scheduler, program):
    interpreter = Interpreter(scheduler)
    for op in program:
        interpreter.step(op)
    interpreter.finish()
    return interpreter


@given(program=st.lists(_op, max_size=60))
@settings(max_examples=300, deadline=None)
# moved later, then run(until=) lands between the stale and the real time
@example(program=[("after", 1.0, 10), ("reschedule", 0, 2.0), ("run", 1.5), ("run", 1.0)])
# moved later, then earlier than the stale entry (falls back to a fresh push)
@example(
    program=[("after", 1.0, 10), ("reschedule", 0, 2.0), ("reschedule", 0, 0.25), ("run", 0.5)]
)
# rescheduled, then cancelled while its heap entry is stale
@example(program=[("after", 1.0, 10), ("reschedule", 0, 2.0), ("cancel", 0), ("run", 3.0)])
# a compaction between the re-arm and the stale entry surfacing
@example(
    program=[
        ("after", 1.0, 20), ("after", 1.0, 10), ("reschedule", 0, 1.5),
        ("burst", 12), ("run", 1.25), ("reschedule", 0, 1.0), ("run", 2.0),
    ]
)
# re-arming an event that already fired, and one that was cancelled
@example(
    program=[
        ("after", 0.5, 10), ("run", 1.0), ("reschedule", 0, 0.5),
        ("after", 0.5, 10), ("cancel", 1), ("reschedule", 1, 0.25), ("run", 1.0),
    ]
)
def test_reschedule_equals_cancel_then_after(program):
    real = _interpret(Scheduler(), program)
    reference = _interpret(ReferenceScheduler(), program)
    assert real.trace == reference.trace
    # (heap occupancy -- queue depth, cancelled_pending -- may differ:
    # the two compact at different moments)
    assert real.observed == reference.observed


def test_rearming_in_place_leaves_no_garbage_and_counts_no_stale_pop():
    scheduler = Scheduler()
    fired = []
    timer = scheduler.after(1.0, fired.append, "timeout", label="timer")
    scheduler.events_by_label = {}
    for step in range(1, 200):
        scheduler.at(step * 0.01, lambda: None, label="tick")
    for step in range(1, 200):
        scheduler.run(until=step * 0.01)
        assert scheduler.reschedule(timer, 1.0) is timer
        assert scheduler.cancelled_pending == 0
        assert scheduler.pending() == 200 - step
    scheduler.run()
    assert fired == ["timeout"]
    assert scheduler.now == 199 * 0.01 + 1.0
    # Whenever the stale entry surfaced (first at 1.0) it was carried to
    # the real key: neither an executed event nor a labelled one.
    assert scheduler.events_executed == 200
    assert scheduler.events_by_label == {"tick": 199, "timer": 1}
