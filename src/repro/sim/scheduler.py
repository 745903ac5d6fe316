"""Event queue and simulation loop.

The scheduler is the single source of time in a simulation.  Events are
ordered by ``(time, priority, sequence)`` where the monotonically
increasing sequence number guarantees a deterministic total order even
when many events share a timestamp.  Determinism is a hard requirement:
the reproduction's experiments are driven purely by a seed, and replica
consistency checks rely on re-running identical schedules.
"""

import heapq
import itertools


class SimulationError(Exception):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A scheduled callback.

    The scheduler heap orders events by ``(time, priority, seq)`` so
    they pop in a deterministic order.  Cancelled events stay in the heap
    but are skipped when popped (lazy deletion); the scheduler counts
    them exactly and compacts the heap when they outnumber the live
    events, so a cancel-heavy workload cannot grow the heap without
    bound.  A timer that is pushed back again and again (every token
    visit re-arms a progress timeout) is re-armed in place with
    :meth:`Scheduler.reschedule` and creates no garbage at all.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "label", "_scheduler")

    def __init__(self, time, priority, seq, fn, args, label=""):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.label = label
        #: owning scheduler while the event sits in its heap (cleared on
        #: pop) — lets ``cancel`` keep the cancelled-count exact
        self._scheduler = None

    def cancel(self):
        """Prevent the event from firing; safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler._note_cancelled()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t=%.9f, %s, %s)" % (self.time, self.label or self.fn, state)


class RepeatingEvent:
    """Handle for a periodic callback armed with :meth:`Scheduler.every`.

    The underlying one-shot event re-arms itself after each firing;
    ``cancel`` stops the cycle (idempotent, callable from inside the
    callback itself — the next arm is suppressed).
    """

    __slots__ = ("cancelled", "_event")

    def __init__(self):
        self.cancelled = False
        self._event = None

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            if self._event is not None:
                self._event.cancel()
                self._event = None


class Scheduler:
    """Deterministic discrete-event scheduler.

    Time is a float number of seconds.  ``at`` schedules an absolute
    event, ``after`` a relative one.  ``run`` drains the queue until a
    time limit, an event limit, or a stop request.
    """

    #: priority for ordinary events
    PRIORITY_NORMAL = 10
    #: priority for timers that should fire after message deliveries at
    #: the same instant (e.g. token-loss timeouts)
    PRIORITY_TIMER = 20

    def __init__(self):
        #: heap of ``(time, priority, seq, event)`` — ordering by the
        #: leading scalar triple keeps every heap comparison in C
        #: (``seq`` is unique, so the event object is never compared)
        self._queue = []
        self._seq = itertools.count()
        #: current simulation time in seconds
        self.now = 0.0
        self._stopped = False
        self._cancelled = 0
        self.events_executed = 0
        #: label -> executed count, maintained only while metrics are
        #: attached (keeps the uninstrumented hot loop unchanged)
        self.events_by_label = None
        #: root registries already holding our collector — a cluster
        #: binds several ring-scoped views of one registry to the one
        #: shared scheduler, which must not duplicate the collector
        self._metrics_roots = []

    def at(self, time, fn, *args, priority=PRIORITY_NORMAL, label=""):
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule event at %.9f before now %.9f" % (time, self.now)
            )
        event = Event(time, priority, next(self._seq), fn, args, label)
        event._scheduler = self
        heapq.heappush(self._queue, (time, priority, event.seq, event))
        return event

    def after(self, delay, fn, *args, priority=PRIORITY_NORMAL, label=""):
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("negative delay %r" % (delay,))
        # Inlined ``at`` body: a non-negative delay can never schedule
        # into the past, and nearly every event in a protocol-heavy run
        # arrives through this method.
        time = self.now + delay
        event = Event(time, priority, next(self._seq), fn, args, label)
        event._scheduler = self
        heapq.heappush(self._queue, (time, priority, event.seq, event))
        return event

    def every(self, period, fn, *args, priority=PRIORITY_NORMAL, label=""):
        """Schedule ``fn(*args)`` every ``period`` seconds, starting one
        period from now.

        This is the sampling hook used by the observability layer: the
        metric snapshotter and the time-series sampler both ride one
        repeating event instead of hand-rolled rescheduling.  Returns a
        :class:`RepeatingEvent`; the cycle runs until it is cancelled
        (``fn`` may cancel it from inside the callback), so always bound
        the simulation with ``run(until=...)``.
        """
        if period <= 0:
            raise SimulationError("non-positive period %r" % (period,))
        handle = RepeatingEvent()

        def tick():
            fn(*args)
            if not handle.cancelled:
                handle._event = self.after(
                    period, tick, priority=priority, label=label
                )

        handle._event = self.after(period, tick, priority=priority, label=label)
        return handle

    def reschedule(self, event, delay):
        """Re-arm ``event`` to fire ``delay`` seconds from now.

        Exactly ``event.cancel()`` followed by ``after(delay, ...)``
        with the event's own callback, priority and label — the same
        one sequence number is consumed, so the timer fires at the
        ``(time, priority, seq)`` key that pair would have produced —
        but a queued event that moves *later* keeps its heap entry: only
        the event's key changes, and ``run`` carries the stale entry to
        the real key when it surfaces.  Returns the live handle, which
        is a fresh event when ``event`` already fired, was cancelled,
        or moves earlier (an entry cannot sink below its heap key).
        """
        if delay < 0:
            raise SimulationError("negative delay %r" % (delay,))
        time = self.now + delay
        if event._scheduler is self and not event.cancelled and time >= event.time:
            event.time = time
            event.seq = next(self._seq)
            return event
        event.cancel()
        return self.after(
            delay, event.fn, *event.args, priority=event.priority, label=event.label
        )

    def stop(self):
        """Request that ``run`` return before executing the next event."""
        self._stopped = True

    def pending(self):
        """Number of non-cancelled events still queued."""
        return len(self._queue) - self._cancelled

    @property
    def cancelled_pending(self):
        """Cancelled events still occupying heap slots (lazy deletion)."""
        return self._cancelled

    def _note_cancelled(self):
        """An in-heap event was cancelled; compact if garbage dominates.

        Compaction keeps the heap no more than ~2x the live event count:
        rebuilding is O(live) and happens at most once per live-count
        cancellations, so the amortised cost per cancel stays O(1) while
        pop cost stays O(log live) instead of O(log total-ever-armed).
        """
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self):
        """Drop cancelled entries and re-heapify the survivors."""
        live = [entry for entry in self._queue if not entry[3].cancelled]
        # In-place so aliases of the queue (the run loop holds one)
        # stay valid across a compaction triggered mid-callback.
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_metrics(self, registry):
        """Profile the event loop into a metrics registry.

        Turns on per-label execution counting (the event-loop profile:
        which callbacks dominate the run) and registers a collector
        that refreshes pending-event and progress gauges at every
        registry snapshot.
        """
        if self.events_by_label is None:
            self.events_by_label = {}
        # Scheduler metrics are simulation-global, so a ring-scoped
        # registry view attaches its *unscoped* root (no ring label) and
        # repeat attachments of the same root are no-ops.
        root = getattr(registry, "unscoped", registry)
        if any(root is seen for seen in self._metrics_roots):
            return
        self._metrics_roots.append(root)
        root.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry):
        registry.gauge("scheduler.now").set(self.now)
        registry.gauge("scheduler.queue_pending").set(self.pending())
        registry.gauge("scheduler.events_executed").set(self.events_executed)
        for label, count in self.events_by_label.items():
            counter = registry.counter("scheduler.events", label=label)
            counter.value = count

    def busiest_labels(self, n=10):
        """The ``n`` most-executed event labels: ``[(label, count)]``."""
        if not self.events_by_label:
            return []
        ranked = sorted(self.events_by_label.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def run(self, until=None, max_events=None):
        """Execute events in order.

        ``until`` bounds simulation time (events after it stay queued);
        ``max_events`` bounds the number of callbacks executed.  Returns
        the simulation time when the loop exits.
        """
        self._stopped = False
        executed = 0
        queue = self._queue  # never rebound (compaction mutates in place)
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        while queue and not self._stopped:
            if max_events is not None and executed >= max_events:
                break
            entry = queue[0]
            # An entry's key never exceeds its event's (``reschedule``
            # only moves events later), so it bounds the event's time.
            if until is not None and entry[0] > until:
                self.now = until
                break
            event = entry[3]
            if event.cancelled:
                heappop(queue)
                event._scheduler = None
                self._cancelled -= 1
                continue
            if entry[2] != event.seq:
                # Re-armed while queued: carry it to its real key.
                heapreplace(queue, (event.time, event.priority, event.seq, event))
                continue
            heappop(queue)
            event._scheduler = None
            self.now = event.time
            event.fn(*event.args)
            executed += 1
            self.events_executed += 1
            counts = self.events_by_label
            if counts is not None:
                label = event.label or "(unlabeled)"
                counts[label] = counts.get(label, 0) + 1
        if not self._queue and until is not None and self.now < until:
            self.now = until
        return self.now
