"""Causal invocation spans: one CORBA invocation across the whole stack.

Figure 7 of the paper decomposes the cost of an invocation into the
layers it crosses: interception below the client ORB, multicast send,
token-ordered delivery, majority voting, dispatch and execution at the
server replicas, and the response's own ordered-and-voted return trip.
A :class:`SpanTracker` reproduces that decomposition directly: the
Replication Managers mark the first time each *logical* invocation
(identified by ``(source group, operation number)``) reaches each
stage, and the per-stage latency breakdown falls out as the deltas
between consecutive marked stages.

The tracker is global to a simulation, like the
:class:`~repro.sim.tracing.TraceLog`: replicas of the same group mark
the same span, and only the first observation of a stage counts, so a
span describes the logical invocation's critical path rather than any
single replica's view.

Spans are never silently dropped: a span whose terminal stage
(``dispatched`` for one-way invocations, ``reply_voted`` for two-way)
was never reached stays in :meth:`SpanTracker.open_spans` and is
reported by the exporter with the last stage it did reach.
"""

#: the stages of one invocation, in causal order.  The gateway stages
#: are only marked for cross-ring invocations in a :mod:`repro.cluster`
#: deployment: a cluster gateway votes the source ring's copies and
#: re-originates the winner on the destination ring (and the reply makes
#: the mirror-image hop back); intra-ring invocations skip both, which
#: :meth:`InvocationSpan.breakdown` already handles (unmarked stages are
#: omitted).
SPAN_STAGES = (
    "intercepted",          # client RM intercepted the outbound GIOP request
    "migration_held",       # elastic: the invocation was parked by a live
                            # migration hold and released at cutover (marked at
                            # release, so the delta from "intercepted" prices
                            # the hold; unmarked outside migration windows)
    "multicast_queued",     # handed to the secure multicast endpoint
    "gateway_forwarded",    # cross-ring: gateway re-originated the voted
                            # invocation on the destination ring
    "wan_forwarded",        # cross-site: WAN gateway's voted copy landed on
                            # the destination site's backbone (marked at
                            # injection, so the delta prices the WAN flight)
    "ordered",              # first totally-ordered delivery at a server-side RM
    "voted",                # invocation majority vote decided (or dup-filtered)
    "dispatched",           # winning frame injected into a server ORB
    "executed",             # servant finished; reply frame left the server RM
    "reply_gateway_forwarded",  # cross-ring: gateway re-originated the voted
                                # reply on the client's ring
    "reply_wan_forwarded",  # cross-site: the voted reply landed back on the
                            # client site's backbone after the WAN flight
    "reply_ordered",        # first response copy totally-ordered at a client RM
    "reply_voted",          # response vote decided; reply handed to client ORB
)

_STAGE_INDEX = {stage: i for i, stage in enumerate(SPAN_STAGES)}


class InvocationSpan:
    """The lifecycle of one logical invocation."""

    __slots__ = ("key", "oneway", "marks", "_recorded")

    def __init__(self, key, oneway):
        self.key = key
        self.oneway = oneway
        #: stage name -> first simulation time it was observed
        self.marks = {}
        self._recorded = False

    @property
    def terminal_stage(self):
        return "dispatched" if self.oneway else "reply_voted"

    @property
    def closed(self):
        return self.terminal_stage in self.marks

    @property
    def last_stage(self):
        """The latest (causally) stage this span reached, or None."""
        reached = [s for s in SPAN_STAGES if s in self.marks]
        return reached[-1] if reached else None

    def mark(self, stage, time):
        """Record the first observation of ``stage``; later ones are no-ops."""
        if stage not in _STAGE_INDEX:
            raise ValueError("unknown span stage %r" % (stage,))
        if stage not in self.marks:
            self.marks[stage] = time

    def breakdown(self):
        """[(stage, latency since the previous marked stage)], in order.

        The first marked stage contributes ``(stage, 0.0)``; a stage
        never observed (e.g. the reply stages of a one-way invocation)
        is omitted.
        """
        out = []
        previous = None
        for stage in SPAN_STAGES:
            t = self.marks.get(stage)
            if t is None:
                continue
            out.append((stage, 0.0 if previous is None else t - previous))
            previous = t
        return out

    def end_to_end(self):
        """Latency from the first to the last marked stage."""
        times = [self.marks[s] for s in SPAN_STAGES if s in self.marks]
        return times[-1] - times[0] if len(times) > 1 else 0.0

    def to_dict(self):
        return {
            "key": list(self.key),
            "oneway": self.oneway,
            "closed": self.closed,
            "last_stage": self.last_stage,
            "stages": {s: self.marks[s] for s in SPAN_STAGES if s in self.marks},
            "end_to_end": self.end_to_end(),
        }

    def __repr__(self):
        return "InvocationSpan(%r, %s, %s)" % (
            self.key,
            "oneway" if self.oneway else "twoway",
            "closed" if self.closed else "open@%s" % self.last_stage,
        )


class SpanTracker:
    """Tracks every invocation span of one simulated deployment.

    When a ``registry`` is supplied, closing a span feeds the
    ``span.end_to_end_seconds`` histogram and the ``span.closed``
    counter, so the metrics snapshot and the raw spans always agree.

    It is the one sink of stage marks: every :meth:`begin` and
    :meth:`mark` is forwarded, span first, to :attr:`collector`.
    """

    def __init__(self, registry=None):
        self._scheduler = None
        self._registry = registry
        self._spans = {}
        #: the :class:`~repro.obs.trace.TraceCollector` (if any), set by
        #: the :class:`~repro.obs.Observability` bundle
        self.collector = None

    def bind(self, scheduler):
        """Attach the simulation's time source (done by the facade)."""
        self._scheduler = scheduler
        return self

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def begin(self, key, oneway=False):
        """Get-or-create the span for one logical invocation.

        Creating a span bumps the ``span.opened`` counter, which pairs
        with ``span.closed`` as the availability SLI: the gap between
        the two over a time window is the invocations attempted but not
        (yet) completed — the signal that burns during a stall.
        """
        span = self._open(key, oneway)
        if self.collector is not None:
            self.collector.begin(key, oneway=oneway)
        return span

    def _open(self, key, oneway):
        span = self._spans.get(key)
        if span is None:
            span = InvocationSpan(key, oneway)
            self._spans[key] = span
            if self._registry is not None:
                self._registry.counter("span.opened").inc()
        return span

    def mark(self, key, stage):
        """Mark ``stage`` on the span for ``key`` (creating it if new)."""
        span = self._open(key, False)
        span.mark(stage, self._scheduler.now)
        if span.closed and not span._recorded:
            span._recorded = True
            if self._registry is not None:
                self._registry.histogram("span.end_to_end_seconds").observe(
                    span.end_to_end()
                )
                self._registry.counter("span.closed").inc()
        if self.collector is not None:
            self.collector.mark_stage(key, stage)
        return span

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def spans(self):
        """Every span, in creation order."""
        return list(self._spans.values())

    def closed_spans(self):
        return [s for s in self._spans.values() if s.closed]

    def open_spans(self):
        """Spans that never reached their terminal stage — reported, not
        silently dropped."""
        return [s for s in self._spans.values() if not s.closed]

    def get(self, key):
        return self._spans.get(key)

    def stage_breakdown(self):
        """Aggregate per-stage latency over closed spans.

        Returns ``[(stage, count, mean, max)]`` in causal stage order —
        the Figure 7 decomposition of where an invocation's time goes.
        """
        sums = {}
        counts = {}
        maxes = {}
        for span in self.closed_spans():
            for stage, delta in span.breakdown()[1:]:
                sums[stage] = sums.get(stage, 0.0) + delta
                counts[stage] = counts.get(stage, 0) + 1
                maxes[stage] = max(maxes.get(stage, 0.0), delta)
        return [
            (stage, counts[stage], sums[stage] / counts[stage], maxes[stage])
            for stage in SPAN_STAGES
            if stage in counts
        ]
