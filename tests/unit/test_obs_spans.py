"""Unit tests for invocation spans."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SPAN_STAGES, InvocationSpan, SpanTracker
from repro.sim.scheduler import Scheduler


class FakeClock:
    def __init__(self):
        self.now = 0.0


def tracker(**kwargs):
    t = SpanTracker(**kwargs)
    t.bind(FakeClock())
    return t


def test_stage_order_and_breakdown():
    clock = FakeClock()
    spans = SpanTracker().bind(clock)
    key = ("client", 0)
    spans.begin(key, oneway=False)
    for offset, stage in enumerate(SPAN_STAGES):
        clock.now = 0.1 * offset
        spans.mark(key, stage)
    span = spans.get(key)
    assert span.closed
    assert span.last_stage == "reply_voted"
    breakdown = span.breakdown()
    assert breakdown[0] == ("intercepted", 0.0)
    for stage, delta in breakdown[1:]:
        assert delta == pytest.approx(0.1)
    assert span.end_to_end() == pytest.approx(0.1 * (len(SPAN_STAGES) - 1))


def test_first_mark_wins():
    clock = FakeClock()
    spans = SpanTracker().bind(clock)
    clock.now = 1.0
    spans.mark(("g", 0), "intercepted")
    clock.now = 2.0
    spans.mark(("g", 0), "intercepted")  # a second replica, later
    assert spans.get(("g", 0)).marks["intercepted"] == 1.0


def test_unknown_stage_rejected():
    span = InvocationSpan(("g", 0), oneway=False)
    with pytest.raises(ValueError):
        span.mark("teleported", 0.0)


def test_oneway_closes_at_dispatch():
    clock = FakeClock()
    spans = SpanTracker().bind(clock)
    key = ("client", 1)
    spans.begin(key, oneway=True)
    for stage in ("intercepted", "multicast_queued", "ordered", "voted"):
        spans.mark(key, stage)
    assert not spans.get(key).closed
    spans.mark(key, "dispatched")
    assert spans.get(key).closed
    assert spans.closed_spans() == [spans.get(key)]


def test_unclosed_spans_are_reported_not_dropped():
    clock = FakeClock()
    spans = SpanTracker().bind(clock)
    spans.begin(("client", 0), oneway=False)
    spans.mark(("client", 0), "intercepted")
    spans.mark(("client", 0), "ordered")
    (open_span,) = spans.open_spans()
    assert open_span.last_stage == "ordered"
    assert not open_span.closed
    assert open_span.to_dict()["last_stage"] == "ordered"
    assert spans.stage_breakdown() == []  # aggregates cover closed only


def test_closing_feeds_registry():
    registry = MetricsRegistry()
    clock = FakeClock()
    spans = SpanTracker(registry=registry).bind(clock)
    key = ("client", 2)
    spans.begin(key, oneway=True)
    for offset, stage in enumerate(
        ("intercepted", "multicast_queued", "ordered", "voted", "dispatched")
    ):
        clock.now = 0.01 * offset
        spans.mark(key, stage)
    assert registry.value("span.closed") == 1
    e2e = registry.histogram("span.end_to_end_seconds")
    assert e2e.count == 1
    assert e2e.sum == pytest.approx(0.04)
    # Closing is recorded once; an extra late mark does not double-count.
    spans.mark(key, "executed")
    assert registry.value("span.closed") == 1


def test_works_with_real_scheduler():
    scheduler = Scheduler()
    spans = SpanTracker().bind(scheduler)
    key = ("client", 0)
    scheduler.at(0.5, spans.mark, key, "intercepted", label="t")
    scheduler.at(1.5, spans.mark, key, "ordered", label="t")
    scheduler.run()
    assert spans.get(key).marks == {"intercepted": 0.5, "ordered": 1.5}


def test_open_spans_oneway_vs_two_way():
    clock = FakeClock()
    spans = SpanTracker().bind(clock)
    # A one-way invocation closes at dispatch; a two-way one stays open
    # through the whole reply path until reply_voted.
    shared = ("intercepted", "multicast_queued", "ordered", "voted", "dispatched")
    spans.begin(("g", 0), oneway=True)
    spans.begin(("g", 1), oneway=False)
    for stage in shared:
        clock.now += 0.1
        spans.mark(("g", 0), stage)
        spans.mark(("g", 1), stage)
    assert spans.open_spans() == [spans.get(("g", 1))]
    assert spans.get(("g", 0)).closed and not spans.get(("g", 1)).closed
    for stage in ("executed", "reply_gateway_forwarded", "reply_ordered"):
        clock.now += 0.1
        spans.mark(("g", 1), stage)
    assert spans.open_spans() == [spans.get(("g", 1))]
    assert spans.get(("g", 1)).last_stage == "reply_ordered"
    clock.now += 0.1
    spans.mark(("g", 1), "reply_voted")
    assert spans.open_spans() == []
    assert len(spans.closed_spans()) == 2


def test_begin_counts_opened_spans():
    registry = MetricsRegistry()
    clock = FakeClock()
    spans = SpanTracker(registry=registry).bind(clock)
    spans.begin(("g", 0), oneway=False)
    spans.begin(("g", 1), oneway=True)
    spans.begin(("g", 1), oneway=True)  # same key: still one span
    assert registry.value("span.opened") == 2
    assert registry.value("span.closed") == 0
