"""Unit tests for the trace log."""

from repro.sim.scheduler import Scheduler
from repro.sim.tracing import TraceLog


def test_records_carry_time_and_fields():
    sched = Scheduler()
    trace = TraceLog(sched)
    sched.at(1.5, lambda: trace.record("deliver", proc=0, seq=7))
    sched.run()
    (rec,) = trace.of_kind("deliver")
    assert rec.time == 1.5
    assert rec.proc == 0
    assert rec.seq == 7
    assert rec.get("missing", "default") == "default"


def test_where_filters_on_fields():
    sched = Scheduler()
    trace = TraceLog(sched)
    trace.record("deliver", proc=0, seq=1)
    trace.record("deliver", proc=1, seq=1)
    trace.record("deliver", proc=0, seq=2)
    assert len(trace.where("deliver", proc=0)) == 2
    assert len(trace.where("deliver", proc=0, seq=2)) == 1


def test_of_kinds_merges_in_order():
    sched = Scheduler()
    trace = TraceLog(sched)
    trace.record("a", n=1)
    trace.record("b", n=2)
    trace.record("a", n=3)
    merged = trace.of_kinds("a", "b")
    assert [r.n for r in merged] == [1, 2, 3]
