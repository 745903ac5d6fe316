"""Unit tests for the metrics registry."""

import warnings

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, RingScopedRegistry
from repro.sim.scheduler import Scheduler


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("net.frames_sent", proc=0)
    counter.inc()
    counter.inc(4)
    assert registry.value("net.frames_sent", proc=0) == 5
    gauge = registry.gauge("queue_depth", proc=0)
    gauge.set(7)
    gauge.add(-2)
    assert registry.value("queue_depth", proc=0) == 5


def test_labels_identify_instances():
    registry = MetricsRegistry()
    a = registry.counter("sent", proc=0)
    b = registry.counter("sent", proc=1)
    assert a is not b
    assert a is registry.counter("sent", proc=0)
    a.inc(2)
    b.inc(3)
    assert registry.total("sent") == 5
    assert [dict(m.labels) for m in registry.family("sent")] == [
        {"proc": 0},
        {"proc": 1},
    ]
    # A never-created instance reads as zero.
    assert registry.value("sent", proc=9) == 0


def test_kind_conflict_is_an_error():
    registry = MetricsRegistry()
    registry.counter("x", proc=0)
    with pytest.raises(ValueError):
        registry.gauge("x", proc=0)


def test_histogram_quantiles_on_known_distribution():
    hist = Histogram("lat", ())
    values = [0.001 * n for n in range(1, 1001)]  # 1ms .. 1s uniform
    for v in values:
        hist.observe(v)
    assert hist.count == 1000
    assert hist.min == pytest.approx(0.001)
    assert hist.max == pytest.approx(1.0)
    assert hist.mean == pytest.approx(sum(values) / 1000)
    # Log-bucketed quantiles: relative error bounded by the bucket base.
    for q, exact in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)]:
        estimate = hist.quantile(q)
        assert abs(estimate - exact) / exact < Histogram.BASE - 1.0 + 0.02
    assert hist.quantile(0.0) == hist.min
    assert hist.quantile(1.0) == hist.max


def test_histogram_handles_zero_and_negative():
    hist = Histogram("deltas", ())
    hist.observe(0.0)
    hist.observe(-1.0)
    hist.observe(2.0)
    assert hist.count == 3
    assert hist.quantile(0.4) == 0.0  # the <=0 bucket sorts first
    d = hist.to_dict()
    assert d["min"] == -1.0 and d["max"] == 2.0


def test_empty_histogram_is_safe():
    hist = Histogram("empty", ())
    assert hist.quantile(0.5) == 0.0
    assert hist.mean == 0.0
    assert hist.to_dict()["count"] == 0


def test_snapshot_is_sorted_and_plain():
    registry = MetricsRegistry()
    registry.counter("b", proc=1).inc()
    registry.counter("a", proc=0).inc(2)
    registry.histogram("h").observe(0.5)
    snap = registry.snapshot()
    assert [entry["name"] for entry in snap] == ["a", "b", "h"]
    assert snap[0] == {"name": "a", "kind": "counter", "labels": {"proc": 0}, "value": 2}
    assert snap[2]["kind"] == "histogram"
    assert snap[2]["count"] == 1


def test_collectors_refresh_derived_metrics():
    registry = MetricsRegistry()
    state = {"depth": 3}
    registry.add_collector(
        lambda reg: reg.gauge("queue_depth").set(state["depth"])
    )
    registry.collect()
    assert registry.value("queue_depth") == 3
    state["depth"] = 9
    registry.collect()
    assert registry.value("queue_depth") == 9


def test_quantile_empty_histogram_returns_zero():
    hist = Histogram("h", ())
    for q in (0.0, 0.5, 1.0):
        assert hist.quantile(q) == 0.0


def test_quantile_extremes_return_observed_min_and_max():
    hist = Histogram("h", ())
    for value in (0.5, 1.0, 2.0, 8.0):
        hist.observe(value)
    assert hist.quantile(0.0) == 0.5
    assert hist.quantile(1.0) == 8.0
    # Out-of-range q clamps rather than raising.
    assert hist.quantile(-0.3) == 0.5
    assert hist.quantile(1.7) == 8.0


def test_quantile_single_bucket_clamps_to_extremes():
    hist = Histogram("h", ())
    # Identical observations occupy one log bucket: every interior
    # quantile must come back clamped inside [min, max].
    for _ in range(5):
        hist.observe(3.0)
    for q in (0.1, 0.5, 0.9):
        assert hist.quantile(q) == 3.0


def test_quantile_single_observation():
    hist = Histogram("h", ())
    hist.observe(0.25)
    assert hist.quantile(0.0) == 0.25
    assert hist.quantile(0.5) == 0.25
    assert hist.quantile(1.0) == 0.25


def test_bucket_counts_sorted_with_zero_bucket_first():
    hist = Histogram("h", ())
    hist.observe(0.0)     # zero bucket (index None)
    hist.observe(1.5)
    hist.observe(100.0)
    buckets = hist.bucket_counts()
    assert buckets[0][0] is None and buckets[0][1] == 1
    indexes = [index for index, _count in buckets[1:]]
    assert indexes == sorted(indexes)
    assert sum(count for _index, count in buckets) == 3


def test_label_cardinality_guard_warns_once_and_funnels(monkeypatch):
    monkeypatch.setattr(MetricsRegistry, "MAX_LABEL_SETS", 3)
    registry = MetricsRegistry()
    for n in range(3):
        registry.counter("per_op", op=n).inc()
    with pytest.warns(RuntimeWarning, match="exceeded 3 label sets"):
        registry.counter("per_op", op=3).inc()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        registry.counter("per_op", op=4).inc()
        registry.counter("per_op", op=5).inc(2)
    # Distinct refused label-sets share one overflow instance.
    assert registry.value("per_op", overflow=True) == 4
    # The family stayed bounded: 3 real instances + 1 overflow.
    assert len(registry.family("per_op")) == 4
    # Totals still include the funnelled increments.
    assert registry.total("per_op") == 7


def test_label_cardinality_guard_keeps_existing_instances_writable(monkeypatch):
    monkeypatch.setattr(MetricsRegistry, "MAX_LABEL_SETS", 2)
    registry = MetricsRegistry()
    first = registry.counter("ops", kind="a")
    registry.counter("ops", kind="b")
    with pytest.warns(RuntimeWarning):
        registry.counter("ops", kind="c")
    # Pre-existing label sets are unaffected by the cap.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = registry.counter("ops", kind="a")
    assert again is first


def test_overflow_instance_kind_conflict_is_an_error(monkeypatch):
    monkeypatch.setattr(MetricsRegistry, "MAX_LABEL_SETS", 1)
    registry = MetricsRegistry()
    registry.counter("mixed", op=0)
    with pytest.warns(RuntimeWarning):
        registry.counter("mixed", op=1)
    with pytest.raises(ValueError):
        registry.gauge("mixed", op=2)


# ----------------------------------------------------------------------
# derived counters: a layer's ``stats`` dict published by the registry
# ----------------------------------------------------------------------


def test_derived_counters_exist_at_zero_and_follow_their_stats():
    registry = MetricsRegistry()
    stats = {"sent": 0, "dropped": 0, "private": 0}
    registry.derive_counters(
        stats, {"sent": "net.frames_sent", "dropped": "net.frames_dropped"}, proc=2
    )
    # Registered at zero, before anything was counted, and only the
    # mapped keys are published.
    assert [(e["name"], e["labels"], e["value"]) for e in registry.snapshot()] == [
        ("net.frames_dropped", {"proc": 2}, 0),
        ("net.frames_sent", {"proc": 2}, 0),
    ]
    stats["sent"] += 3
    stats["private"] += 1
    assert registry.value("net.frames_sent", proc=2) == 3
    assert registry.value("net.frames_dropped", proc=2) == 0


def test_two_publishers_of_one_instance_add():
    registry = MetricsRegistry()
    families = {"copies": "vote.copies"}
    # Two voters of one group built without a processor label share
    # vote.copies{group=G}; a third has its own instance.
    first, second, other = {"copies": 2}, {"copies": 5}, {"copies": 1}
    registry.derive_counters(first, families, group="G")
    registry.derive_counters(second, families, group="G")
    registry.derive_counters(other, families, group="H")
    assert registry.value("vote.copies", group="G") == 7
    assert registry.total("vote.copies") == 8
    first["copies"] += 1
    second["copies"] += 1
    assert registry.value("vote.copies", group="G") == 9


def test_recreated_publisher_keeps_counting():
    registry = MetricsRegistry()
    families = {"delivered": "rm.delivered_to_orb"}
    old = {"delivered": 4}
    registry.derive_counters(old, families, proc=1)
    assert registry.value("rm.delivered_to_orb", proc=1) == 4
    # The object is rebuilt under its old labels: the counter goes on
    # from what the first incarnation counted, never back to zero.
    new = {"delivered": 0}
    registry.derive_counters(new, families, proc=1)
    assert registry.value("rm.delivered_to_orb", proc=1) == 4
    new["delivered"] += 2
    assert registry.value("rm.delivered_to_orb", proc=1) == 6


def test_overflow_instance_sums_every_folded_publisher(monkeypatch):
    monkeypatch.setattr(MetricsRegistry, "MAX_LABEL_SETS", 2)
    registry = MetricsRegistry()
    families = {"ops": "per_op"}
    stats = [{"ops": n + 1} for n in range(5)]
    with pytest.warns(RuntimeWarning, match="exceeded 2 label sets"):
        for n, entry in enumerate(stats):
            registry.derive_counters(entry, families, op=n)
    assert registry.value("per_op", op=0) == 1
    assert registry.value("per_op", op=1) == 2
    # Label sets 2, 3 and 4 were refused and share the overflow
    # instance, which keeps summing all three.
    assert registry.value("per_op", overflow=True) == 3 + 4 + 5
    assert len(registry.family("per_op")) == 3
    stats[2]["ops"] += 10
    stats[4]["ops"] += 100
    assert registry.value("per_op", overflow=True) == 3 + 4 + 5 + 110
    assert registry.total("per_op") == 125


def test_float_family_is_bit_equal_to_pushed_increments():
    costs = [0.1, 0.2, 0.30000000000000004, 1e-9, 7e-5, 3.3e-4] * 50
    pushed = MetricsRegistry().counter("crypto.seconds", op="sign")
    registry = MetricsRegistry()
    seconds = {"sign": 0, "verify": 0}
    for op in seconds:
        registry.derive_counters(seconds, {op: "crypto.seconds"}, op=op)
    for cost in costs:
        pushed.inc(cost)
        seconds["sign"] += cost
    # One publisher: the counter *is* the layer's own accumulation, so
    # the export is the same float to the last bit, and a family nobody
    # charged still exports the integer 0 (not 0.0).
    assert registry.value("crypto.seconds", op="sign") == pushed.value
    assert repr(registry.value("crypto.seconds", op="sign")) == repr(pushed.value)
    untouched = registry.snapshot()[1]
    assert untouched["labels"] == {"op": "verify"}
    assert repr(untouched["value"]) == "0"


def test_every_query_reads_fresh_counters_and_gauges():
    registry = MetricsRegistry()
    stats = {"sent": 0}
    state = {"depth": 0}
    registry.derive_counters(stats, {"sent": "sent"}, proc=0)
    registry.add_collector(lambda reg: reg.gauge("depth", proc=0).set(state["depth"]))

    # No collect() anywhere: each query refreshes the derived counter
    # and the collector-set gauge beside it before answering.
    stats["sent"], state["depth"] = 1, 10
    assert registry.value("sent", proc=0) == 1
    assert registry.value("depth", proc=0) == 10
    stats["sent"], state["depth"] = 2, 20
    assert registry.total("sent") == 2
    assert registry.total("depth") == 20
    stats["sent"], state["depth"] = 3, 30
    assert [m.value for m in registry.family("sent")] == [3]
    stats["sent"], state["depth"] = 4, 40
    assert [m.value for m in registry.family("depth")] == [40]
    stats["sent"], state["depth"] = 5, 50
    assert {e["name"]: e["value"] for e in registry.snapshot()} == {
        "sent": 5,
        "depth": 50,
    }


def test_collector_may_query_the_registry_it_refreshes():
    registry = MetricsRegistry()
    stats = {"sent": 6, "lost": 2}
    registry.derive_counters(stats, {"sent": "sent", "lost": "lost"})
    registry.add_collector(
        lambda reg: reg.gauge("loss_frac").set(reg.value("lost") / reg.value("sent"))
    )
    assert registry.value("loss_frac") == 2 / 6
    stats["lost"] = 3
    assert registry.value("loss_frac") == 3 / 6


def test_ring_scoped_view_stamps_its_labels_on_derived_counters():
    root = MetricsRegistry()
    stats = {"delivered": 0}
    RingScopedRegistry(root, ring_index=1, site="east").derive_counters(
        stats, {"delivered": "multicast.delivered"}, proc=4
    )
    stats["delivered"] += 5
    assert root.value("multicast.delivered", proc=4, ring=1, site="east") == 5
    assert root.value("multicast.delivered", proc=4) == 0
