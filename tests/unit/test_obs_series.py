"""Unit tests for the ring-buffered time-series sampler."""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.series import Series, SeriesSampler, sparkline
from repro.sim.scheduler import Scheduler


def sampled_registry(period=0.5, families=None):
    scheduler = Scheduler()
    registry = MetricsRegistry()
    sampler = registry.sample_series(scheduler, period=period, families=families)
    return scheduler, registry, sampler


# ----------------------------------------------------------------------
# sparkline
# ----------------------------------------------------------------------

def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line == "▁▂▃▄▅▆▇█"


def test_sparkline_width_resampling_keeps_spikes():
    values = [0.0] * 20
    values[13] = 9.0  # one short spike
    line = sparkline(values, width=5)
    assert len(line) == 5
    assert "█" in line  # chunk-max keeps the spike visible


def test_sparkline_none_values_read_as_zero():
    assert sparkline([None, 1.0]) == "▁█"


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_counter_series_records_cumulative_points():
    scheduler, registry, sampler = sampled_registry(period=0.5)
    counter = registry.counter("ticks")
    scheduler.at(0.2, counter.inc, label="w")
    scheduler.at(0.7, counter.inc, label="w")
    scheduler.run(until=1.0)
    series = sampler.get("ticks")
    assert series.kind == "counter"
    assert list(series.points) == [(0.5, 1), (1.0, 2)]
    assert list(sampler.times) == [0.5, 1.0]


def test_series_delta_and_rate():
    scheduler, registry, sampler = sampled_registry(period=0.5)
    counter = registry.counter("ticks")
    scheduler.at(0.2, counter.inc, label="w")
    scheduler.at(0.7, lambda: counter.inc(3), label="w")
    scheduler.run(until=1.5)
    series = sampler.get("ticks")
    assert series.delta(0.5, 1.0) == 3
    assert series.delta(0.0, 1.5) == 4
    assert series.value_at(0.6) == 1  # last point at or before t
    assert series.value_at(0.1) == 0  # before the first sample


def test_histogram_series_supports_windowed_bad_fractions():
    scheduler, registry, sampler = sampled_registry(period=1.0)
    hist = registry.histogram("lat")
    scheduler.at(0.5, hist.observe, 0.01, label="w")
    scheduler.at(1.5, hist.observe, 0.9, label="w")
    scheduler.at(1.6, hist.observe, 0.8, label="w")
    scheduler.run(until=2.0)
    assert sampler.family_delta("lat", 0.0, 2.0) == 3
    # Only the second window's observations exceed 0.25.
    assert sampler.family_delta_above("lat", 0.25, 0.0, 1.0) == 0
    assert sampler.family_delta_above("lat", 0.25, 1.0, 2.0) == 2


def test_ring_buffer_drops_oldest_with_explicit_counter(monkeypatch):
    monkeypatch.setattr(SeriesSampler, "MAX_POINTS", 3)
    scheduler, registry, sampler = sampled_registry(period=0.5)
    counter = registry.counter("ticks")
    counter.inc()
    scheduler.run(until=3.0)  # 6 ticks into a 3-point ring
    series = sampler.get("ticks")
    assert len(series.points) == 3
    assert series.dropped == 3
    assert sampler.dropped_ticks == 3
    assert [p[0] for p in series.points] == [2.0, 2.5, 3.0]


def test_families_filter_limits_what_is_sampled():
    scheduler, registry, sampler = sampled_registry(
        period=0.5, families=("keep",)
    )
    registry.counter("keep").inc()
    registry.counter("discard").inc()
    scheduler.run(until=1.0)
    names = {series.name for series in sampler.series()}
    assert names == {"keep"}


def test_labels_key_distinct_series():
    scheduler, registry, sampler = sampled_registry(period=0.5)
    registry.counter("sent", ring=0).inc()
    registry.counter("sent", ring=1).inc(2)
    scheduler.run(until=0.5)
    family = sampler.family("sent")
    assert len(family) == 2
    by_ring = {dict(series.labels)["ring"]: series for series in family}
    assert by_ring[0].value_at(0.5) == 1
    assert by_ring[1].value_at(0.5) == 2


def test_stop_halts_sampling():
    scheduler, registry, sampler = sampled_registry(period=0.5)
    registry.counter("ticks").inc()
    scheduler.at(1.1, sampler.stop, label="stop")
    scheduler.run(until=3.0)
    assert list(sampler.times) == [0.5, 1.0]


def test_sample_series_replaces_previous_sampler():
    scheduler = Scheduler()
    registry = MetricsRegistry()
    first = registry.sample_series(scheduler, period=0.5)
    second = registry.sample_series(scheduler, period=0.25)
    assert registry.series_sampler is second
    registry.counter("ticks").inc()
    scheduler.run(until=1.0)
    assert list(first.times) == []  # replaced before it ever ticked
    assert list(second.times) == [0.25, 0.5, 0.75, 1.0]


def test_series_round_trips_through_dicts():
    scheduler, registry, sampler = sampled_registry(period=0.5)
    registry.counter("ticks", ring=1).inc()
    hist = registry.histogram("lat")
    hist.observe(0.0)
    hist.observe(0.5)
    scheduler.run(until=1.0)
    for original in sampler.series():
        rebuilt = Series.from_dict(original.to_dict())
        assert rebuilt.name == original.name
        assert rebuilt.kind == original.kind
        assert rebuilt.labels == original.labels
        assert list(rebuilt.points) == list(original.points)
        assert rebuilt.to_dict() == original.to_dict()


def test_base_stays_in_sync_with_histogram():
    from repro.obs import series as series_mod

    assert series_mod._HISTOGRAM_BASE == Histogram.BASE
