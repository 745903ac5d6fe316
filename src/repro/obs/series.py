"""Time-series telemetry: fixed-interval, ring-buffered metric curves.

The metrics registry answers "how much, in total"; a fault-injection
run needs "how much, *when*" — a 30-second drill whose degradation
window lasts two seconds exports the same totals as a healthy run, but
not the same curves.  The :class:`SeriesSampler` rides the scheduler's
repeating-event hook and snapshots every registered metric instance
into a :class:`Series` at a fixed simulated period:

* counters and gauges record ``(time, value)`` points;
* histograms record ``(time, count, sum, bucket_counts)`` points — the
  full log-bucket occupancy, so the distribution of observations
  *between* two samples (windowed quantiles, SLO bad-fractions) falls
  out of bucket deltas;
* every series is a bounded ring buffer (``MAX_POINTS``) with an
  explicit ``dropped`` counter — truncation is never silent, matching
  the flight-recorder discipline.

Per-ring labels survive untouched: a cluster's ring-scoped registries
stamp ``ring=<index>`` onto metric labels at creation, and the sampler
keys series by ``(family, labels)``, so per-ring throughput curves come
free.  Everything derives from the simulation clock and seeded state,
so two runs of one seed produce byte-identical series JSON across perf
modes.
"""

import math
from collections import deque

#: eight-level bar glyphs for terminal sparklines
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, width=None):
    """Render ``values`` as a unicode sparkline string.

    ``width`` resamples the series to at most that many glyphs (taking
    the max of each chunk, so short spikes stay visible).  A constant
    series renders at the lowest level; an empty one renders empty.
    """
    values = [0.0 if v is None else float(v) for v in values]
    if not values:
        return ""
    if width is not None and len(values) > width:
        chunk = len(values) / float(width)
        values = [
            max(values[int(i * chunk): max(int(i * chunk) + 1, int((i + 1) * chunk))])
            for i in range(width)
        ]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0.0:
        return SPARK_CHARS[0] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(top, int((v - lo) / span * top + 0.5))] for v in values
    )


class Series:
    """One metric instance's ring-buffered curve.

    ``points`` is a deque of tuples in sample-time order:
    ``(time, value)`` for counters/gauges, ``(time, count, sum,
    buckets)`` for histograms, where ``buckets`` is the sorted
    ``(index, count)`` tuple from
    :meth:`~repro.obs.metrics.Histogram.bucket_counts`.
    """

    __slots__ = ("name", "kind", "labels", "max_points", "points", "dropped")

    def __init__(self, name, kind, labels, max_points):
        self.name = name
        self.kind = kind
        #: sorted ``(label, value)`` tuple, same shape as the metric's
        self.labels = labels
        self.max_points = max_points
        self.points = deque()
        #: oldest points evicted once the ring buffer filled
        self.dropped = 0

    def append(self, point):
        self.points.append(point)
        if self.max_points is not None and len(self.points) > self.max_points:
            self.points.popleft()
            self.dropped += 1

    # ------------------------------------------------------------------
    # queries (all tolerate windows reaching before the first point)
    # ------------------------------------------------------------------

    def times(self):
        return [p[0] for p in self.points]

    def values(self):
        """Counter/gauge values (histograms yield their counts)."""
        return [p[1] for p in self.points]

    def point_at(self, time):
        """The last point with ``point.time <= time``, or ``None``."""
        best = None
        for point in self.points:
            if point[0] > time:
                break
            best = point
        return best

    def value_at(self, time, default=0):
        point = self.point_at(time)
        return default if point is None else point[1]

    def delta(self, t0, t1):
        """Counter (or histogram-count) increase over ``(t0, t1]``.

        A window opening before the first retained point reads the
        missing start as zero — correct for cumulative counters sampled
        from a zero-initialised registry, and the bounded-buffer answer
        once eviction has discarded the true start.
        """
        return self.value_at(t1) - self.value_at(t0)

    # ------------------------------------------------------------------
    # histogram-specific windows
    # ------------------------------------------------------------------

    def _buckets_at(self, time):
        point = self.point_at(time)
        return {} if point is None else dict(point[3])

    def delta_sum(self, t0, t1):
        a = self.point_at(t0)
        b = self.point_at(t1)
        return (0.0 if b is None else b[2]) - (0.0 if a is None else a[2])

    def delta_above(self, threshold, t0, t1):
        """Observations in ``(t0, t1]`` that landed above ``threshold``.

        Resolution is one log bucket: a bucket counts as *above* when
        its lower bound is at or past the threshold's bucket upper
        bound, i.e. partial buckets count as good — the conservative
        direction for an SLO (alerts need real evidence to fire).
        """
        if threshold <= 0.0:
            return self.delta(t0, t1)
        threshold_index = int(
            math.floor(math.log(threshold) / math.log(_HISTOGRAM_BASE))
        )
        before = self._buckets_at(t0)
        after = self._buckets_at(t1)
        total = 0
        for index, count in after.items():
            if index is None or index <= threshold_index:
                continue
            total += count - before.get(index, 0)
        return total

    def to_dict(self):
        points = []
        for point in self.points:
            if self.kind == "histogram":
                buckets = [[index, count] for index, count in point[3]]
                points.append([point[0], point[1], point[2], buckets])
            else:
                points.append([point[0], point[1]])
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "dropped": self.dropped,
            "points": points,
        }

    @classmethod
    def from_dict(cls, record):
        """Rebuild a series from a :meth:`to_dict` / JSONL ``series``
        record — the replay path for ``python -m repro.obs.watch``."""
        labels = tuple(sorted(record.get("labels", {}).items()))
        series = cls(
            record["name"], record["kind"], labels,
            max_points=max(len(record["points"]), 1),
        )
        series.dropped = record.get("dropped", 0)
        for point in record["points"]:
            if series.kind == "histogram":
                buckets = tuple(
                    (None if index is None else index, count)
                    for index, count in point[3]
                )
                series.points.append((point[0], point[1], point[2], buckets))
            else:
                series.points.append((point[0], point[1]))
        return series

    def __repr__(self):
        return "Series(%s%s, %d points, %d dropped)" % (
            self.name,
            dict(self.labels),
            len(self.points),
            self.dropped,
        )


#: histograms' log-bucket growth factor (kept in sync via import-time
#: assertion in the sampler below)
_HISTOGRAM_BASE = 1.1


class SeriesSampler:
    """Snapshots every registry metric into per-instance series.

    ``period`` is the fixed simulated sampling interval; ``MAX_POINTS``
    bounds every series (and the shared tick-time list) as a ring
    buffer; ``families`` optionally restricts sampling to a set of
    family names, keeping long benches light.

    The sampler is attached with :meth:`start` (which arms the
    scheduler's repeating-event hook) or driven manually with
    :meth:`tick` from tests.
    """

    #: points kept per series (and tick times kept) before the oldest go
    MAX_POINTS = 4096

    def __init__(self, registry, period, families=None):
        from repro.obs.metrics import Histogram

        assert Histogram.BASE == _HISTOGRAM_BASE, "bucket base drifted"
        self.registry = registry
        self.period = period
        self.families = None if families is None else frozenset(families)
        self._series = {}
        #: tick times, ring-buffered alongside the series
        self.times = deque()
        self.dropped_ticks = 0
        self._handle = None
        self._scheduler = None

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def start(self, scheduler):
        """Begin sampling on ``scheduler``'s clock (first tick after one
        period)."""
        self._scheduler = scheduler
        self._handle = scheduler.every(
            self.period, self.tick, scheduler, label="obs.series"
        )
        return self

    def stop(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def tick(self, scheduler):
        """Record one sample of every (selected) metric instance."""
        now = scheduler.now
        registry = self.registry
        registry.collect()
        for key, metric in registry.metrics():
            name = key[0]
            if self.families is not None and name not in self.families:
                continue
            series = self._series.get(key)
            if series is None:
                series = Series(name, metric.kind, key[1], self.MAX_POINTS)
                self._series[key] = series
            if metric.kind == "histogram":
                series.append((now, metric.count, metric.sum, metric.bucket_counts()))
            else:
                series.append((now, metric.value))
        self.times.append(now)
        if len(self.times) > self.MAX_POINTS:
            self.times.popleft()
            self.dropped_ticks += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def series(self):
        """Every series, sorted by (family, labels) for determinism."""
        return [self._series[key] for key in sorted(self._series)]

    def get(self, name, **labels):
        return self._series.get((name, tuple(sorted(labels.items()))))

    def family(self, name):
        """All series of one family, sorted by labels."""
        return [
            self._series[key] for key in sorted(self._series) if key[0] == name
        ]

    def family_delta(self, name, t0, t1):
        """Summed counter/histogram-count delta across a family."""
        return sum(series.delta(t0, t1) for series in self.family(name))

    def family_delta_above(self, name, threshold, t0, t1):
        """Summed above-threshold histogram delta across a family."""
        return sum(
            series.delta_above(threshold, t0, t1) for series in self.family(name)
        )

    def to_dicts(self):
        return [series.to_dict() for series in self.series()]
