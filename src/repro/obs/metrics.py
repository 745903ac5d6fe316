"""Metrics registry: counters, gauges, and streaming-quantile histograms.

The quantitative claims of the paper — Figure 7's latency/throughput
decomposition, Table 3's token-signature amortisation, the detector's
accuracy — are statements about *aggregates*, not individual events.
The :class:`MetricsRegistry` is the single aggregation point for every
layer of the stack (scheduler, network, multicast, voting, crypto).
Counts are *derived*: a layer counts each fact once, in its own plain
``stats`` dict, and hands that dict to :meth:`MetricsRegistry.
derive_counters`; the registry copies the values whenever it is
collected, so the hot path never touches a metric object for a count.
Histograms take their observations directly, and gauges are set by
collector callbacks.

Metrics are identified by a family name plus a set of labels (typically
``proc`` and/or ``group``), mirroring the label discipline of modern
metric systems.  Histograms use logarithmic buckets — bounded memory,
deterministic, with a relative quantile error bounded by the bucket
base — which is exactly what latency distributions need.

Everything here is deterministic for a fixed simulation seed: no wall
clocks, no randomness, and snapshots are emitted in sorted order.
"""

import math
import warnings


class Counter:
    """A monotonically increasing count (events, bytes, operations)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def to_dict(self):
        return {"value": self.value}

    def __repr__(self):
        return "Counter(%s%s=%r)" % (self.name, dict(self.labels), self.value)


class Gauge:
    """A point-in-time value (queue depth, CPU seconds, throughput)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value):
        self.value = value

    def add(self, amount):
        self.value += amount

    def to_dict(self):
        return {"value": self.value}

    def __repr__(self):
        return "Gauge(%s%s=%r)" % (self.name, dict(self.labels), self.value)


class Histogram:
    """Streaming quantile histogram over positive values.

    Observations land in logarithmic buckets ``base**i <= v < base**(i+1)``
    (plus a dedicated bucket for zero/negative values), so memory is
    bounded by the dynamic range of the data — a few hundred buckets
    even for values spanning nanoseconds to hours — and any quantile is
    recoverable with relative error bounded by ``base - 1``.  Exact
    count, sum, min and max are kept alongside.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "_buckets", "_log_base")
    kind = "histogram"

    #: default bucket growth factor: ~10% relative quantile error
    BASE = 1.1

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        #: bucket index -> count; index None holds values <= 0
        self._buckets = {}
        self._log_base = math.log(self.BASE)

    def observe(self, value):
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = None if value <= 0.0 else int(math.floor(math.log(value) / self._log_base))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self):
        """The log-bucket occupancy as a sorted tuple of ``(index, count)``.

        The zero/negative bucket (index ``None``) sorts first.  This is
        the state the time-series sampler snapshots: two snapshots'
        bucket deltas give the distribution of observations *between*
        them, which windowed quantiles and SLO bad-fractions need.
        """
        return tuple(
            sorted(
                self._buckets.items(),
                key=lambda kv: (-math.inf if kv[0] is None else kv[0]),
            )
        )

    def quantile(self, q):
        """The q-quantile (0 <= q <= 1), within one bucket's resolution."""
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        # The zero bucket sorts below every log bucket.
        ordered = sorted(
            self._buckets.items(), key=lambda kv: (-math.inf if kv[0] is None else kv[0])
        )
        for index, bucket_count in ordered:
            seen += bucket_count
            if seen >= rank:
                if index is None:
                    return 0.0
                low = self.BASE ** index
                high = self.BASE ** (index + 1)
                # Geometric midpoint, clamped to the observed extremes.
                mid = math.sqrt(low * high)
                return min(max(mid, self.min), self.max)
        return self.max

    def to_dict(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def __repr__(self):
        return "Histogram(%s%s, n=%d, p50=%r)" % (
            self.name,
            dict(self.labels),
            self.count,
            self.quantile(0.5),
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Registry of every metric instance in one simulated deployment.

    ``counter``/``gauge``/``histogram`` get-or-create an instance for a
    (family name, labels) pair.  ``derive_counters`` publishes a layer's
    ``stats`` dict as counters.  ``collect`` copies every derived
    counter from its sources and runs the registered collector
    callbacks (which refresh gauges, e.g. queue depths); ``snapshot``
    renders every metric as a sorted list of plain dicts.

    Freshness rule: every query (``value``, ``total``, ``family``,
    ``snapshot``) collects first, so a derived counter or a gauge is
    never read staler than the state it reports.  Only ``metrics()``
    iterates without collecting (the series sampler has just done so),
    as does a metric handle read directly.
    """

    #: cap on distinct label-sets per metric family.  High-cardinality
    #: labels (an invocation id, a timestamp) would otherwise silently
    #: multiply the export by the workload size.
    MAX_LABEL_SETS = 512

    def __init__(self):
        self._metrics = {}
        self._collectors = []
        #: Counter -> [(stats dict, key)]: the sources summed into each
        #: derived counter on collect
        self._derived = {}
        self._collecting = False
        #: the attached :class:`~repro.obs.series.SeriesSampler`, if any
        self.series_sampler = None
        #: family name -> distinct label-set count
        self._family_counts = {}
        #: families that hit the cap (each warned about once)
        self._capped = set()

    # ------------------------------------------------------------------
    # metric creation
    # ------------------------------------------------------------------

    def _get(self, kind, name, labels):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            count = self._family_counts.get(name, 0)
            if count >= self.MAX_LABEL_SETS:
                # Cardinality guard: warn once per family, then funnel
                # every further label-set into one overflow instance so
                # the family keeps counting without growing the export.
                if name not in self._capped:
                    self._capped.add(name)
                    warnings.warn(
                        "metric family %r exceeded %d label sets; further "
                        "label sets are folded into labels={'overflow': True}"
                        % (name, self.MAX_LABEL_SETS),
                        RuntimeWarning,
                        stacklevel=3,
                    )
                overflow_key = (name, (("overflow", True),))
                metric = self._metrics.get(overflow_key)
                if metric is None:
                    metric = _KINDS[kind](name, overflow_key[1])
                    self._metrics[overflow_key] = metric
                elif metric.kind != kind:
                    raise ValueError(
                        "metric %r already registered as a %s, not a %s"
                        % (name, metric.kind, kind)
                    )
                return metric
            metric = _KINDS[kind](name, key[1])
            self._metrics[key] = metric
            self._family_counts[name] = count + 1
        elif metric.kind != kind:
            raise ValueError(
                "metric %r already registered as a %s, not a %s"
                % (name, metric.kind, kind)
            )
        return metric

    def counter(self, name, **labels):
        return self._get("counter", name, labels)

    def gauge(self, name, **labels):
        return self._get("gauge", name, labels)

    def histogram(self, name, **labels):
        return self._get("histogram", name, labels)

    def derive_counters(self, stats, families, **labels):
        """Publish ``stats[key]`` as counter ``families[key]`` with ``labels``.

        ``stats`` stays the layer's own dict: the layer increments it and
        nothing else, and :meth:`collect` copies the current values.  The
        counters exist (at zero) from this call on.  Several publishers
        of one ``(family, labels)`` instance *add* — voters of one group
        built without a processor label, an object recreated under its
        old labels, label sets folded into the cap's ``overflow``
        instance — so a derived counter must not also be ``inc()``-ed.
        """
        for key, name in families.items():
            counter = self.counter(name, **labels)
            self._derived.setdefault(counter, []).append((stats, key))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def metrics(self):
        """Every ``((family, labels), metric)`` pair, unordered.

        The time-series sampler walks this on every tick; consumers that
        need determinism (snapshots, exports) sort by key themselves.
        """
        return self._metrics.items()

    def family(self, name):
        """Every metric instance of family ``name``, sorted by labels."""
        self.collect()
        return [
            metric
            for key, metric in sorted(self._metrics.items())
            if key[0] == name
        ]

    def total(self, name):
        """Sum of a counter/gauge family's values across all labels."""
        return sum(metric.value for metric in self.family(name))

    def value(self, name, **labels):
        """Value of one counter/gauge instance (0 if never created)."""
        self.collect()
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        return 0 if metric is None else metric.value

    # ------------------------------------------------------------------
    # collectors and snapshots
    # ------------------------------------------------------------------

    def add_collector(self, fn):
        """Register ``fn(registry)`` to refresh derived metrics on collect."""
        self._collectors.append(fn)

    def collect(self):
        """Bring every derived counter and collector-set gauge up to date."""
        if self._collecting:
            return  # a collector querying the registry it is refreshing
        self._collecting = True
        try:
            for counter, sources in self._derived.items():
                # Plain left-to-right addition from the integer 0 (the
                # builtin sum() compensates float sums since 3.12).
                value = 0
                for stats, key in sources:
                    value += stats[key]
                counter.value = value
            for fn in list(self._collectors):
                fn(self)
        finally:
            self._collecting = False

    def snapshot(self):
        """Render every metric as a sorted list of plain dicts."""
        self.collect()
        out = []
        for (name, labels), metric in sorted(self._metrics.items()):
            entry = {"name": name, "kind": metric.kind, "labels": dict(labels)}
            entry.update(metric.to_dict())
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # scheduler-driven sampling
    # ------------------------------------------------------------------

    def sample_series(self, scheduler, period, families=None):
        """Attach a :class:`~repro.obs.series.SeriesSampler` and start it.

        The series sampler keeps one bounded ring-buffered curve per
        metric instance — the time dimension of the telemetry layer.  The
        sampler is remembered as :attr:`series_sampler` so the exporter
        and report can find it; calling again replaces (and stops) the
        previous one.
        """
        from repro.obs.series import SeriesSampler

        if self.series_sampler is not None:
            self.series_sampler.stop()
        sampler = SeriesSampler(self, period, families=families)
        sampler.start(scheduler)
        self.series_sampler = sampler
        return sampler

    def stop_sampling(self):
        if self.series_sampler is not None:
            self.series_sampler.stop()


class RingScopedRegistry:
    """A labelling proxy over a shared :class:`MetricsRegistry`.

    A multi-ring deployment's rings share one registry; each ring's
    stack registers its metrics through one of these
    (:meth:`repro.obs.Observability.scoped` builds it), which injects
    ``ring=<index>`` — and ``site=<name>`` on a WAN federation — so the
    one snapshot separates per-ring token rates, vote counts and network
    load without any protocol layer learning about clusters.
    Collectors registered through the view are re-invoked with the view
    itself, so the gauges they refresh are ring-labelled too.  The view
    is write-only: every query and the samplers live on the shared root,
    :attr:`unscoped` — which is also where simulation-global consumers
    attach (the scheduler attaches its metrics to the root exactly once
    no matter how many ring views are bound to it).
    """

    def __init__(self, registry, ring_index, site=None):
        #: the shared root registry (never another scoped view)
        self._root = getattr(registry, "unscoped", registry)
        self.ring = ring_index
        #: site name stamped as ``site=<name>`` on WAN federations
        #: (None on single-site clusters, keeping their label sets —
        #: and therefore their exported artifacts — byte-identical)
        self.site = site

    @property
    def unscoped(self):
        return self._root

    def _scoped(self, labels):
        if "ring" not in labels:
            labels["ring"] = self.ring
        if self.site is not None and "site" not in labels:
            labels["site"] = self.site
        return labels

    # ------------------------------------------------------------------
    # metric creation: the API every layer of a ring's stack uses
    # ------------------------------------------------------------------

    def counter(self, name, **labels):
        return self._root.counter(name, **self._scoped(labels))

    def gauge(self, name, **labels):
        return self._root.gauge(name, **self._scoped(labels))

    def histogram(self, name, **labels):
        return self._root.histogram(name, **self._scoped(labels))

    def derive_counters(self, stats, families, **labels):
        self._root.derive_counters(stats, families, **self._scoped(labels))

    def add_collector(self, fn):
        self._root.add_collector(lambda _root, fn=fn, view=self: fn(view))
