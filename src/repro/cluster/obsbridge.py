"""Ring-scoped views of one shared observability bundle.

A cluster's rings share one :class:`~repro.obs.metrics.MetricsRegistry`,
one :class:`~repro.obs.spans.SpanTracker`, and (optionally) one
:class:`~repro.obs.forensics.ForensicsHub`; each ring's stack sees them
through the views here:

* :class:`RingScopedRegistry` stamps ``ring=<index>`` onto every metric
  a ring's layers create, so the one snapshot separates per-ring token
  rates, vote counts, and network load without any protocol layer
  learning about clusters;
* the span tracker is shared *unscoped* on purpose: spans are keyed by
  logical invocation ``(source_group, op_num)``, so a cross-ring
  invocation's marks from both rings land on the same span and the
  gateway hop appears as just another stage;
* :class:`RingScopedForensics` stamps each processor's flight recorder
  with its shard index, which the merged timeline needs because every
  ring numbers its token sequences from zero.

The views satisfy exactly the observability API the facade and the
protocol layers use (``registry.counter/gauge/histogram``,
``derive_counters``, ``add_collector``, ``obs.spans``,
``obs.forensics.recorder``, ``obs.bind``), so
:class:`~repro.core.immune.ImmuneSystem` takes one per ring with no
changes to its wiring.
"""


class RingScopedRegistry:
    """A labelling proxy over a shared :class:`MetricsRegistry`.

    Metric creation injects ``ring=<index>``; collectors registered
    through the view are re-invoked with the view itself, so the gauges
    they refresh are ring-labelled too.  The view is write-only: it is
    what a ring's stack registers metrics through, and every query and
    the samplers live on the shared root, :attr:`unscoped` — which is
    also where simulation-global consumers attach (the scheduler
    attaches its metrics to the root exactly once no matter how many
    ring views are bound to it).
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


class RingScopedForensics:
    """A shard-stamping view of the shared :class:`ForensicsHub`."""

    def __init__(self, hub, shard):
        self._hub = hub
        self.shard = shard

    @property
    def hub(self):
        return self._hub

    def recorder(self, proc_id):
        recorder = self._hub.recorder(proc_id)
        recorder.shard = self.shard
        return recorder

    def recorders(self):
        return self._hub.recorders()

    def record_ground_truth(self, fault_id, kind, culprit, time):
        return self._hub.record_ground_truth(fault_id, kind, culprit, time)

    def ground_truth(self):
        return self._hub.ground_truth()

    def bind(self, scheduler):
        self._hub.bind(scheduler)
        return self


class RingScopedTrace:
    """A shard-stamping view of the shared :class:`TraceCollector`.

    Key-addressed calls (stage marks, payload registration) pass
    through untouched — traces are keyed by logical invocation, like
    spans.  Positional calls (sequence numbers, token visits, vote
    tallies) get this ring's shard index stamped in, because every ring
    numbers its sequences and visits from zero.
    """

    def __init__(self, collector, shard):
        #: the shared root collector (never another scoped view)
        self.collector = getattr(collector, "collector", collector)
        self.shard = shard

    def bind(self, scheduler):
        self.collector.bind(scheduler)
        return self

    # key-addressed passthrough -----------------------------------------

    def begin(self, key, oneway=False):
        return self.collector.begin(key, oneway=oneway)

    def mark_stage(self, key, stage):
        self.collector.mark_stage(key, stage)

    def register_payload(self, payload, key, phase, parent):
        self.collector.register_payload(payload, key, phase, parent)

    def context_for(self, payload):
        return self.collector.context_for(payload)

    # shard-stamped positional hooks ------------------------------------

    def fragmented(self, ctx, sender, total):
        return self.collector.fragmented(ctx, sender, total, shard=self.shard)

    def copy_sent(self, ctx, sender, seq):
        self.collector.copy_sent(ctx, sender, seq, shard=self.shard)

    def token_covered(self, seq, token_info, certifying):
        self.collector.token_covered(seq, token_info, certifying, shard=self.shard)

    def certified(self, cert_info):
        self.collector.certified(cert_info, shard=self.shard)

    def retransmitted(self, seq, sender):
        self.collector.retransmitted(seq, sender, shard=self.shard)

    def delivered(self, seq, sender, covering_visit):
        self.collector.delivered(seq, sender, covering_visit, shard=self.shard)

    def reassembled(self, seq, sender):
        self.collector.reassembled(seq, sender, shard=self.shard)

    def vote_copy(self, key, phase, sender):
        self.collector.vote_copy(key, phase, sender, shard=self.shard)

    def vote_decided(self, key, phase):
        self.collector.vote_decided(key, phase, shard=self.shard)

    def gateway_forwarded(self, key, phase, via, from_ring, to_ring, corrupt):
        self.collector.gateway_forwarded(
            key, phase, via, from_ring, to_ring, corrupt, shard=self.shard
        )


class RingObservability:
    """The per-ring observability bundle handed to one ring's facade.

    Structurally an :class:`~repro.obs.Observability`: a ``registry``
    (ring-scoped), ``spans`` (shared), ``forensics`` (shard-stamping
    view or ``None``), ``trace`` (shard-stamping view or ``None``),
    and ``bind``.
    """

    def __init__(self, obs, ring_index, site=None, shard=None):
        """``site`` labels the ring's metrics on WAN federations.

        ``shard`` is the *globally unique* shard index stamped onto
        flight recorders and trace events; it defaults to the ring
        index (correct for a single cluster) but a federation passes
        ``ring_base + ring_index`` because every site numbers its rings
        from zero.
        """
        if shard is None:
            shard = ring_index
        self._obs = obs
        self.ring = ring_index
        self.site = site
        self.shard = shard
        self.registry = RingScopedRegistry(obs.registry, ring_index, site=site)
        self.spans = obs.spans
        self.forensics = (
            RingScopedForensics(obs.forensics, shard)
            if obs.forensics is not None
            else None
        )
        self.trace = (
            RingScopedTrace(obs.trace, shard) if obs.trace is not None else None
        )

    def bind(self, scheduler):
        self._obs.bind(scheduler)
        return self
