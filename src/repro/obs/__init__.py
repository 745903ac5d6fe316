"""Observability for the Immune system reproduction.

The paper's claims are quantitative; this package is the measured view
of a running simulation:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters, gauges, and streaming-quantile histograms, fed by every
  layer of the stack;
* :mod:`repro.obs.spans` — causal :class:`InvocationSpan` records that
  follow one CORBA invocation from client-side interception through
  token-ordered delivery, majority voting, server execution, and the
  voted reply — Figure 7's latency decomposition, measured;
* :mod:`repro.obs.export` — a JSONL exporter and console dashboard;
* ``python -m repro.obs.report --input`` and ``python -m
  repro.obs.watch --replay`` — the two readers of that artefact.

It is a library: it imports nothing from the rest of ``repro``, and
the drills that exercise it are rows of ``python -m repro.bench``.

An :class:`Observability` bundle is handed to
:class:`~repro.core.immune.ImmuneSystem` (or built standalone for the
protocol-only worlds) and wires itself through the scheduler, network,
multicast, voting, and crypto layers::

    obs = Observability()
    immune = ImmuneSystem(num_processors=6, config=config, obs=obs)
    ...
    immune.run(until=2.0)
    print(render_dashboard(summarize(obs)))
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.series import Series, SeriesSampler, sparkline
from repro.obs.slo import DEFAULT_SLOS, BurnRule, SLOEngine, SLOSpec
from repro.obs.spans import SPAN_STAGES, InvocationSpan, SpanTracker
from repro.obs.trace import TraceCollector


class Observability:
    """One deployment's metrics registry, span tracker, and (optionally)
    the survivability-forensics hub of per-processor flight recorders
    (:mod:`repro.obs.forensics`).  ``forensics`` stays ``None`` unless a
    :class:`~repro.obs.forensics.ForensicsHub` is supplied, so ordinary
    runs pay nothing for the recorder hooks."""

    def __init__(self, forensics=None, trace=None):
        self.registry = MetricsRegistry()
        self.spans = SpanTracker(registry=self.registry)
        self.forensics = forensics
        #: optional :class:`~repro.obs.trace.TraceCollector`; like
        #: forensics, ``None`` means the trace hooks cost nothing.
        self.trace = trace

    def bind(self, scheduler):
        """Attach the simulation's scheduler as the time source."""
        self.spans.bind(scheduler)
        if self.forensics is not None:
            self.forensics.bind(scheduler)
        if self.trace is not None:
            self.trace.bind(scheduler)
        return self


__all__ = [
    "BurnRule",
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "InvocationSpan",
    "MetricsRegistry",
    "Observability",
    "SLOEngine",
    "SLOSpec",
    "SPAN_STAGES",
    "Series",
    "SeriesSampler",
    "SpanTracker",
    "TraceCollector",
    "sparkline",
]
