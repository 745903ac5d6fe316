"""Survivability forensics: causal flight recorder, fault attribution,
and detector-accuracy scoring.

The metrics layer (:mod:`repro.obs.metrics`) answers "how many"; this
module answers the survivability-analysis questions — *which replica
lied, when was it suspected, and how long did the ring take to heal?*
Three pieces:

* a per-processor :class:`FlightRecorder` — bounded buffers of
  structured protocol events (token send/receive/regenerate, digest
  mismatches, mutant-token detection, Value_Fault_Suspect, voting
  divergence with the offending replica and both value digests,
  membership reconfiguration and installs, delivery commits), each
  stamped with sim-time, processor, ring view id and token sequence,
  stored as plain rows until a reader asks for events, the per-visit
  chatter retained apart from everything else, with an explicit drop
  counter once a buffer wraps;
* a merge + attribution engine (:func:`merge_timeline`,
  :func:`attribute`) that splices every processor's recorder into one
  totally-ordered timeline, attributes each divergence and suspicion to
  a culprit replica, and reconstructs the membership epochs;
* a detector scorecard (:func:`score`) that joins the timeline against
  the injected-fault ground truth (:class:`InjectedFault` records from
  :mod:`repro.sim.faults` and :mod:`repro.multicast.adversary`) and
  emits per-scenario precision/recall, detection-latency and
  reconfiguration-time histograms — an empirical check of the paper's
  Table 5 detector properties.

``python -m repro.bench forensics`` runs a seeded intrusion drill (a
mutant-token equivocator, a value-faulting replica, and a processor
crash), renders the ASCII timeline, and writes the machine-readable
JSON report.  Every event derives from simulated state only, so the
report is byte-identical across repeated runs.
"""

import itertools
import json
from collections import deque

from repro.obs.export import fmt_seconds

#: default ring-buffer capacity of one processor's flight recorder
DEFAULT_CAPACITY = 4096

#: ground-truth fault kinds the detector is expected to attribute.
#: Masquerade and send omission are *suppressed* (never delivered, per
#: Table 1) rather than attributed to a processor, so they do not count
#: against recall.
DETECTABLE_KINDS = frozenset(
    {
        "crash",
        "fail_to_send",
        "fail_to_ack",
        "mutant_token",
        "malformed_token",
        "value_fault",
        "unresponsive",
    }
)

#: event kinds recorded once per token visit, commit, certificate or
#: forward — per-processor chatter that outnumbers everything else by
#: three orders of magnitude.  A recorder keeps them in a buffer of
#: their own so that they compete only with each other for retention;
#: every other kind (suspicions, installs, divergences, mismatches ...)
#: is evicted only by its own kind of news.
ROUTINE_KINDS = frozenset(
    {
        "token_send",
        "token_receive",
        "delivery_commit",
        "batch_sign",
        "batch_verify",
        "gateway_forward",
        "wan_forward",
    }
)

#: suspicion reasons backed by signed evidence or deterministic voting
#: agreement (mirrors repro.multicast.detector.PROVABLE_REASONS without
#: importing it — obs must not depend on the protocol layers)
_PROVABLE = frozenset(
    {"mutant_token", "mutant_proposal", "malformed_token", "value_fault", "excluded"}
)


def _jsonable(value):
    """Coerce event fields into deterministic JSON-serialisable shapes."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


class ForensicEvent:
    """One structured entry in a processor's flight recorder."""

    __slots__ = ("time", "proc", "ring", "seq", "etype", "fields", "shard")

    def __init__(self, time, proc, ring, seq, etype, fields, shard=0):
        self.time = time
        self.proc = proc
        #: ring view id in force at the recording processor
        self.ring = ring
        #: latest token sequence number seen at the recording processor
        self.seq = seq
        self.etype = etype
        self.fields = fields
        #: which token ring of a multi-ring cluster recorded the event.
        #: Every ring numbers its token sequences from zero, so ``seq``
        #: alone collides across shards; a single-ring run is shard 0.
        self.shard = shard

    def to_dict(self):
        out = {
            "time": self.time,
            "proc": self.proc,
            "ring": self.ring,
            "seq": self.seq,
            "shard": self.shard,
            "event": self.etype,
        }
        for key in sorted(self.fields):
            out[key] = _jsonable(self.fields[key])
        return out

    def get(self, name, default=None):
        return self.fields.get(name, default)

    def __repr__(self):
        body = ", ".join("%s=%r" % kv for kv in sorted(self.fields.items()))
        return "ForensicEvent(t=%.6f P%d shard=%d ring=%d seq=%s %s: %s)" % (
            self.time,
            self.proc,
            self.shard,
            self.ring,
            self.seq,
            self.etype,
            body,
        )


class FlightRecorder:
    """Bounded buffers of one processor's forensic rows.

    What is stored is one tuple per record, ``(index, time, ring, seq,
    shard, etype, fields)``; a :class:`ForensicEvent` exists only once a
    reader asks for :attr:`events`.  ``fields`` is kept, not copied: a
    caller that hands in a dict through :meth:`record_fields` (the
    shared summary of a sealed frame, say) must not change it afterwards.

    Rows live in two buffers of ``capacity`` each, so that per-visit
    chatter (:data:`ROUTINE_KINDS`) cannot evict the verdicts the
    scorecard is computed from.  Once a
    buffer is full, recording into it evicts its oldest row and bumps
    :attr:`dropped`, and the sim-times of the earliest and latest
    evicted rows are remembered — truncation is never silent.
    ``index`` counts this recorder's records and restores the recording
    order across the two buffers on read.

    The recorder also carries the *ring context*: the protocol layers
    update :attr:`ring` and :attr:`seq` as views are installed and
    tokens pass, and every row is stamped with the context (and the
    shard: elastic clusters re-home processors) current at its
    processor, so the merged timeline can be keyed by token sequence
    without every call site threading the token through.
    """

    __slots__ = (
        "proc_id",
        "capacity",
        "_routine",
        "_notable",
        "_recorded",
        "dropped",
        "first_dropped_time",
        "last_dropped_time",
        "ring",
        "seq",
        "shard",
        "_hub",
    )

    def __init__(self, proc_id, hub, capacity=DEFAULT_CAPACITY):
        self.proc_id = proc_id
        self.capacity = capacity
        self._routine = deque()
        self._notable = deque()
        self._recorded = 0
        self.dropped = 0
        self.first_dropped_time = None
        self.last_dropped_time = None
        self.ring = 0
        self.seq = 0
        #: cluster shard (token-ring index) this processor belongs to;
        #: set by :mod:`repro.cluster` when the ring is assembled
        self.shard = 0
        self._hub = hub

    def set_context(self, ring=None, seq=None):
        """Update the ring view id / token sequence context."""
        if ring is not None:
            self.ring = ring
        if seq is not None:
            self.seq = seq

    def record(self, etype, **fields):
        self.record_fields(etype, fields)

    def record_fields(self, etype, fields):
        """Record ``fields`` as they are: the dict is kept, not copied."""
        rows = self._routine if etype in ROUTINE_KINDS else self._notable
        self._recorded = index = self._recorded + 1
        rows.append(
            (index, self._hub._scheduler.now, self.ring, self.seq, self.shard, etype, fields)
        )
        if len(rows) > self.capacity:
            evicted = rows.popleft()[1]
            self.dropped += 1
            if self.first_dropped_time is None or evicted < self.first_dropped_time:
                self.first_dropped_time = evicted
            if self.last_dropped_time is None or evicted > self.last_dropped_time:
                self.last_dropped_time = evicted

    def __len__(self):
        return len(self._routine) + len(self._notable)

    @property
    def events(self):
        """The retained rows as events, in recording order; built per read."""
        proc = self.proc_id
        return [
            ForensicEvent(time, proc, ring, seq, etype, fields, shard)
            for _, time, ring, seq, shard, etype, fields in sorted(
                [*self._routine, *self._notable]
            )
        ]

    def to_dict(self):
        """Buffer health for the report (satellite: no silent loss)."""
        return {
            "proc": self.proc_id,
            "capacity": self.capacity,
            "events": len(self),
            "dropped_events": self.dropped,
            "first_dropped_time": self.first_dropped_time,
            "last_dropped_time": self.last_dropped_time,
        }


class InjectedFault:
    """Ground truth for one injected fault (who, what, when)."""

    __slots__ = ("fault_id", "kind", "culprit", "time")

    def __init__(self, fault_id, kind, culprit, time):
        self.fault_id = fault_id
        self.kind = kind
        self.culprit = culprit
        self.time = time

    @property
    def detectable(self):
        return self.kind in DETECTABLE_KINDS

    def to_dict(self):
        return {
            "fault_id": self.fault_id,
            "kind": self.kind,
            "culprit": self.culprit,
            "time": self.time,
            "detectable": self.detectable,
        }

    def __repr__(self):
        return "InjectedFault(%s)" % self.fault_id


def fault_id_for(kind, culprit, time):
    """The stable fault id joining ground truth to detector events.

    Pure function of the injection parameters — identical across perf
    modes, runs, and hosts for the same seeded scenario.
    """
    stamp = ("%.6f" % time).rstrip("0").rstrip(".")
    return "%s:P%d@%s" % (kind, culprit, stamp or "0")


class UnboundClock:
    """The time source of a hub or collector no scheduler was bound to."""

    now = 0.0


class ForensicsHub:
    """All processors' flight recorders plus the injected ground truth.

    Attach one to an :class:`~repro.obs.Observability` bundle
    (``Observability(forensics=ForensicsHub())``); the facade binds it
    to the scheduler and every protocol layer lazily creates its
    processor's recorder.  Components keep the single-``None``-check
    discipline: they resolve their recorder once at construction and
    test one attribute on the hot path.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = capacity
        self._recorders = {}
        #: fault_id -> InjectedFault, registered by the injectors
        self._ground_truth = {}
        self._scheduler = UnboundClock

    def bind(self, scheduler):
        self._scheduler = scheduler
        return self

    def recorder(self, proc_id):
        """Get-or-create the flight recorder for ``proc_id``."""
        recorder = self._recorders.get(proc_id)
        if recorder is None:
            recorder = FlightRecorder(proc_id, self, capacity=self.capacity)
            self._recorders[proc_id] = recorder
        return recorder

    def recorders(self):
        return [self._recorders[pid] for pid in sorted(self._recorders)]

    def record_ground_truth(self, fault_id, kind, culprit, time):
        """Register one injected fault (idempotent per fault id)."""
        if fault_id not in self._ground_truth:
            self._ground_truth[fault_id] = InjectedFault(fault_id, kind, culprit, time)
        return self._ground_truth[fault_id]

    def ground_truth(self):
        return [self._ground_truth[fid] for fid in sorted(self._ground_truth)]


# ----------------------------------------------------------------------
# merge + attribution engine
# ----------------------------------------------------------------------

def merge_timeline(hub):
    """Splice every recorder into one totally-ordered event timeline.

    The order is total and deterministic: events sort by sim-time, then
    shard, then token sequence, then processor, then event type, then
    serialised fields — so two runs of the same seed produce the
    identical list.  The shard precedes the token sequence because every
    ring of a cluster numbers its token sequences from zero: at equal
    sim-times, seq alone would interleave unrelated rings' events
    non-causally.  The fields are serialised only to order events that
    tie on everything before them.
    """
    events = []
    for recorder in hub.recorders():
        events.extend(recorder.events)
    events.sort(key=_merge_prefix)
    merged = []
    for _, tied in itertools.groupby(events, _merge_prefix):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda e: json.dumps(_jsonable(e.fields), sort_keys=True))
        merged += tied
    return merged


def _merge_prefix(event):
    return (event.time, event.shard, event.seq, event.proc, event.etype)


def _final_accusations(timeline):
    """Replay suspect/absolve events into the surviving accusation set.

    Returns ``{suspect: {"first_time", "reasons", "observers"}}`` for
    every processor that either carries a provable reason at any point
    or retains at least one unabsolved reason at the end of the
    timeline.  Transient suspicions that were absolved (the suspect
    proved liveness) do not accuse.
    """
    live = {}  # (observer, suspect) -> set(reasons)
    record = {}  # suspect -> accumulated attribution info
    provable_ever = set()
    for event in timeline:
        if event.etype == "suspect":
            suspect = event.get("suspect")
            reason = event.get("reason")
            live.setdefault((event.proc, suspect), set()).add(reason)
            if reason in _PROVABLE:
                provable_ever.add(suspect)
            info = record.setdefault(
                suspect, {"first_time": event.time, "reasons": set(), "observers": set()}
            )
            info["reasons"].add(reason)
            info["observers"].add(event.proc)
        elif event.etype == "absolve":
            suspect = event.get("suspect")
            reasons = live.get((event.proc, suspect))
            if reasons is not None:
                reasons.difference_update(event.get("cleared", ()))
    retained = {suspect for (_, suspect), reasons in live.items() if reasons}
    accused = retained | provable_ever
    return {s: record[s] for s in sorted(accused) if s in record}


def attribute(timeline):
    """Attribute divergences and suspicions; reconstruct membership epochs.

    Returns a dict with:

    * ``culprits`` — per accused processor: first suspicion time, the
      union of suspicion reasons, the observers that raised them, and
      the count of voting divergences laid at its feet;
    * ``divergences`` — every ``vote_divergence`` event (culprit,
      culprit digest, winning digest, operation);
    * ``membership_epochs`` — the distinct installed views in order,
      each with members, exclusions, and first/last install times.
    """
    accusations = _final_accusations(timeline)
    divergences = []
    for event in timeline:
        if event.etype == "vote_divergence":
            divergences.append(event)

    culprits = {}
    for suspect, info in accusations.items():
        culprits[suspect] = {
            "proc": suspect,
            "first_suspected": info["first_time"],
            "reasons": sorted(info["reasons"]),
            "observers": sorted(info["observers"]),
            "divergences": sum(
                1 for d in divergences if d.get("culprit") == suspect
            ),
        }

    epochs = []
    by_view = {}
    for event in timeline:
        if event.etype != "membership_install":
            continue
        key = (event.ring, tuple(event.get("members", ())))
        epoch = by_view.get(key)
        if epoch is None:
            epoch = {
                "ring": event.ring,
                "members": list(event.get("members", ())),
                "excluded": sorted(event.get("excluded", ())),
                "first_install": event.time,
                "last_install": event.time,
                "installed_by": [],
            }
            by_view[key] = epoch
            epochs.append(epoch)
        epoch["last_install"] = max(epoch["last_install"], event.time)
        if event.proc not in epoch["installed_by"]:
            epoch["installed_by"].append(event.proc)
    for epoch in epochs:
        epoch["installed_by"].sort()

    return {
        "culprits": [culprits[pid] for pid in sorted(culprits)],
        "divergences": [d.to_dict() for d in divergences],
        "membership_epochs": epochs,
    }


# ----------------------------------------------------------------------
# detector scorecard
# ----------------------------------------------------------------------

def _histogram(values):
    """Deterministic summary of a small sample of durations."""
    values = sorted(values)
    count = len(values)
    if not count:
        return {"count": 0, "min": None, "max": None, "mean": None,
                "p50": None, "p90": None, "values": []}

    def pct(q):
        return values[min(count - 1, int(q * count))]

    return {
        "count": count,
        "min": values[0],
        "max": values[-1],
        "mean": sum(values) / count,
        "p50": pct(0.50),
        "p90": pct(0.90),
        "values": values,
    }


def _reconfig_durations(timeline):
    """Pair each reconfig_begin with its install, per processor."""
    started = {}
    durations = []
    for event in timeline:
        if event.etype == "reconfig_begin":
            started.setdefault(event.proc, event.time)
        elif event.etype == "membership_install":
            begun = started.pop(event.proc, None)
            if begun is not None:
                durations.append(event.time - begun)
    return durations


def first_suspicion_times(timeline):
    """First suspicion time per ``(suspect, reason)`` — and per suspect
    overall under ``(suspect, None)``.

    This is the detector's answer to *when did you know?*; the SLO
    layer compares its burn-rate alert fire times against exactly these
    instants (via the scorecard's per-fault ``detection_time``).
    """
    first = {}
    for event in timeline:
        if event.etype == "suspect":
            suspect = event.get("suspect")
            first.setdefault((suspect, event.get("reason")), event.time)
            first.setdefault((suspect, None), event.time)
    return first


def score(hub, timeline=None):
    """Score the detector against the injected-fault ground truth.

    For every detectable injected fault the scorecard records whether
    the culprit ended the run accused (a true positive), the detection
    latency (injection time to the first suspicion of the culprit at or
    after it), and the reasons observed.  Accused processors that were
    never injected as faulty are false positives.  Non-detectable kinds
    (masquerade, send omission) are reported as ``suppressed`` and do
    not enter precision/recall — the protocols mask them rather than
    attribute them.
    """
    if timeline is None:
        timeline = merge_timeline(hub)
    truth = hub.ground_truth()
    accusations = _final_accusations(timeline)
    accused = set(accusations)

    first_suspicion = first_suspicion_times(timeline)

    per_fault = []
    latencies = []
    detected_culprits = set()
    faulty_culprits = set()
    for fault in truth:
        faulty_culprits.add(fault.culprit)
        entry = fault.to_dict()
        if not fault.detectable:
            entry["outcome"] = "suppressed"
            entry["detection_time"] = None
            entry["detection_latency"] = None
            per_fault.append(entry)
            continue
        if fault.culprit in accused:
            when = first_suspicion.get((fault.culprit, None))
            latency = max(0.0, when - fault.time) if when is not None else None
            entry["outcome"] = "detected"
            entry["detection_time"] = when
            entry["detection_latency"] = latency
            entry["reasons"] = accusations[fault.culprit]["reasons"] = sorted(
                accusations[fault.culprit]["reasons"]
            )
            if latency is not None:
                latencies.append(latency)
            detected_culprits.add(fault.culprit)
        else:
            entry["outcome"] = "missed"
            entry["detection_time"] = None
            entry["detection_latency"] = None
        per_fault.append(entry)

    detectable = {f.culprit for f in truth if f.detectable}
    true_positives = accused & detectable
    false_positives = accused - faulty_culprits
    precision = (
        len(true_positives) / len(accused) if accused else 1.0
    )
    recall = (
        len(true_positives & detected_culprits) / len(detectable)
        if detectable
        else 1.0
    )
    return {
        "ground_truth": [f.to_dict() for f in truth],
        "per_fault": per_fault,
        "accused": sorted(accused),
        "false_positives": sorted(false_positives),
        "precision": precision,
        "recall": recall,
        "detection_latency": _histogram(latencies),
        "reconfig_seconds": _histogram(_reconfig_durations(timeline)),
    }


# ----------------------------------------------------------------------
# report assembly and rendering
# ----------------------------------------------------------------------

def build_report(hub, scenario=None):
    """The full machine-readable forensics report as one plain dict."""
    timeline = merge_timeline(hub)
    return {
        "scenario": scenario or {},
        "recorders": [r.to_dict() for r in hub.recorders()],
        "dropped_events": sum(r.dropped for r in hub.recorders()),
        "timeline": [e.to_dict() for e in timeline],
        "attribution": attribute(timeline),
        "scorecard": score(hub, timeline),
    }


def recorder_summary(hub):
    """Compact buffer-health dict for embedding in the obs summary."""
    recorders = hub.recorders()
    return {
        "recorders": len(recorders),
        "events": sum(len(r) for r in recorders),
        "dropped_events": sum(r.dropped for r in recorders),
        "first_dropped_time": min(
            (r.first_dropped_time for r in recorders
             if r.first_dropped_time is not None),
            default=None,
        ),
        "last_dropped_time": max(
            (r.last_dropped_time for r in recorders
             if r.last_dropped_time is not None),
            default=None,
        ),
    }


_TIMELINE_HIDDEN = frozenset({"delivery_commit", "token_receive", "token_send"})


def _fmt_fields(event):
    parts = []
    for key in sorted(event.fields):
        parts.append("%s=%s" % (key, _jsonable(event.fields[key])))
    return " ".join(parts)


def render_timeline(timeline):
    """Render the merged timeline as fixed-width ASCII.

    The high-volume steady-state events (token circulation, delivery
    commits) are folded into one count so the intrusion story stays
    readable; the JSON report keeps every event.
    """
    lines = []
    add = lines.append
    multi_shard = any(event.shard for event in timeline)
    add("== merged forensic timeline " + "=" * 34)
    header = ("time", "ring", "seq", "proc", "event", "detail")
    if multi_shard:
        add("  %-10s %-5s %-5s %-5s %-4s %-22s %s" % ((header[0], "shard") + header[1:]))
    else:
        add("  %-10s %-5s %-5s %-4s %-22s %s" % header)
    suppressed = 0
    for event in timeline:
        if event.etype in _TIMELINE_HIDDEN:
            suppressed += 1
            continue
        if multi_shard:
            add(
                "  %-10s S%-4d %-5d %-5d P%-3d %-22s %s"
                % (
                    "%.4f" % event.time,
                    event.shard,
                    event.ring,
                    event.seq,
                    event.proc,
                    event.etype,
                    _fmt_fields(event),
                )
            )
            continue
        add(
            "  %-10s %-5d %-5d P%-3d %-22s %s"
            % (
                "%.4f" % event.time,
                event.ring,
                event.seq,
                event.proc,
                event.etype,
                _fmt_fields(event),
            )
        )
    if suppressed:
        add("  (... %d steady-state token/delivery events folded; the JSON "
            "report has them)" % suppressed)
    return "\n".join(lines)


def render_scorecard(report):
    """Render attribution + scorecard sections as fixed-width ASCII."""
    lines = []
    add = lines.append
    attribution = report["attribution"]
    scorecard = report["scorecard"]

    add("")
    add("== fault attribution " + "=" * 41)
    if attribution["culprits"]:
        for culprit in attribution["culprits"]:
            add(
                "  P%-3d first suspected t=%.4f  reasons=%s  observers=%s  divergences=%d"
                % (
                    culprit["proc"],
                    culprit["first_suspected"],
                    ",".join(culprit["reasons"]),
                    ",".join("P%d" % p for p in culprit["observers"]),
                    culprit["divergences"],
                )
            )
    else:
        add("  (no processor accused)")

    add("")
    add("== membership epochs " + "=" * 41)
    for epoch in attribution["membership_epochs"]:
        add(
            "  ring %-4d members=%s%s  installed %.4f..%.4f by %s"
            % (
                epoch["ring"],
                epoch["members"],
                (" excluded=%s" % epoch["excluded"]) if epoch["excluded"] else "",
                epoch["first_install"],
                epoch["last_install"],
                ",".join("P%d" % p for p in epoch["installed_by"]),
            )
        )

    add("")
    add("== detector scorecard " + "=" * 40)
    for entry in scorecard["per_fault"]:
        detail = ""
        if entry["outcome"] == "detected":
            detail = "  latency=%s reasons=%s" % (
                fmt_seconds(entry["detection_latency"]),
                ",".join(entry.get("reasons", ())),
            )
        add("  %-28s -> %-10s%s" % (entry["fault_id"], entry["outcome"], detail))
    add(
        "  precision=%.3f  recall=%.3f  false positives=%s"
        % (
            scorecard["precision"],
            scorecard["recall"],
            scorecard["false_positives"] or "none",
        )
    )
    latency = scorecard["detection_latency"]
    if latency["count"]:
        add(
            "  detection latency: n=%d min=%s p50=%s p90=%s max=%s"
            % (
                latency["count"],
                fmt_seconds(latency["min"]),
                fmt_seconds(latency["p50"]),
                fmt_seconds(latency["p90"]),
                fmt_seconds(latency["max"]),
            )
        )
    reconfig = scorecard["reconfig_seconds"]
    if reconfig["count"]:
        add(
            "  reconfiguration:   n=%d min=%s p50=%s p90=%s max=%s"
            % (
                reconfig["count"],
                fmt_seconds(reconfig["min"]),
                fmt_seconds(reconfig["p50"]),
                fmt_seconds(reconfig["p90"]),
                fmt_seconds(reconfig["max"]),
            )
        )

    add("")
    add("== flight recorders " + "=" * 42)
    for entry in report["recorders"]:
        dropped = ""
        if entry["dropped_events"]:
            dropped = "  DROPPED %d (t=%.4f..%.4f)" % (
                entry["dropped_events"],
                entry["first_dropped_time"],
                entry["last_dropped_time"],
            )
        add(
            "  P%-3d %5d/%d events%s"
            % (entry["proc"], entry["events"], entry["capacity"], dropped)
        )
    return "\n".join(lines)


def render_report(report, timeline):
    """The ASCII report: ``timeline`` (the :func:`merge_timeline` the
    report was built from) and the report's attribution and scorecard."""
    return render_timeline(timeline) + render_scorecard(report)
