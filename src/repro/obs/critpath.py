"""Critical-path latency attribution: stage deltas decomposed into causes.

An :class:`~repro.obs.spans.InvocationSpan` says *where* an invocation
spent its time (which Figure-7 stage); this module says *why*.  Each
stage delta is joined against the flight-recorder timeline
(:mod:`repro.obs.forensics`) and the crypto cost model
(:mod:`repro.crypto.costmodel`) and split across protocol causes:

* ``token_wait`` — waiting for the ring token to circulate to a sender;
* ``signing`` / ``verification`` — RSA work on *signed* token
  originations and acceptances inside the stage window (cost-model
  priced; unsigned batch-mode tokens carry no such cost);
* ``batch_sign`` / ``batch_verify`` — one-signature-per-span
  certificate work of the batch-signature pipeline, priced by
  ``batch_sign_cost`` / ``batch_verify_cost`` at the recorded batch
  size;
* ``retransmission`` — stalls between a token-loss regeneration and the
  next live token event;
* ``vote_quorum_wait`` — waiting for a majority of copies to arrive;
* ``gateway_hop`` — cross-ring voted gateway re-origination;
* ``migration`` — elastic live-migration holds: the time an invocation
  spent parked between interception and its release at cutover (the
  ``migration_held`` stage is marked at release, so its whole delta is
  the hold);
* ``wan_hop`` — cross-site voted WAN-gateway re-origination, priced off
  the inter-site latency matrix (the ``wan_forwarded`` stages are marked
  when the copy *lands*, so their deltas contain the WAN flight time);
* ``client_processing`` / ``dispatch`` / ``execution`` — endpoint work
  at the client and server sides;
* ``ordering`` — the residual: network transmission plus in-order
  delivery machinery.

The decomposition is deterministic (it reads only sim-time events and
the cost model) and conservative: evidence-backed causes are clamped so
they never exceed the stage delta, in a fixed priority order, and the
remainder lands in the stage's residual cause — every span's cause
seconds sum exactly to its end-to-end latency.
"""

from bisect import bisect_left, bisect_right

from repro.obs.export import fmt_seconds
from repro.obs.spans import SPAN_STAGES

#: attribution causes, in report order
CAUSES = (
    "token_wait",
    "signing",
    "verification",
    "batch_sign",
    "batch_verify",
    "retransmission",
    "vote_quorum_wait",
    "gateway_hop",
    "wan_hop",
    "migration",
    "client_processing",
    "dispatch",
    "execution",
    "ordering",
)

#: stages whose whole delta maps to one cause directly
_DIRECT_CAUSE = {
    "migration_held": "migration",
    "multicast_queued": "client_processing",
    "gateway_forwarded": "gateway_hop",
    "wan_forwarded": "wan_hop",
    "voted": "vote_quorum_wait",
    "dispatched": "dispatch",
    "executed": "execution",
    "reply_gateway_forwarded": "gateway_hop",
    "reply_wan_forwarded": "wan_hop",
    "reply_voted": "vote_quorum_wait",
}

#: stages decomposed against token-circulation evidence
_TOKEN_STAGES = frozenset({"ordered", "reply_ordered"})


class _TokenEvidence:
    """Sorted token-circulation event times, per shard, from a timeline."""

    def __init__(self, timeline):
        #: shard -> sorted times of live token events (send or receive)
        self.token_times = {}
        #: shard -> sorted times of token-loss regenerations
        self.regen_times = {}
        #: shard -> sorted times of *signed* token originations (batch
        #: mode circulates unsigned tokens, which cost no RSA work)
        self.send_times = {}
        #: shard -> sorted times of *signed* token acceptances
        self.receive_times = {}
        #: shard -> sorted (time, batch size) of certificate signings
        self.batch_signs = {}
        #: shard -> sorted (time, batch size) of certificate verifies
        self.batch_verifies = {}
        for event in timeline:
            if event.etype in ("token_send", "token_receive"):
                self.token_times.setdefault(event.shard, []).append(event.time)
                signed = event.fields.get("signed", True)
                if event.etype == "token_send":
                    if signed:
                        self.send_times.setdefault(event.shard, []).append(event.time)
                elif signed:
                    self.receive_times.setdefault(event.shard, []).append(event.time)
            elif event.etype == "token_regenerate":
                self.regen_times.setdefault(event.shard, []).append(event.time)
            elif event.etype == "batch_sign":
                self.batch_signs.setdefault(event.shard, []).append(
                    (event.time, event.fields.get("count", 1))
                )
            elif event.etype == "batch_verify":
                self.batch_verifies.setdefault(event.shard, []).append(
                    (event.time, event.fields.get("count", 1))
                )
        for mapping in (
            self.token_times,
            self.regen_times,
            self.send_times,
            self.receive_times,
            self.batch_signs,
            self.batch_verifies,
        ):
            for times in mapping.values():
                times.sort()

    def _times(self, mapping, shard):
        if shard is None:
            # No shard refinement: merge every ring's evidence.
            merged = []
            for times in mapping.values():
                merged.extend(times)
            merged.sort()
            return merged
        return mapping.get(shard, [])

    def window(self, mapping, shard, t0, t1):
        """Event times in the half-open stage window ``(t0, t1]``."""
        times = self._times(mapping, shard)
        return times[bisect_right(times, t0): bisect_right(times, t1)]

    def window_pairs(self, mapping, shard, t0, t1):
        """(time, value) pairs in the half-open stage window ``(t0, t1]``."""
        pairs = self._times(mapping, shard)
        top = float("inf")
        return pairs[
            bisect_right(pairs, (t0, top)): bisect_right(pairs, (t1, top))
        ]

    def next_token_after(self, shard, time, default):
        times = self._times(self.token_times, shard)
        index = bisect_left(times, time)
        # bisect_left admits an event exactly at ``time``; a regeneration
        # resolved by a token in the same instant costs nothing.
        return times[index] if index < len(times) else default


def _merged_interval_seconds(intervals):
    """Total length of a union of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def attribute_span(span, evidence, cost_model=None, shard=None):
    """Decompose one span's stage deltas into ``[(stage, cause, seconds)]``.

    Seconds per stage sum exactly to the stage delta; the first marked
    stage contributes nothing (it anchors the clock).
    """
    out = []
    previous = None
    for stage in SPAN_STAGES:
        t1 = span.marks.get(stage)
        if t1 is None:
            continue
        if previous is None:
            previous = (stage, t1)
            continue
        t0 = previous[1]
        delta = t1 - t0
        previous = (stage, t1)
        if delta <= 0.0:
            continue
        direct = _DIRECT_CAUSE.get(stage)
        if direct is not None:
            out.append((stage, direct, delta))
            continue
        if stage not in _TOKEN_STAGES:
            out.append((stage, "ordering", delta))
            continue

        remaining = delta
        components = []

        # Retransmission stalls: each regeneration freezes progress
        # until the next live token event (or the stage's end).
        regens = evidence.window(evidence.regen_times, shard, t0, t1)
        stall_intervals = [
            (r, min(t1, evidence.next_token_after(shard, r, t1))) for r in regens
        ]
        components.append(
            ("retransmission", _merged_interval_seconds(stall_intervals))
        )

        # Token wait: from the stage's start to the first token event.
        tokens = evidence.window(evidence.token_times, shard, t0, t1)
        components.append(("token_wait", (tokens[0] - t0) if tokens else 0.0))

        # Crypto work on the path, priced by the cost model.  Only
        # *signed* token events cost RSA time; in batch mode that work
        # moves to certificates, priced at their recorded batch size.
        if cost_model is not None:
            sends = evidence.window(evidence.send_times, shard, t0, t1)
            receives = evidence.window(evidence.receive_times, shard, t0, t1)
            components.append(("signing", len(sends) * cost_model.sign_cost()))
            components.append(
                ("verification", len(receives) * cost_model.verify_cost())
            )
            batch_signs = evidence.window_pairs(evidence.batch_signs, shard, t0, t1)
            batch_verifies = evidence.window_pairs(
                evidence.batch_verifies, shard, t0, t1
            )
            components.append(
                (
                    "batch_sign",
                    sum(cost_model.batch_sign_cost(count) for _, count in batch_signs),
                )
            )
            components.append(
                (
                    "batch_verify",
                    sum(
                        cost_model.batch_verify_cost(count)
                        for _, count in batch_verifies
                    ),
                )
            )

        # Clamp in fixed priority order so causes never oversubscribe
        # the stage; the unexplained remainder is ordering/network time.
        for cause, seconds in components:
            taken = min(max(seconds, 0.0), remaining)
            if taken > 0.0:
                out.append((stage, cause, taken))
                remaining -= taken
        if remaining > 0.0:
            out.append((stage, "ordering", remaining))
    return out


def attribute_spans(
    spans, timeline, cost_model=None, shard_of_group=None, site_of_shard=None
):
    """Attribute every closed span; aggregate per cause, stage, group, ring.

    ``spans`` is a :class:`~repro.obs.spans.SpanTracker`; ``timeline``
    the merged forensic timeline; ``shard_of_group`` optionally maps a
    span's source group name to its home ring so token evidence is read
    from the right shard in a cluster (``None`` merges all rings).
    ``site_of_shard`` maps shard index -> site name on a WAN federation
    and adds a ``per_site`` aggregation keyed by site name.

    Returns a plain dict: ``per_cause`` (seconds and share),
    ``per_stage`` (stage × cause rows), ``per_group`` and ``per_ring``
    (and, with ``site_of_shard``, ``per_site``) cause totals, and the
    span/second totals they aggregate.
    """
    evidence = _TokenEvidence(timeline)
    per_cause = {}
    per_stage = {}
    per_group = {}
    per_ring = {}
    per_site = {}
    total_seconds = 0.0
    closed = spans.closed_spans()
    for span in closed:
        group = span.key[0]
        shard = None if shard_of_group is None else shard_of_group.get(group)
        ring_key = 0 if shard is None else shard
        site_key = None
        if site_of_shard is not None:
            site_key = site_of_shard.get(ring_key, "?")
        rows = attribute_span(span, evidence, cost_model=cost_model, shard=shard)
        for stage, cause, seconds in rows:
            per_cause[cause] = per_cause.get(cause, 0.0) + seconds
            per_stage[(stage, cause)] = per_stage.get((stage, cause), 0.0) + seconds
            group_causes = per_group.setdefault(group, {})
            group_causes[cause] = group_causes.get(cause, 0.0) + seconds
            ring_causes = per_ring.setdefault(ring_key, {})
            ring_causes[cause] = ring_causes.get(cause, 0.0) + seconds
            if site_key is not None:
                site_causes = per_site.setdefault(site_key, {})
                site_causes[cause] = site_causes.get(cause, 0.0) + seconds
            total_seconds += seconds

    stage_order = {stage: i for i, stage in enumerate(SPAN_STAGES)}
    cause_order = {cause: i for i, cause in enumerate(CAUSES)}
    report = {
        "spans": len(closed),
        "total_seconds": total_seconds,
        "per_cause": [
            {
                "cause": cause,
                "seconds": per_cause[cause],
                "share": per_cause[cause] / total_seconds if total_seconds else 0.0,
            }
            for cause in sorted(
                per_cause, key=lambda c: (-per_cause[c], cause_order[c])
            )
        ],
        "per_stage": [
            {"stage": stage, "cause": cause, "seconds": seconds}
            for (stage, cause), seconds in sorted(
                per_stage.items(),
                key=lambda kv: (stage_order[kv[0][0]], cause_order[kv[0][1]]),
            )
        ],
        "per_group": {
            group: {
                cause: causes[cause] for cause in sorted(causes, key=cause_order.get)
            }
            for group, causes in sorted(per_group.items())
        },
        "per_ring": {
            str(ring): {
                cause: causes[cause] for cause in sorted(causes, key=cause_order.get)
            }
            for ring, causes in sorted(per_ring.items())
        },
    }
    if site_of_shard is not None:
        report["per_site"] = {
            site: {
                cause: causes[cause] for cause in sorted(causes, key=cause_order.get)
            }
            for site, causes in sorted(per_site.items())
        }
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_critpath(report, width=28):
    """Fixed-width ASCII rendering of an :func:`attribute_spans` report."""
    lines = []
    add = lines.append
    add("== Critical path by protocol cause %s" % ("=" * 27))
    if not report["per_cause"]:
        add("  (no closed spans to attribute)")
        return "\n".join(lines)
    add(
        "  %d closed spans, %s attributed"
        % (report["spans"], fmt_seconds(report["total_seconds"]))
    )
    for row in report["per_cause"]:
        bar = "#" * max(1, int(row["share"] * width + 0.5)) if row["share"] else ""
        add(
            "  %-18s %12s %6.1f%% %s"
            % (row["cause"], fmt_seconds(row["seconds"]), row["share"] * 100.0, bar)
        )
    add("  by stage:")
    for row in report["per_stage"]:
        add(
            "    %-18s %-18s %12s"
            % (row["stage"], row["cause"], fmt_seconds(row["seconds"]))
        )
    rings = report["per_ring"]
    if len(rings) > 1:
        add("  by ring:")
        for ring, causes in rings.items():
            top = sorted(causes.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
            add(
                "    ring %-4s %s"
                % (ring, "  ".join("%s=%s" % (c, fmt_seconds(s)) for c, s in top))
            )
    sites = report.get("per_site")
    if sites:
        add("  by site:")
        for site, causes in sites.items():
            top = sorted(causes.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
            add(
                "    site %-8s %s"
                % (site, "  ".join("%s=%s" % (c, fmt_seconds(s)) for c, s in top))
            )
    return "\n".join(lines)
