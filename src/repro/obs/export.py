"""Run-report export: JSONL artefacts and a console dashboard.

Two consumers sit on the observability layer.  Machine-readable output
is a JSONL file — one self-describing record per line (``run`` header,
every metric instance, every metric's time series, every span, the
aggregated stage breakdown, and a final ``summary``) — which keeps the
artefact grep-able and stream-parsable without a schema registry;
:func:`read_jsonl` is the one reader the replaying CLIs share.  The
human-readable output is a fixed-width console dashboard built from the
same :func:`summarize` dict, so the two never disagree.

Everything emitted is deterministic for a fixed simulation seed: keys
are sorted, floats come straight from the simulation clock, and no wall
time or hostnames are recorded.
"""

import json


class JsonlInputError(Exception):
    """A JSONL artefact that cannot be read back (missing, empty, not
    JSON, or without the records its reader needs)."""


def read_jsonl(path):
    """Every record of a JSONL artefact, in file order.

    Raises :class:`JsonlInputError` with a human-readable message when
    the file is missing, empty or has a line that is not JSON — the CLIs
    turn that into a nonzero exit instead of a traceback.
    """
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
    except OSError as exc:
        raise JsonlInputError("cannot read JSONL input %s: %s" % (path, exc))
    if not lines:
        raise JsonlInputError("JSONL input %s is empty" % path)
    records = []
    for index, line in enumerate(lines, start=1):
        try:
            records.append(json.loads(line))
        except ValueError:
            raise JsonlInputError(
                "JSONL input %s: line %d is not valid JSON" % (path, index)
            )
    return records


def _family_totals(registry, name, label=None):
    """Sum a counter family's values, optionally grouped by one label."""
    if label is None:
        return registry.total(name)
    out = {}
    for metric in registry.family(name):
        key = dict(metric.labels).get(label)
        out[key] = out.get(key, 0) + metric.value
    return out


def _merge_histograms(registry, name):
    """Collapse a histogram family into one summary dict."""
    count = 0
    total = 0.0
    lo = None
    hi = None
    for metric in registry.family(name):
        if metric.count == 0:
            continue
        count += metric.count
        total += metric.sum
        lo = metric.min if lo is None else min(lo, metric.min)
        hi = metric.max if hi is None else max(hi, metric.max)
    return {
        "count": count,
        "sum": total,
        "min": lo,
        "max": hi,
        "mean": (total / count) if count else 0.0,
    }


#: telemetry families previewed as dashboard sparklines: (family, mode)
#: where mode is how the family's series collapse into one curve
_PREVIEW_FAMILIES = (
    ("multicast.delivered", "rate"),
    ("net.bytes_sent", "rate"),
    ("span.end_to_end_seconds", "mean"),
    ("span.opened", "backlog"),
    ("detector.suspicions", "value"),
    ("scheduler.queue_pending", "gauge"),
)


def family_sites(sampler, name):
    """The sorted ``site`` labels a family's series carry, if any.

    A single-site run has no ``site`` label at all (returns ``[]``); a
    federation (:mod:`repro.wan`) stamps one per site, and the preview
    renders one extra curve per site under the aggregate.
    """
    sites = set()
    for series in sampler.family(name):
        sites.add(dict(series.labels).get("site"))
    sites.discard(None)
    return sorted(sites)


def _site_filtered(series_list, site):
    if site is None:
        return series_list
    return [s for s in series_list if dict(s.labels).get("site") == site]


def family_curve(sampler, name, mode, site=None):
    """Collapse one family's series into a single curve over the ticks.

    Modes: ``rate`` (summed counter delta per second), ``value``
    (summed cumulative value), ``gauge`` (summed latest values),
    ``mean`` (histogram per-tick mean of new observations), ``backlog``
    (``span.opened`` minus ``span.closed`` — invocations in flight).
    ``site`` restricts the collapse to series labelled with that site.
    """
    times = list(sampler.times)
    series_list = _site_filtered(sampler.family(name), site)
    if mode == "backlog":
        closed = _site_filtered(sampler.family("span.closed"), site)
        return [
            sum(s.value_at(t) for s in series_list)
            - sum(s.value_at(t) for s in closed)
            for t in times
        ]
    if not series_list:
        return [0.0] * len(times)
    out = []
    previous_time = None
    for t in times:
        if mode in ("gauge", "value"):
            out.append(sum(s.value_at(t) for s in series_list))
        elif mode == "rate":
            if previous_time is None:
                out.append(0.0)
            else:
                dt = t - previous_time
                delta = sum(s.delta(previous_time, t) for s in series_list)
                out.append(delta / dt if dt > 0 else 0.0)
        elif mode == "mean":
            if previous_time is None:
                out.append(0.0)
            else:
                count = sum(s.delta(previous_time, t) for s in series_list)
                total = sum(s.delta_sum(previous_time, t) for s in series_list)
                out.append(total / count if count else 0.0)
        previous_time = t
    return out


def _telemetry_preview(sampler, width=48):
    """The dashboard's sparkline block, computed once into the summary."""
    from repro.obs.series import sparkline

    rows = []
    for name, mode in _PREVIEW_FAMILIES:
        curve = family_curve(sampler, name, mode)
        if not curve or not any(curve):
            continue
        rows.append({
            "name": name,
            "mode": mode,
            "spark": sparkline(curve, width=width),
            "min": min(curve),
            "max": max(curve),
            "last": curve[-1],
        })
        # Federation runs stamp series with site= labels; render one
        # sub-curve per site under the aggregate so a whole-site outage
        # reads as one flatlining row, not a dip in the sum.
        for site in family_sites(sampler, name):
            site_curve = family_curve(sampler, name, mode, site=site)
            if not site_curve or not any(site_curve):
                continue
            rows.append({
                "name": name,
                "mode": mode,
                "site": site,
                "spark": sparkline(site_curve, width=width),
                "min": min(site_curve),
                "max": max(site_curve),
                "last": site_curve[-1],
            })
    return {
        "period": sampler.period,
        "samples": len(sampler.times),
        "dropped_ticks": sampler.dropped_ticks,
        "preview": rows,
    }


def summarize(obs, crypto_costs=None, series=None, slo=None, critpath=None):
    """Aggregate the registry and spans into one report dict.

    ``crypto_costs`` is an optional
    :class:`~repro.crypto.costmodel.CryptoCostModel`, printed alongside
    the measured crypto counters so the run's bill can be read against
    its calibration.  ``series`` (a
    :class:`~repro.obs.series.SeriesSampler`), ``slo`` (an
    :meth:`~repro.obs.slo.SLOEngine.evaluate` result) and ``critpath``
    (an :func:`~repro.obs.critpath.attribute_spans` report) fold the
    telemetry, alerting, and cause-attribution views into the same
    summary the dashboard renders — so ``--input`` replays see them
    too.
    """
    registry = obs.registry
    spans = obs.spans

    messages_sent = registry.total("multicast.sent")
    tokens_signed = registry.total("multicast.tokens_signed")
    stage_breakdown = [
        {"stage": stage, "count": count, "mean": mean, "max": peak}
        for stage, count, mean, peak in spans.stage_breakdown()
    ]
    open_by_stage = {}
    now = registry.value("scheduler.now")
    stuck = []
    for span in spans.open_spans():
        last = span.last_stage or "(no stage)"
        open_by_stage[last] = open_by_stage.get(last, 0) + 1
        since = max(span.marks.values()) if span.marks else None
        stuck.append({
            "key": list(span.key),
            "oneway": span.oneway,
            "last_stage": last,
            "since": since,
            "stalled_seconds": (now - since) if since is not None else None,
        })
    stuck.sort(key=lambda s: (s["since"] if s["since"] is not None else -1.0,
                              str(s["key"])))

    summary = {
        "stage_breakdown": stage_breakdown,
        "end_to_end": _merge_histograms(registry, "span.end_to_end_seconds"),
        "spans": {
            "closed": len(spans.closed_spans()),
            "open": len(spans.open_spans()),
            "open_by_last_stage": dict(sorted(open_by_stage.items())),
            "stuck": stuck,
        },
        "amortisation": {
            "messages_sent": messages_sent,
            "tokens_signed": tokens_signed,
            # Table 3's j: regular messages amortised per signed token.
            "ratio": (messages_sent / tokens_signed) if tokens_signed else None,
        },
        "network": {
            "frames_sent": registry.total("net.frames_sent"),
            "bytes_sent": registry.total("net.bytes_sent"),
            "frames_delivered": registry.total("net.frames_delivered"),
            "frames_dropped": registry.total("net.frames_dropped"),
            "frames_corrupted": registry.total("net.frames_corrupted"),
        },
        "multicast": {
            "delivered": registry.total("multicast.delivered"),
            "retransmits": registry.total("multicast.retransmits"),
            "token_visits": registry.total("multicast.token_visits"),
            "token_rotations": registry.total("multicast.token_rotations"),
            "digest_discards": registry.total("multicast.digest_discards"),
        },
        "votes": {
            "copies": registry.total("vote.copies"),
            "decisions": registry.total("vote.decisions"),
            "mismatches": registry.total("vote.mismatches"),
            "late_duplicates": registry.total("vote.late_duplicates"),
            "duplicates_suppressed": registry.total("rm.duplicates_suppressed"),
        },
        "detector": {
            "suspicions_by_reason": _family_totals(
                registry, "detector.suspicions", label="reason"
            ),
            "absolved": registry.total("detector.absolved"),
        },
        "membership": {
            "reconfigurations": registry.total("membership.reconfigurations"),
            "installs": registry.total("membership.installs"),
            "rounds": registry.total("membership.rounds"),
            "reconfig_seconds": _merge_histograms(
                registry, "membership.reconfig_seconds"
            ),
        },
        "crypto": {
            "digest_ops": registry.total("crypto.digest_ops"),
            "sign_ops": registry.total("crypto.sign_ops"),
            "verify_ops": registry.total("crypto.verify_ops"),
            "seconds_by_op": _family_totals(registry, "crypto.seconds", label="op"),
        },
        "cpu_seconds_by_category": _family_totals(
            registry, "cpu.seconds", label="category"
        ),
        "scheduler": {
            "now": registry.value("scheduler.now"),
            "events_executed": registry.value("scheduler.events_executed"),
            "busiest_labels": [
                [dict(metric.labels).get("label"), metric.value]
                for metric in sorted(
                    registry.family("scheduler.events"),
                    key=lambda m: (-m.value, dict(m.labels).get("label") or ""),
                )[:10]
            ],
        },
    }
    if crypto_costs is not None:
        summary["crypto"]["calibration"] = crypto_costs.describe()
    if obs.forensics is not None:
        from repro.obs.forensics import recorder_summary

        # Flight-recorder buffer health (event/drop counts) only; the
        # full timeline/scorecard report is the forensics row's output.
        summary["forensics"] = recorder_summary(obs.forensics)
    if series is None:
        series = getattr(registry, "series_sampler", None)
    if series is not None:
        summary["telemetry"] = _telemetry_preview(series)
    if slo is not None:
        summary["slo"] = slo
    if critpath is not None:
        summary["critical_path"] = critpath
    return summary


def export_jsonl(path, obs, run_info=None, crypto_costs=None, series=None,
                 slo=None, critpath=None):
    """Write the whole observability state to ``path`` as JSONL.

    Record types, one JSON object per line, each tagged ``record``:

    * ``run`` — the caller-supplied run description (seed, case, ...);
    * ``metric`` — one metric instance (name, kind, labels, values);
    * ``series`` — one metric instance's ring-buffered time series
      (when a series sampler ran);
    * ``span`` — one invocation span (open spans included);
    * ``stage`` — one row of the aggregated Figure 7 breakdown;
    * ``alert`` — one SLO burn-rate alert (when an SLO evaluation was
      supplied);
    * ``critpath`` — the critical-path cause attribution report;
    * ``summary`` — the :func:`summarize` dict.

    Returns the summary dict so callers can render the dashboard from
    the same aggregation that was persisted.
    """
    registry = obs.registry
    if series is None:
        series = getattr(registry, "series_sampler", None)
    summary = summarize(
        obs, crypto_costs=crypto_costs, series=series, slo=slo, critpath=critpath
    )
    with open(path, "w") as fh:
        def emit(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        emit({"record": "run", **(run_info or {})})
        for entry in registry.snapshot():
            emit({"record": "metric", **entry})
        if series is not None:
            for entry in series.to_dicts():
                emit({"record": "series", "period": series.period, **entry})
        for span in obs.spans.spans():
            emit({"record": "span", **span.to_dict()})
        for row in summary["stage_breakdown"]:
            emit({"record": "stage", **row})
        if slo is not None:
            for alert in slo["alerts"]:
                emit(alert)  # already tagged record="alert"
        if critpath is not None:
            emit({"record": "critpath", **critpath})
        emit({"record": "summary", **summary})
    return summary


# ----------------------------------------------------------------------
# console dashboard
# ----------------------------------------------------------------------

def fmt_seconds(value):
    """Seconds at the unit that reads best: s, ms or us ("-" for None)."""
    if value is None:
        return "-"
    if value >= 1.0:
        return "%.3f s" % value
    if value >= 1e-3:
        return "%.3f ms" % (value * 1e3)
    return "%.1f us" % (value * 1e6)


def render_dashboard(summary, run_info=None):
    """Render a :func:`summarize` dict as a fixed-width console report."""
    lines = []
    add = lines.append

    def header(title):
        add("")
        add("== %s %s" % (title, "=" * max(0, 58 - len(title))))

    add("Immune system run report")
    if run_info:
        add("  " + "  ".join(
            "%s=%s" % (k, run_info[k]) for k in sorted(run_info)
        ))

    telemetry = summary.get("telemetry")
    if telemetry is not None:
        header("Telemetry (sampled every %gs, %d samples)" % (
            telemetry["period"], telemetry["samples"]))
        for row in telemetry["preview"]:
            if row.get("site") is not None:
                label = "  site=%s" % row["site"]
                add("  %-32s %s" % (label, row["spark"]))
                continue
            label = "%s (%s)" % (row["name"], row["mode"])
            add("  %-32s %s" % (label, row["spark"]))
            add("  %-32s min %-10.4g max %-10.4g last %.4g" % (
                "", row["min"], row["max"], row["last"]))
        if telemetry["dropped_ticks"]:
            add("  (%d oldest samples evicted by the ring buffer)"
                % telemetry["dropped_ticks"])

    header("Invocation latency breakdown (Figure 7 stages)")
    rows = summary["stage_breakdown"]
    if rows:
        add("  %-18s %8s %12s %12s" % ("stage", "count", "mean", "max"))
        for row in rows:
            add("  %-18s %8d %12s %12s" % (
                row["stage"], row["count"],
                fmt_seconds(row["mean"]), fmt_seconds(row["max"]),
            ))
        e2e = summary["end_to_end"]
        add("  %-18s %8d %12s %12s" % (
            "end-to-end", e2e["count"],
            fmt_seconds(e2e["mean"]), fmt_seconds(e2e["max"]),
        ))
    else:
        add("  (no closed spans)")
    spans = summary["spans"]
    add("  spans: %d closed, %d open" % (spans["closed"], spans["open"]))
    for stage, count in spans["open_by_last_stage"].items():
        add("    open at %-16s %d" % (stage, count))
    # Stuck invocations: spans whose terminal stage never arrived are
    # listed with the last stage they did reach — visible in the
    # dashboard, not just the JSON.
    stuck = spans.get("stuck") or []
    shown = 0
    for entry in stuck:
        if shown >= 10:
            add("    (... %d more stuck invocations in the JSON)"
                % (len(stuck) - shown))
            break
        shown += 1
        stalled = entry.get("stalled_seconds")
        add("    stuck %-24s at %-20s%s" % (
            ":".join(str(part) for part in entry["key"]),
            entry["last_stage"],
            "" if stalled is None else "  stalled %s" % fmt_seconds(stalled),
        ))

    critpath = summary.get("critical_path")
    if critpath is not None:
        from repro.obs.critpath import render_critpath

        add("")
        add(render_critpath(critpath))

    slo = summary.get("slo")
    if slo is not None:
        from repro.obs.slo import render_slo

        add("")
        add(render_slo(slo))

    header("Token signature amortisation (Table 3)")
    amort = summary["amortisation"]
    add("  messages sent     %8d" % amort["messages_sent"])
    add("  tokens signed     %8d" % amort["tokens_signed"])
    add("  measured j        %8s" % (
        "%.2f" % amort["ratio"] if amort["ratio"] is not None else "-"))

    header("Network and retransmissions")
    net = summary["network"]
    mc = summary["multicast"]
    add("  frames sent       %8d   bytes sent      %10d" % (
        net["frames_sent"], net["bytes_sent"]))
    add("  frames delivered  %8d   frames dropped  %10d" % (
        net["frames_delivered"], net["frames_dropped"]))
    add("  frames corrupted  %8d   retransmits     %10d" % (
        net["frames_corrupted"], mc["retransmits"]))
    add("  ordered deliveries%8d   digest discards %10d" % (
        mc["delivered"], mc["digest_discards"]))
    add("  token visits      %8d   rotations       %10d" % (
        mc["token_visits"], mc["token_rotations"]))

    header("Majority voting")
    votes = summary["votes"]
    add("  copies voted      %8d   decisions       %10d" % (
        votes["copies"], votes["decisions"]))
    add("  mismatches        %8d   late duplicates %10d" % (
        votes["mismatches"], votes["late_duplicates"]))
    add("  dups suppressed   %8d" % votes["duplicates_suppressed"])

    header("Fault detection and membership")
    det = summary["detector"]
    for reason, count in sorted(det["suspicions_by_reason"].items()):
        add("  suspicion %-16s %6d" % (reason, count))
    if not det["suspicions_by_reason"]:
        add("  (no suspicions raised)")
    add("  absolved          %8d" % det["absolved"])
    mem = summary["membership"]
    add("  reconfigurations  %8d   installs        %10d" % (
        mem["reconfigurations"], mem["installs"]))
    if mem["reconfig_seconds"]["count"]:
        add("  reconfig duration mean %s  max %s" % (
            fmt_seconds(mem["reconfig_seconds"]["mean"]),
            fmt_seconds(mem["reconfig_seconds"]["max"])))

    header("Simulated CPU")
    cpu = summary["cpu_seconds_by_category"]
    for category in sorted(cpu, key=lambda c: (-cpu[c], c)):
        add("  %-24s %12s" % (category, fmt_seconds(cpu[category])))
    crypto = summary["crypto"]
    add("  crypto ops: %d digest, %d sign, %d verify" % (
        crypto["digest_ops"], crypto["sign_ops"], crypto["verify_ops"]))
    if "calibration" in crypto:
        cal = crypto["calibration"]
        add("  calibration: %d-bit RSA, sign %s, verify %s" % (
            cal["modulus_bits"], fmt_seconds(cal["sign"]),
            fmt_seconds(cal["verify"])))

    header("Event loop")
    sched = summary["scheduler"]
    add("  simulated time    %12s   events executed %10d" % (
        fmt_seconds(sched["now"]), sched["events_executed"]))
    for label, count in sched["busiest_labels"]:
        add("  %-24s %10d" % (label, count))

    add("")
    return "\n".join(lines)
