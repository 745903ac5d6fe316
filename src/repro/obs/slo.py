"""Declarative SLOs with multi-window burn-rate alerting.

The CMU/SEI survivable-systems analysis demands *continuous* health
judgments against explicit service expectations — not post-mortem
forensics.  This module supplies the judgment layer: declarative
service-level objectives evaluated over the sampled time series
(:mod:`repro.obs.series`), with the SRE-workbook multi-window
burn-rate rule emitting deterministic alert events.

An objective states a target fraction of *good* events (e.g. "99% of
invocations complete", "95% complete under 250 ms"); the error budget
is the complement.  The burn rate over a window is the window's bad
fraction divided by the budget — burn 1.0 spends the budget exactly at
the sustainable pace, burn 10 spends it ten times too fast.  A rule
fires only when **both** a long and a short window exceed the same
burn threshold: the long window proves the problem is real, the short
window proves it is *still happening*, which is what keeps burn-rate
alerts fast on real incidents and quiet on blips.

Because every input is simulated (series of sim-time samples, the
forensics scorecard), evaluation is a pure function: the same seed
yields byte-identical alert JSON across runs.  The
evaluation also joins alerts against the detector's ground-truth
scorecard, answering the question a survivability review actually
asks: *did the pager lead the fault detector, or trail it?*
"""

SLI_KINDS = ("latency", "availability", "detection_latency")


def _burn(fraction, budget):
    """A bad fraction over the error budget; any bad event burns a zero
    budget (a target of 1.0) without limit."""
    return fraction / budget if budget else (fraction and float("inf"))


class BurnRule:
    """One multi-window burn-rate alerting rule.

    ``min_events`` is the statistical floor: the long window must hold
    at least that many total events before the rule may fire, so a
    single slow invocation at startup cannot page.
    """

    __slots__ = ("severity", "long_window", "short_window", "max_burn", "min_events")

    def __init__(self, severity, long_window, short_window, max_burn, min_events=4):
        self.severity = severity
        self.long_window = long_window
        self.short_window = short_window
        self.max_burn = max_burn
        self.min_events = min_events

    def to_dict(self):
        return {
            "severity": self.severity,
            "long_window": self.long_window,
            "short_window": self.short_window,
            "max_burn": self.max_burn,
            "min_events": self.min_events,
        }

    def __repr__(self):
        return "BurnRule(%s, %g/%gs, burn>=%g)" % (
            self.severity, self.long_window, self.short_window, self.max_burn,
        )


class SLOSpec:
    """One declarative objective.

    * ``sli="latency"``: good = histogram observations at or under
      ``threshold`` seconds, over the ``family`` histogram series
      (default ``span.end_to_end_seconds``);
    * ``sli="availability"``: good = ``good_family`` counter increase vs
      ``total_family`` (defaults ``span.closed`` vs ``span.opened`` —
      invocations that completed vs invocations attempted).  ``grace``
      shifts the *attempted* window earlier by that many seconds, so an
      invocation only counts as bad once it has had ``grace`` seconds
      to complete — without it, every in-flight invocation reads as a
      failure the instant it opens;
    * ``sli="detection_latency"``: judged once against the forensics
      scorecard — recall must reach ``target`` and the worst detection
      latency must stay at or under ``threshold`` seconds (no burn-rate
      rules; the detector is an end-of-run judgment).
    """

    __slots__ = (
        "name", "sli", "target", "threshold", "rules",
        "family", "good_family", "total_family", "grace", "description",
    )

    def __init__(
        self,
        name,
        sli,
        target,
        threshold=None,
        rules=(),
        family="span.end_to_end_seconds",
        good_family="span.closed",
        total_family="span.opened",
        grace=0.0,
        description="",
    ):
        if sli not in SLI_KINDS:
            raise ValueError("unknown SLI kind %r" % (sli,))
        if not 0.0 < target <= 1.0:
            raise ValueError("target must be in (0, 1], got %r" % (target,))
        if sli in ("latency", "detection_latency") and threshold is None:
            raise ValueError("%s SLO %r needs a threshold" % (sli, name))
        if grace < 0.0:
            raise ValueError("grace must be >= 0, got %r" % (grace,))
        self.name = name
        self.sli = sli
        self.target = target
        self.threshold = threshold
        self.rules = tuple(rules)
        self.family = family
        self.good_family = good_family
        self.total_family = total_family
        self.grace = grace
        self.description = description

    @property
    def budget(self):
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.target

    def window_counts(self, sampler, t0, t1):
        """``(bad, total)`` event counts for this SLI over ``(t0, t1]``."""
        if self.sli == "latency":
            total = sampler.family_delta(self.family, t0, t1)
            bad = sampler.family_delta_above(self.family, self.threshold, t0, t1)
            return bad, total
        total = sampler.family_delta(
            self.total_family, t0 - self.grace, t1 - self.grace
        )
        good = sampler.family_delta(self.good_family, t0, t1)
        return max(0, total - good), total

    def to_dict(self):
        out = {
            "name": self.name,
            "sli": self.sli,
            "target": self.target,
            "threshold": self.threshold,
            "budget": self.budget,
            "grace": self.grace,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        if self.description:
            out["description"] = self.description
        return out


#: the default objective set the report CLI evaluates.  Windows are in
#: simulated seconds and scaled to the drill workloads (seconds-long
#: runs), not wall-clock hours; the shape is the standard fast-burn
#: page plus slow-burn ticket pairing.
DEFAULT_SLOS = (
    SLOSpec(
        name="invocation-latency",
        sli="latency",
        target=0.95,
        threshold=0.25,
        rules=(
            BurnRule("page", long_window=1.5, short_window=0.5, max_burn=4.0),
            BurnRule("ticket", long_window=3.0, short_window=1.0, max_burn=1.5),
        ),
        description="95% of invocations complete within 250 ms",
    ),
    SLOSpec(
        name="invocation-availability",
        sli="availability",
        target=0.90,
        grace=0.3,
        rules=(
            BurnRule("page", long_window=1.5, short_window=0.5, max_burn=4.0),
            BurnRule("ticket", long_window=3.0, short_window=1.0, max_burn=2.0),
        ),
        description="90% of attempted invocations complete",
    ),
    SLOSpec(
        name="fault-detection",
        sli="detection_latency",
        target=1.0,
        threshold=2.0,
        description="every detectable fault attributed within 2 s",
    ),
)


class SLOEngine:
    """Evaluates a set of :class:`SLOSpec` over a sampled run."""

    def __init__(self, specs=None):
        self.specs = tuple(DEFAULT_SLOS if specs is None else specs)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _evaluate_rule(self, spec, rule, sampler, times, alerts):
        """Walk the sample times, tracking the rule's firing state."""
        firing = None
        peak_long = peak_short = 0.0
        for t in times:
            bad_l, total_l = spec.window_counts(sampler, t - rule.long_window, t)
            bad_s, total_s = spec.window_counts(sampler, t - rule.short_window, t)
            frac_l = (bad_l / total_l) if total_l else 0.0
            frac_s = (bad_s / total_s) if total_s else 0.0
            burn_l = _burn(frac_l, spec.budget)
            burn_s = _burn(frac_s, spec.budget)
            exceeded = (
                total_l >= max(1, rule.min_events)
                and burn_l >= rule.max_burn
                and burn_s >= rule.max_burn
            )
            if exceeded and firing is None:
                firing = {
                    "record": "alert",
                    "slo": spec.name,
                    "sli": spec.sli,
                    "severity": rule.severity,
                    "long_window": rule.long_window,
                    "short_window": rule.short_window,
                    "max_burn": rule.max_burn,
                    "fired_at": t,
                    "resolved_at": None,
                    "fired_burn_long": burn_l,
                    "fired_burn_short": burn_s,
                }
                peak_long, peak_short = burn_l, burn_s
            elif firing is not None:
                peak_long = max(peak_long, burn_l)
                peak_short = max(peak_short, burn_s)
                if not exceeded:
                    firing["resolved_at"] = t
                    firing["peak_burn_long"] = peak_long
                    firing["peak_burn_short"] = peak_short
                    alerts.append(firing)
                    firing = None
        if firing is not None:
            firing["peak_burn_long"] = peak_long
            firing["peak_burn_short"] = peak_short
            alerts.append(firing)

    def _overall(self, spec, sampler, times):
        if not times:
            return {"bad": 0, "total": 0, "bad_fraction": 0.0, "burn": 0.0,
                    "met": True}
        bad, total = spec.window_counts(sampler, times[0] - spec_epsilon, times[-1])
        fraction = (bad / total) if total else 0.0
        return {
            "bad": bad,
            "total": total,
            "bad_fraction": fraction,
            "burn": _burn(fraction, spec.budget),
            "met": fraction <= spec.budget,
        }

    def _judge_detection(self, spec, scorecard):
        """End-of-run judgment of the detector against its objective."""
        if scorecard is None:
            return {"met": None, "reason": "no forensics scorecard"}
        recall = scorecard.get("recall", 0.0)
        worst = scorecard.get("detection_latency", {}).get("max")
        met = recall >= spec.target and (worst is None or worst <= spec.threshold)
        return {
            "met": met,
            "recall": recall,
            "recall_target": spec.target,
            "worst_latency": worst,
            "latency_threshold": spec.threshold,
        }

    def evaluate(self, sampler, scorecard=None):
        """Evaluate every spec; returns ``{"slos", "alerts", "scorecard"}``.

        ``sampler`` is the run's :class:`~repro.obs.series.SeriesSampler`;
        ``scorecard`` the forensics detector scorecard (from
        :func:`repro.obs.forensics.score`), which enables the
        detection-latency objective and the alert-vs-detector join.
        """
        times = list(sampler.times)
        alerts = []
        slos = []
        for spec in self.specs:
            entry = spec.to_dict()
            if spec.sli == "detection_latency":
                entry["status"] = self._judge_detection(spec, scorecard)
            else:
                for rule in spec.rules:
                    self._evaluate_rule(spec, rule, sampler, times, alerts)
                entry["status"] = self._overall(spec, sampler, times)
            slos.append(entry)
        alerts.sort(key=lambda a: (a["fired_at"], a["slo"], a["severity"]))
        for entry in slos:
            entry["alerts"] = sum(1 for a in alerts if a["slo"] == entry["name"])
        return {
            "slos": slos,
            "alerts": alerts,
            "scorecard": join_scorecard(alerts, scorecard),
        }


#: window slack for the whole-run overall computation: the first sample
#: must count from zero, so the window opens just before it
spec_epsilon = 1e-9


def join_scorecard(alerts, scorecard):
    """Join alert fire times against the detector's per-fault verdicts.

    For every ground-truth fault, finds the first alert fired at or
    after the injection and reports whether it *led* the detector
    (fired strictly before the first suspicion of the culprit), *tied*
    it, or *lagged* it — the survivability question the SLO layer
    exists to answer.  Returns ``[]`` when no scorecard is available.
    """
    if scorecard is None:
        return []
    out = []
    for fault in scorecard.get("per_fault", ()):
        if not fault.get("detectable", False):
            continue
        injected_at = fault["time"]
        detected_at = fault.get("detection_time")
        first_alert = None
        for alert in alerts:
            if alert["fired_at"] >= injected_at:
                first_alert = alert
                break
        entry = {
            "fault_id": fault["fault_id"],
            "injected_at": injected_at,
            "detected_at": detected_at,
            "alert_fired_at": None if first_alert is None else first_alert["fired_at"],
            "alert_slo": None if first_alert is None else first_alert["slo"],
            "alert_severity": (
                None if first_alert is None else first_alert["severity"]
            ),
        }
        if first_alert is None:
            entry["verdict"] = "no_alert" if detected_at is not None else "blind"
            entry["lead_seconds"] = None
        elif detected_at is None:
            entry["verdict"] = "alert_only"
            entry["lead_seconds"] = None
        else:
            lead = detected_at - first_alert["fired_at"]
            entry["lead_seconds"] = lead
            entry["verdict"] = "led" if lead > 0 else ("tied" if lead == 0 else "lagged")
        out.append(entry)
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fmt_time(value):
    return "-" if value is None else "%.3f" % value


def render_slo(result):
    """Fixed-width ASCII rendering of an :meth:`SLOEngine.evaluate` dict."""
    lines = []
    add = lines.append
    add("== SLOs and burn-rate alerts %s" % ("=" * 33))
    for entry in result["slos"]:
        status = entry["status"]
        if entry["sli"] == "detection_latency":
            met = status.get("met")
            verdict = "met" if met else ("unknown" if met is None else "VIOLATED")
            add(
                "  %-26s %-9s recall=%s worst=%s (target %g within %gs)"
                % (
                    entry["name"], verdict,
                    ("%.2f" % status["recall"]) if "recall" in status else "-",
                    _fmt_time(status.get("worst_latency")),
                    entry["target"], entry["threshold"],
                )
            )
            continue
        verdict = "met" if status["met"] else "VIOLATED"
        add(
            "  %-26s %-9s bad %d/%d (%.2f%% of budget %.1f%%), %d alert(s)"
            % (
                entry["name"], verdict, status["bad"], status["total"],
                status["burn"] * 100.0, entry["budget"] * 100.0,
                entry["alerts"],
            )
        )
    if result["alerts"]:
        add("  alerts:")
        for alert in result["alerts"]:
            window = "%g/%gs" % (alert["long_window"], alert["short_window"])
            resolved = (
                "resolved t=%.3f" % alert["resolved_at"]
                if alert["resolved_at"] is not None
                else "unresolved"
            )
            add(
                "    [%-6s] %-24s fired t=%.3f %s (windows %s, burn %.1f/%.1f >= %g)"
                % (
                    alert["severity"], alert["slo"], alert["fired_at"], resolved,
                    window, alert["fired_burn_long"], alert["fired_burn_short"],
                    alert["max_burn"],
                )
            )
    else:
        add("  (no alerts fired)")
    if result["scorecard"]:
        add("  alert vs detector:")
        for row in result["scorecard"]:
            if row["verdict"] == "led":
                story = "alert led detector by %.3fs" % row["lead_seconds"]
            elif row["verdict"] == "tied":
                story = "alert tied detector"
            elif row["verdict"] == "lagged":
                story = "alert LAGGED detector by %.3fs" % (-row["lead_seconds"])
            elif row["verdict"] == "alert_only":
                story = "alert fired; detector missed the fault"
            elif row["verdict"] == "no_alert":
                story = "no alert; detector caught it alone"
            else:
                story = "no alert and no detection"
            add(
                "    %-28s %-10s %s (injected %.3f, alert %s, detected %s)"
                % (
                    row["fault_id"], row["verdict"], story, row["injected_at"],
                    _fmt_time(row["alert_fired_at"]), _fmt_time(row["detected_at"]),
                )
            )
    return "\n".join(lines)
