"""Unit tests for the declarative SLO engine and burn-rate alerting."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import BurnRule, SLOEngine, SLOSpec, join_scorecard, render_slo
from repro.sim.scheduler import Scheduler


def driven_sampler(schedule, until, period=0.5):
    """Run ``schedule(scheduler, registry)`` and return the sampler."""
    scheduler = Scheduler()
    registry = MetricsRegistry()
    sampler = registry.sample_series(scheduler, period=period)
    schedule(scheduler, registry)
    scheduler.run(until=until)
    return sampler


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SLOSpec("x", "temperature", target=0.9)
    with pytest.raises(ValueError):
        SLOSpec("x", "availability", target=0.0)
    with pytest.raises(ValueError):
        SLOSpec("x", "availability", target=1.5)
    with pytest.raises(ValueError):
        SLOSpec("x", "latency", target=0.9)  # no threshold
    with pytest.raises(ValueError):
        SLOSpec("x", "availability", target=0.9, grace=-0.1)
    spec = SLOSpec("x", "latency", target=0.9, threshold=0.25)
    assert spec.budget == pytest.approx(0.1)


# ----------------------------------------------------------------------
# burn-rate evaluation
# ----------------------------------------------------------------------

def latency_spec(**kwargs):
    defaults = dict(
        rules=(BurnRule("page", long_window=1.0, short_window=0.5,
                        max_burn=2.0, min_events=1),),
    )
    defaults.update(kwargs)
    return SLOSpec("lat", "latency", target=0.9, threshold=0.25, **defaults)


def test_latency_alert_fires_and_resolves():
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        for k in range(20):  # healthy traffic
            scheduler.at(0.1 + k * 0.1, hist.observe, 0.01, label="w")
        for k in range(10):  # a burst of slow invocations
            scheduler.at(2.15 + k * 0.05, hist.observe, 0.9, label="w")
        for k in range(20):  # recovery
            scheduler.at(3.1 + k * 0.1, hist.observe, 0.01, label="w")

    sampler = driven_sampler(schedule, until=5.5)
    result = SLOEngine([latency_spec()]).evaluate(sampler)
    assert len(result["alerts"]) == 1
    alert = result["alerts"][0]
    assert alert["record"] == "alert"
    assert alert["slo"] == "lat"
    assert alert["severity"] == "page"
    assert alert["fired_at"] == pytest.approx(2.5)
    assert alert["resolved_at"] is not None
    assert alert["fired_burn_long"] >= 2.0
    assert alert["fired_burn_short"] >= 2.0
    assert alert["peak_burn_long"] >= alert["fired_burn_long"]
    status = result["slos"][0]["status"]
    assert status["total"] == 50
    assert status["bad"] == 10
    assert not status["met"]  # 20% bad against a 10% budget
    assert result["slos"][0]["alerts"] == 1


def test_a_zero_budget_burns_without_limit_over_the_whole_run():
    """A target of 1.0 leaves no error budget: 2 bad events of 10 burn it
    without limit, in the whole-run status as in the alert it fires."""
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        for k in range(10):
            latency = 0.9 if k in (4, 5) else 0.01
            scheduler.at(0.1 + k * 0.1, hist.observe, latency, label="w")

    sampler = driven_sampler(schedule, until=1.5)
    spec = latency_spec()
    spec.target = 1.0
    result = SLOEngine([spec]).evaluate(sampler)
    status = result["slos"][0]["status"]
    assert (status["bad"], status["total"]) == (2, 10)
    assert status["burn"] == float("inf") and not status["met"]
    assert result["alerts"][0]["fired_burn_long"] == float("inf")


def test_quiet_run_fires_nothing():
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        for k in range(20):
            scheduler.at(0.1 + k * 0.1, hist.observe, 0.01, label="w")

    sampler = driven_sampler(schedule, until=3.0)
    result = SLOEngine([latency_spec()]).evaluate(sampler)
    assert result["alerts"] == []
    assert result["slos"][0]["status"]["met"]


def test_min_events_suppresses_single_sample_noise():
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        scheduler.at(0.1, hist.observe, 0.9, label="w")  # one slow call

    sampler = driven_sampler(schedule, until=2.0)
    noisy = latency_spec()
    assert SLOEngine([noisy]).evaluate(sampler)["alerts"]  # min_events=1 pages
    guarded = latency_spec(rules=(
        BurnRule("page", long_window=1.0, short_window=0.5,
                 max_burn=2.0, min_events=4),
    ))
    assert SLOEngine([guarded]).evaluate(sampler)["alerts"] == []


def test_unresolved_alert_at_end_of_run():
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        for k in range(10):
            scheduler.at(0.1 + k * 0.1, hist.observe, 0.9, label="w")

    # The run ends while the slow burst is still inside both windows.
    sampler = driven_sampler(schedule, until=1.0)
    result = SLOEngine([latency_spec()]).evaluate(sampler)
    assert len(result["alerts"]) == 1
    assert result["alerts"][0]["resolved_at"] is None


def availability_spec(grace=0.0, min_events=1):
    return SLOSpec(
        "avail", "availability", target=0.9, grace=grace,
        rules=(BurnRule("page", long_window=1.0, short_window=0.5,
                        max_burn=2.0, min_events=min_events),),
    )


def test_availability_grace_forgives_in_flight_invocations():
    def schedule(scheduler, registry):
        opened = registry.counter("span.opened")
        closed = registry.counter("span.closed")
        for k in range(1, 9):
            # Every invocation opens, then closes a full second later —
            # slower than the short alert window, so without grace the
            # in-flight tail reads as failures while the run spins up.
            scheduler.at(0.25 * k, opened.inc, label="w")
            scheduler.at(0.25 * k + 1.0, closed.inc, label="w")

    sampler = driven_sampler(schedule, until=4.5)
    assert SLOEngine(
        [availability_spec(grace=0.0, min_events=4)]
    ).evaluate(sampler)["alerts"]
    # A grace of one closure latency forgives them.
    result = SLOEngine(
        [availability_spec(grace=1.0, min_events=4)]
    ).evaluate(sampler)
    assert result["alerts"] == []


def test_availability_stall_burns_through_grace():
    def schedule(scheduler, registry):
        opened = registry.counter("span.opened")
        closed = registry.counter("span.closed")
        for k in range(30):
            scheduler.at(0.1 + k * 0.1, opened.inc, label="w")
            if k < 10:  # closures stop dead at t=1.1 (a stall)
                scheduler.at(0.15 + k * 0.1, closed.inc, label="w")

    sampler = driven_sampler(schedule, until=4.0)
    result = SLOEngine([availability_spec(grace=0.3, min_events=4)]).evaluate(
        sampler
    )
    assert len(result["alerts"]) == 1
    assert result["alerts"][0]["fired_at"] < 2.5  # pages during the stall


# ----------------------------------------------------------------------
# detection-latency judgment and the scorecard join
# ----------------------------------------------------------------------

def detection_spec():
    return SLOSpec("det", "detection_latency", target=1.0, threshold=2.0)


def empty_sampler():
    return driven_sampler(lambda scheduler, registry: None, until=1.0)


def test_detection_latency_judged_against_scorecard():
    engine = SLOEngine([detection_spec()])
    good = {"recall": 1.0, "detection_latency": {"max": 0.9}, "per_fault": []}
    bad = {"recall": 0.5, "detection_latency": {"max": 0.9}, "per_fault": []}
    slow = {"recall": 1.0, "detection_latency": {"max": 3.0}, "per_fault": []}
    sampler = empty_sampler()
    assert engine.evaluate(sampler, good)["slos"][0]["status"]["met"]
    assert not engine.evaluate(sampler, bad)["slos"][0]["status"]["met"]
    assert not engine.evaluate(sampler, slow)["slos"][0]["status"]["met"]
    assert engine.evaluate(sampler, None)["slos"][0]["status"]["met"] is None


def fault(fault_id, time, detection_time, detectable=True):
    return {
        "fault_id": fault_id,
        "time": time,
        "detection_time": detection_time,
        "detectable": detectable,
    }


def alert(fired_at, slo="avail", severity="page"):
    return {
        "record": "alert", "slo": slo, "sli": "availability",
        "severity": severity, "long_window": 1.0, "short_window": 0.5,
        "max_burn": 2.0, "fired_at": fired_at, "resolved_at": None,
        "fired_burn_long": 4.0, "fired_burn_short": 4.0,
    }


def test_join_scorecard_verdicts():
    scorecard = {"per_fault": [
        fault("crash:A", 2.0, 3.0),
        fault("crash:B", 5.0, 5.5),
        fault("crash:C", 8.0, None),
        fault("crash:D", 9.5, None),
        fault("noise", 0.0, None, detectable=False),
    ]}
    rows = join_scorecard(
        [alert(2.5), alert(6.0), alert(8.2)], scorecard
    )
    by_id = {row["fault_id"]: row for row in rows}
    assert "noise" not in by_id  # undetectable faults are skipped
    assert by_id["crash:A"]["verdict"] == "led"
    assert by_id["crash:A"]["lead_seconds"] == pytest.approx(0.5)
    assert by_id["crash:B"]["verdict"] == "lagged"
    assert by_id["crash:B"]["lead_seconds"] == pytest.approx(-0.5)
    assert by_id["crash:C"]["verdict"] == "alert_only"
    assert by_id["crash:D"]["verdict"] == "blind"
    assert join_scorecard([alert(2.5)], None) == []


def test_join_scorecard_no_alert_but_detected():
    scorecard = {"per_fault": [fault("crash:A", 2.0, 3.0)]}
    rows = join_scorecard([], scorecard)
    assert rows[0]["verdict"] == "no_alert"


# ----------------------------------------------------------------------
# determinism and rendering
# ----------------------------------------------------------------------

def test_evaluation_is_deterministic():
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        for k in range(10):
            scheduler.at(0.1 + k * 0.1, hist.observe, 0.9, label="w")

    first = SLOEngine([latency_spec()]).evaluate(
        driven_sampler(schedule, until=2.0)
    )
    second = SLOEngine([latency_spec()]).evaluate(
        driven_sampler(schedule, until=2.0)
    )
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_render_slo_mentions_alerts_and_verdicts():
    def schedule(scheduler, registry):
        hist = registry.histogram("span.end_to_end_seconds")
        for k in range(10):
            scheduler.at(0.1 + k * 0.1, hist.observe, 0.9, label="w")

    sampler = driven_sampler(schedule, until=2.0)
    scorecard = {
        "recall": 1.0, "detection_latency": {"max": 0.5},
        "per_fault": [fault("crash:A", 0.2, 1.0)],
    }
    result = SLOEngine(
        [latency_spec(), detection_spec()]
    ).evaluate(sampler, scorecard)
    text = render_slo(result)
    assert "VIOLATED" in text
    assert "[page  ] lat" in text
    assert "crash:A" in text
    assert "alert led detector" in text
