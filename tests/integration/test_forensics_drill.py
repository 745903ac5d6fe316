"""End-to-end forensics: live protocol runs feeding the flight recorders.

Covers the remaining ISSUE satellites that need a real simulation:
detection-latency scoring across a membership reconfiguration, full
intrusion-drill attribution, and byte-identical forensics JSON with
the wall-clock memos on and forced to miss.
"""

import json

from repro.obs import Observability
from repro.obs.forensics import (
    ForensicsHub,
    build_report,
    merge_timeline,
    run_intrusion_drill,
    score,
)
from repro.sim.faults import FaultPlan
from tests.support import MulticastWorld, defeat_memos, force_python_md4


def test_crash_detection_latency_across_reconfiguration():
    """A crash is attributed with positive latency and a measured reconfig."""
    plan = FaultPlan()
    plan.schedule_crash(2, 1.0)
    obs = Observability(forensics=ForensicsHub())
    world = MulticastWorld(num=4, seed=5, fault_plan=plan, obs=obs)
    world.start().run(until=5.0)

    # the ground truth was registered straight off the fault plan
    truth = obs.forensics.ground_truth()
    assert [f.fault_id for f in truth] == ["crash:P2@1"]

    card = score(obs.forensics)
    assert card["precision"] == 1.0
    assert card["recall"] == 1.0
    [entry] = card["per_fault"]
    assert entry["outcome"] == "detected"
    # suspicion can only follow the injection: timeouts must elapse first
    assert entry["detection_latency"] > 0.0
    assert entry["detection_time"] > 1.0
    # the eviction ran a reconfiguration, and the survivors measured it
    assert card["reconfig_seconds"]["count"] >= len(world.correct_ids())
    assert all(d > 0.0 for d in card["reconfig_seconds"]["values"])
    # the membership layer recorded the new epoch without the culprit
    timeline = merge_timeline(obs.forensics)
    installs = [e for e in timeline if e.etype == "membership_install"]
    assert any(2 in e.get("excluded", ()) for e in installs)


def test_clean_run_accuses_nobody():
    obs = Observability(forensics=ForensicsHub())
    world = MulticastWorld(num=4, seed=3, obs=obs)
    world.start()
    world.scheduler.at(0.2, world.endpoints[0].multicast, "g", b"hello")
    world.run(until=2.0)
    assert all(world.delivered_payloads(pid) == [b"hello"] for pid in range(4))
    card = score(obs.forensics)
    assert card["accused"] == []
    assert card["precision"] == 1.0 and card["recall"] == 1.0
    # steady state still leaves a causal record of the token's travels
    timeline = merge_timeline(obs.forensics)
    assert any(e.etype == "token_send" for e in timeline)
    assert any(e.etype == "delivery_commit" for e in timeline)


def test_intrusion_drill_attributes_every_fault():
    immune, obs, scenario = run_intrusion_drill()
    report = build_report(obs.forensics, scenario=scenario)
    card = report["scorecard"]
    assert card["precision"] == 1.0
    assert card["recall"] == 1.0
    assert card["false_positives"] == []
    outcomes = {f["fault_id"]: f["outcome"] for f in card["per_fault"]}
    assert outcomes == {
        "crash:P3@2.6": "detected",
        "mutant_token:P4@1.4": "detected",
        "value_fault:P2@0.46": "detected",
    }
    assert card["detection_latency"]["count"] == 3
    assert card["reconfig_seconds"]["count"] > 0
    # both intruders were evicted; the crash fell out of the membership
    survivors = set(scenario["surviving_members"])
    assert survivors.isdisjoint({2, 3, 4})
    # the divergence engine tied the value fault to P2 specifically
    divergent = {d["culprit"] for d in report["attribution"]["divergences"]}
    assert divergent == {2}


def _drill_report_json():
    _, obs, scenario = run_intrusion_drill()
    report = build_report(obs.forensics, scenario=scenario)
    return json.dumps(report, sort_keys=True, indent=2)


def test_forensics_json_byte_identical_with_memos_defeated(monkeypatch):
    """The whole report — timeline included — is memo invariant."""
    memoised = _drill_report_json()
    defeat_memos(monkeypatch)
    assert _drill_report_json() == memoised


def test_forensics_json_byte_identical_on_the_python_md4(monkeypatch):
    """... and does not depend on which MD4 backend the platform offered."""
    selected = _drill_report_json()
    force_python_md4(monkeypatch)
    assert _drill_report_json() == selected
