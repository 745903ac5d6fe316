"""End-to-end forensics: live protocol runs feeding the flight recorders.

Covers the remaining ISSUE satellites that need a real simulation:
detection-latency scoring across a membership reconfiguration, full
intrusion-drill attribution, and byte-identical forensics JSON with
the wall-clock memos on and forced to miss.
"""

import functools
import json

import pytest

from repro.bench.drills import run_intrusion_drill
from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.core.replica import ValueFaultServant
from repro.obs import Observability
from repro.obs.forensics import (
    ForensicsHub,
    attribute,
    build_report,
    fault_id_for,
    merge_timeline,
    score,
)
from repro.sim.faults import FaultPlan
from repro.workloads.open_loop import ECHO_IDL, EchoServant
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
    built, scenario = run_intrusion_drill()
    report = build_report(built.obs.forensics, scenario=scenario)
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


@functools.lru_cache(maxsize=None)
def _unwrapped_drill_report(batch):
    built, _ = run_intrusion_drill(batch=batch)
    report = build_report(built.obs.forensics)
    assert report["dropped_events"] == 0
    return report


@pytest.mark.parametrize("batch", [False, True], ids=["per-visit", "batch"])
@pytest.mark.parametrize("capacity", [64, 128, 256])
def test_a_wrapped_recorder_still_scores_the_drill_exactly(capacity, batch):
    """Most of the drill's rows are evicted, none of them a verdict:
    the scorecard and the attribution are the unwrapped run's."""
    built, _ = run_intrusion_drill(capacity=capacity, batch=batch)
    wrapped = build_report(built.obs.forensics)
    unwrapped = _unwrapped_drill_report(batch)
    assert wrapped["dropped_events"] > len(wrapped["timeline"])
    assert wrapped["scorecard"]["precision"] == wrapped["scorecard"]["recall"] == 1.0
    assert wrapped["scorecard"] == unwrapped["scorecard"]
    assert wrapped["attribution"] == unwrapped["attribution"]


def _long_batch_drill(capacity):
    """The benchmark's fault drill in small: eight processors on the
    batch pipeline, a five-way echo server, a crash a quarter of the way
    in and a value-faulty replica from half way, long enough after both
    that token chatter wraps a small recorder many times over."""
    seconds, rate = 4.0, 40
    first_bad = int(rate * seconds) // 2
    obs = Observability(forensics=ForensicsHub(capacity=capacity))
    immune = ImmuneSystem(
        num_processors=8,
        config=ImmuneConfig(
            case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7, batch_signatures=True
        ),
        fault_plan=FaultPlan().schedule_crash(1, 0.05 + seconds / 4),
        trace_kinds=frozenset(),
        obs=obs,
    )
    server = immune.deploy(
        "echo",
        ECHO_IDL,
        lambda pid: (
            ValueFaultServant(EchoServant(), corrupt_from=first_bad)
            if pid == 2
            else EchoServant()
        ),
        [0, 1, 2, 6, 7],
    )
    corrupt_at = 0.05 + first_bad / rate
    obs.forensics.record_ground_truth(
        fault_id_for("value_fault", 2, corrupt_at), "value_fault", 2, corrupt_at
    )
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, ECHO_IDL, server)

    def fire(k):
        for _pid, stub in stubs:
            stub.echo(k, reply_to=lambda _n: None)

    for k in range(int(rate * seconds)):
        immune.scheduler.at(0.05 + k / rate, fire, k, label="drill.workload")
    immune.run(until=0.05 + seconds + 2.0)
    assert set(immune.surviving_members()) == {0, 3, 4, 5, 6, 7}
    return obs.forensics


def test_a_long_drill_convicts_both_culprits_from_a_wrapped_recorder():
    """What a small recorder says after a long run is what a large one
    says: both faulty processors accused, and the crash's first
    suspicion the real one rather than the oldest row chatter left."""
    wrapped, unwrapped = _long_batch_drill(256), _long_batch_drill(1 << 16)
    assert sum(r.dropped for r in unwrapped.recorders()) == 0
    assert sum(r.dropped for r in wrapped.recorders()) > 50000
    told = attribute(merge_timeline(wrapped))
    assert [c["proc"] for c in told["culprits"]] == [1, 2]
    assert told == attribute(merge_timeline(unwrapped))
    card = score(wrapped)
    assert card == score(unwrapped)
    assert card["precision"] == card["recall"] == 1.0
    crash = next(f for f in card["per_fault"] if f["kind"] == "crash")
    assert crash["detection_time"] == told["culprits"][0]["first_suspected"]


def _drill_report_json():
    built, scenario = run_intrusion_drill()
    report = build_report(built.obs.forensics, scenario=scenario)
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
