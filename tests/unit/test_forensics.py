"""Unit tests for the survivability-forensics layer."""

import json

from repro.core.groups import ObjectGroupTable
from repro.core.voting import Voter
from repro.obs import Observability
from repro.obs.forensics import (
    ForensicsHub,
    attribute,
    build_report,
    fault_id_for,
    merge_timeline,
    render_report,
    score,
)


class FakeScheduler:
    def __init__(self):
        self.now = 0.0


def make_hub(capacity=4096):
    hub = ForensicsHub(capacity=capacity)
    sched = FakeScheduler()
    hub.bind(sched)
    return hub, sched


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------


def test_recorder_stamps_time_proc_ring_seq():
    hub, sched = make_hub()
    recorder = hub.recorder(3)
    recorder.set_context(ring=7, seq=42)
    sched.now = 1.25
    recorder.record("suspect", suspect=1, reason="mutant_token")
    event = recorder.events[-1]
    assert event.time == 1.25
    assert event.proc == 3
    assert event.ring == 7
    assert event.seq == 42
    assert event.to_dict()["reason"] == "mutant_token"


def test_recorder_wraparound_counts_drops():
    hub, sched = make_hub(capacity=4)
    recorder = hub.recorder(0)
    for k in range(10):
        sched.now = float(k)
        recorder.record("token_send", visit=k)
    assert len(recorder.events) == 4
    assert recorder.dropped == 6
    # oldest events (t=0..5) fell out; the drop window is reported
    assert recorder.first_dropped_time == 0.0
    assert recorder.last_dropped_time == 5.0
    assert [e.get("visit") for e in recorder.events] == [6, 7, 8, 9]
    health = recorder.to_dict()
    assert health["dropped_events"] == 6
    assert health["first_dropped_time"] == 0.0
    assert health["last_dropped_time"] == 5.0


def test_token_chatter_cannot_evict_a_verdict():
    """3 x capacity ``token_receive`` rows around one ``suspect``: the
    routine kinds compete only with each other for retention."""
    hub, sched = make_hub(capacity=8)
    recorder = hub.recorder(0)
    for k in range(24):
        sched.now = float(k)
        recorder.record("token_receive", visit=k)
        if k == 5:
            recorder.record("suspect", suspect=2, reason="fail_to_send")
    assert recorder.dropped == 16
    assert (recorder.first_dropped_time, recorder.last_dropped_time) == (0.0, 15.0)
    events = recorder.events
    assert [e.etype for e in events] == ["suspect"] + ["token_receive"] * 8
    assert events[0].time == 5.0 and events[0].get("suspect") == 2
    assert [e.get("visit") for e in events[1:]] == list(range(16, 24))
    health = recorder.to_dict()
    assert health["events"] == 9 and health["dropped_events"] == 16
    assert score(hub)["accused"] == [2]


def test_events_read_back_in_recording_order_across_the_two_buffers():
    hub, sched = make_hub(capacity=4)
    recorder = hub.recorder(0)
    kinds = ["token_send", "suspect", "delivery_commit", "absolve", "batch_verify"]
    for etype in kinds:  # all at one instant: only the running index orders them
        recorder.record(etype, suspect=1)
    assert [e.etype for e in recorder.events] == kinds
    assert len(recorder) == 5


def test_a_row_keeps_the_shard_it_was_recorded_under():
    """Elastic clusters re-home processors: the stamp is taken at
    record time, not read off the recorder later."""
    hub, sched = make_hub()
    recorder = hub.recorder(3)
    recorder.record("suspect", suspect=1, reason="fail_to_send")
    recorder.shard = 2
    recorder.record("suspect", suspect=1, reason="fail_to_send")
    assert [e.shard for e in recorder.events] == [0, 2]


def test_report_aggregates_dropped_events():
    hub, sched = make_hub(capacity=2)
    for pid in (0, 1):
        recorder = hub.recorder(pid)
        for k in range(5):
            sched.now = float(k)
            recorder.record("token_send", visit=k)
    report = build_report(hub)
    assert report["dropped_events"] == 6
    assert all(r["dropped_events"] == 3 for r in report["recorders"])


def test_event_fields_become_deterministic_json():
    hub, _ = make_hub()
    recorder = hub.recorder(0)
    recorder.record(
        "vote_divergence",
        culprit_digest=b"\x01\xab",
        op=("resp", "grp", ("nested", 2)),
        members={3, 1, 2},
    )
    data = recorder.events[-1].to_dict()
    assert data["culprit_digest"] == "01ab"
    assert data["op"] == ["resp", "grp", ["nested", 2]]
    assert data["members"] == [1, 2, 3]
    json.dumps(data)  # must be serialisable as-is


# ----------------------------------------------------------------------
# merge + attribution
# ----------------------------------------------------------------------


def test_merge_is_totally_ordered_and_deterministic():
    hub, sched = make_hub()
    a, b = hub.recorder(1), hub.recorder(0)
    sched.now = 2.0
    a.record("suspect", suspect=5, reason="fail_to_send")
    sched.now = 1.0
    b.record("token_send", visit=1)
    sched.now = 2.0
    b.record("suspect", suspect=5, reason="fail_to_send")
    timeline = merge_timeline(hub)
    assert [(e.time, e.proc) for e in timeline] == [(1.0, 0), (2.0, 0), (2.0, 1)]
    # merging twice yields the identical order
    assert [e.to_dict() for e in merge_timeline(hub)] == [
        e.to_dict() for e in timeline
    ]


def test_merge_orders_exact_ties_by_their_fields_whatever_the_input_order():
    """Events equal in (time, shard, seq, proc, event) are ordered by
    their serialised fields, so recording order never shows."""
    import random

    fields = [
        {"commit_seq": 10, "sender": 1},
        {"commit_seq": 9, "sender": 2},
        {"commit_seq": 9, "sender": 1},
        {"digest": b"\x02", "members": {2, 1}},
        {"digest": b"\x01", "members": {1, 2}},
        {},
    ]
    orders = []
    for seed in range(6):
        hub, sched = make_hub()
        shuffled = list(fields)
        random.Random(seed).shuffle(shuffled)
        sched.now = 2.0
        hub.recorder(1).record("suspect", suspect=0, reason="fail_to_send")
        sched.now = 1.0
        for entry in shuffled:
            hub.recorder(0).record("delivery_commit", **entry)
        orders.append([e.to_dict() for e in merge_timeline(hub)])
    assert all(order == orders[0] for order in orders)
    tied = [json.dumps({k: v for k, v in d.items() if k not in
                        ("time", "proc", "ring", "seq", "shard", "event")},
                       sort_keys=True) for d in orders[0][:-1]]
    assert tied == sorted(tied) and len(set(tied)) == len(fields)
    assert orders[0][-1]["event"] == "suspect"


def test_attribution_picks_minority_replica_under_three_way_vote():
    """The voter lays a 3-way divergence at the minority replica's feet."""
    hub, sched = make_hub()
    obs = Observability(forensics=hub)
    groups = ObjectGroupTable()
    groups.create("ledger", (0, 1, 2))
    voter = Voter(
        "client", groups, digest_fn=lambda b: bytes([sum(b) % 251]), obs=obs, proc_id=4
    )
    sched.now = 0.5
    assert voter.add_copy("ledger", 9, 0, b"\x07") is None
    sched.now = 0.6
    assert voter.add_copy("ledger", 9, 1, b"\x07") is not None  # majority of 3
    sched.now = 0.7
    late = voter.add_copy("ledger", 9, 2, b"\x63")  # the corrupt minority
    assert late is not None

    timeline = merge_timeline(hub)
    divergences = [e for e in timeline if e.etype == "vote_divergence"]
    assert len(divergences) == 1
    event = divergences[0]
    assert event.get("culprit") == 2
    assert event.get("culprit_digest") != event.get("winning_digest")
    # suspicion events make the attribution (the voter alone reports,
    # it does not accuse); simulate the detector's follow-up
    hub.recorder(4).record(
        "suspect", suspect=2, reason="value_fault", provable=True, new=True
    )
    result = attribute(timeline=merge_timeline(hub))
    assert [c["proc"] for c in result["culprits"]] == [2]
    assert result["culprits"][0]["divergences"] == 1


def test_early_divergence_attributes_minority_against_winner():
    """Minority arriving before the majority is still attributed."""
    hub, sched = make_hub()
    obs = Observability(forensics=hub)
    groups = ObjectGroupTable()
    groups.create("ledger", (0, 1, 2))
    voter = Voter(
        "client", groups, digest_fn=lambda b: bytes([sum(b) % 251]), obs=obs, proc_id=4
    )
    sched.now = 0.1
    voter.add_copy("ledger", 1, 2, b"\x63")  # corrupt copy first
    voter.add_copy("ledger", 1, 0, b"\x07")
    decision = voter.add_copy("ledger", 1, 1, b"\x07")
    assert decision is not None and decision.faulty_senders == {2}
    events = [e for e in merge_timeline(hub) if e.etype == "vote_divergence"]
    assert len(events) == 1 and events[0].get("culprit") == 2


def test_absolved_suspicion_does_not_accuse():
    hub, sched = make_hub()
    recorder = hub.recorder(0)
    sched.now = 1.0
    recorder.record("suspect", suspect=3, reason="fail_to_send", provable=False)
    sched.now = 1.5
    recorder.record("absolve", suspect=3, cleared=("fail_to_send",), fully=True)
    result = attribute(merge_timeline(hub))
    assert result["culprits"] == []


def test_provable_suspicion_is_permanent_in_attribution():
    hub, sched = make_hub()
    recorder = hub.recorder(0)
    sched.now = 1.0
    recorder.record("suspect", suspect=3, reason="mutant_token", provable=True)
    sched.now = 1.5
    recorder.record("absolve", suspect=3, cleared=("fail_to_send",), fully=False)
    result = attribute(merge_timeline(hub))
    assert [c["proc"] for c in result["culprits"]] == [3]


def test_membership_epochs_reconstructed():
    hub, sched = make_hub()
    for pid in (0, 1):
        recorder = hub.recorder(pid)
        recorder.set_context(ring=1)
        sched.now = 0.0
        recorder.record("membership_install", members=(0, 1, 2), excluded=(), cut=0)
    for pid in (0, 1):
        recorder = hub.recorder(pid)
        recorder.set_context(ring=3)
        sched.now = 2.0 + pid * 0.001
        recorder.record("membership_install", members=(0, 1), excluded=(2,), cut=9)
    epochs = attribute(merge_timeline(hub))["membership_epochs"]
    assert len(epochs) == 2
    assert epochs[0]["ring"] == 1 and epochs[0]["members"] == [0, 1, 2]
    assert epochs[1]["ring"] == 3 and epochs[1]["excluded"] == [2]
    assert epochs[1]["installed_by"] == [0, 1]
    assert epochs[1]["first_install"] == 2.0
    assert epochs[1]["last_install"] == 2.001


# ----------------------------------------------------------------------
# scorecard
# ----------------------------------------------------------------------


def test_stable_fault_ids():
    assert fault_id_for("crash", 3, 2.6) == "crash:P3@2.6"
    assert fault_id_for("mutant_token", 4, 1.0) == "mutant_token:P4@1"
    assert fault_id_for("value_fault", 2, 0.0) == "value_fault:P2@0"
    # idempotent registration
    hub, _ = make_hub()
    hub.record_ground_truth("crash:P3@2.6", "crash", 3, 2.6)
    hub.record_ground_truth("crash:P3@2.6", "crash", 3, 2.6)
    assert len(hub.ground_truth()) == 1


def test_scorecard_detection_latency_across_reconfiguration():
    """Latency spans suspicion -> install; reconfig durations are scored."""
    hub, sched = make_hub()
    hub.record_ground_truth(fault_id_for("crash", 2, 1.0), "crash", 2, 1.0)
    for pid in (0, 1):
        recorder = hub.recorder(pid)
        recorder.set_context(ring=1)
        sched.now = 1.4
        recorder.record("reconfig_begin", joining=False, suspects=[2])
        recorder.record("suspect", suspect=2, reason="fail_to_send", provable=False)
        sched.now = 1.9
        recorder.set_context(ring=3)
        recorder.record("membership_install", members=(0, 1), excluded=(2,), cut=5)
        recorder.record("suspect", suspect=2, reason="excluded", provable=True)
    card = score(hub)
    assert card["precision"] == 1.0
    assert card["recall"] == 1.0
    [entry] = [f for f in card["per_fault"] if f["fault_id"] == "crash:P2@1"]
    assert entry["outcome"] == "detected"
    assert abs(entry["detection_latency"] - 0.4) < 1e-9
    assert card["detection_latency"]["count"] == 1
    assert card["reconfig_seconds"]["count"] == 2
    assert abs(card["reconfig_seconds"]["p50"] - 0.5) < 1e-9


def test_scorecard_counts_false_positives():
    hub, sched = make_hub()
    hub.record_ground_truth(fault_id_for("crash", 2, 1.0), "crash", 2, 1.0)
    recorder = hub.recorder(0)
    sched.now = 1.2
    recorder.record("suspect", suspect=2, reason="fail_to_send", provable=False)
    recorder.record("suspect", suspect=1, reason="mutant_token", provable=True)
    card = score(hub)
    assert card["false_positives"] == [1]
    assert card["precision"] == 0.5
    assert card["recall"] == 1.0


def test_scorecard_suppressed_faults_do_not_hurt_recall():
    hub, _ = make_hub()
    hub.record_ground_truth(
        fault_id_for("masquerade", 4, 2.0), "masquerade", 4, 2.0
    )
    card = score(hub)
    assert card["recall"] == 1.0 and card["precision"] == 1.0
    assert card["per_fault"][0]["outcome"] == "suppressed"


def test_missed_fault_lowers_recall():
    hub, _ = make_hub()
    hub.record_ground_truth(fault_id_for("crash", 2, 1.0), "crash", 2, 1.0)
    card = score(hub)
    assert card["recall"] == 0.0
    assert card["per_fault"][0]["outcome"] == "missed"


# ----------------------------------------------------------------------
# report + rendering
# ----------------------------------------------------------------------


def test_render_report_shows_the_timeline_and_the_scorecard():
    hub, sched = make_hub()
    recorder = hub.recorder(0)
    recorder.set_context(ring=1, seq=3)
    sched.now = 0.4
    recorder.record("suspect", suspect=2, reason="mutant_token", provable=True)
    hub.record_ground_truth(
        fault_id_for("mutant_token", 2, 0.3), "mutant_token", 2, 0.3
    )
    report = build_report(hub, scenario={"scenario": "unit"})
    text = render_report(report, merge_timeline(hub))
    assert "suspect" in text and "reason=mutant_token" in text
    assert "precision=1.000" in text


# ----------------------------------------------------------------------
# multi-ring (sharded) timelines
# ----------------------------------------------------------------------


def test_merge_disambiguates_token_seq_collisions_across_shards():
    # Two rings number their token sequences independently from zero, so
    # identical (time, seq) pairs collide across rings; the shard id
    # must order them deterministically.
    hub, sched = make_hub()
    ring0 = hub.recorder(0)
    ring1 = hub.recorder(6)
    ring1.shard = 1
    for recorder in (ring0, ring1):
        recorder.set_context(ring=1, seq=7)
    sched.now = 1.0
    ring1.record("token_send", visit=1)
    ring0.record("token_send", visit=1)
    sched.now = 0.5
    ring1.record("delivery_commit", seq=7)
    timeline = merge_timeline(hub)
    assert [(e.time, e.shard, e.proc) for e in timeline] == [
        (0.5, 1, 6),
        (1.0, 0, 0),
        (1.0, 1, 6),
    ]
    assert [e.to_dict() for e in merge_timeline(hub)] == [
        e.to_dict() for e in timeline
    ]


def test_merge_interleaves_two_shards_by_sim_time():
    hub, sched = make_hub()
    ring0 = hub.recorder(1)
    ring1 = hub.recorder(8)
    ring1.shard = 1
    for t, recorder in [(0.1, ring0), (0.2, ring1), (0.3, ring0), (0.4, ring1)]:
        sched.now = t
        recorder.record("suspect", suspect=2, reason="fail_to_send")
    assert [(e.time, e.shard) for e in merge_timeline(hub)] == [
        (0.1, 0),
        (0.2, 1),
        (0.3, 0),
        (0.4, 1),
    ]


def test_render_timeline_shows_shard_column_only_when_sharded():
    from repro.obs.forensics import render_timeline

    hub, sched = make_hub()
    sched.now = 1.0
    hub.recorder(0).record("suspect", suspect=3, reason="fail_to_send")
    single = render_timeline(merge_timeline(hub))
    assert "shard" not in single

    ring1 = hub.recorder(6)
    ring1.shard = 1
    sched.now = 2.0
    ring1.record("suspect", suspect=9, reason="mutant_token")
    multi = render_timeline(merge_timeline(hub))
    assert "shard" in multi
    assert "S1" in multi


def test_shard_survives_report_round_trip():
    hub, sched = make_hub()
    ring1 = hub.recorder(6)
    ring1.shard = 1
    sched.now = 1.5
    ring1.record("suspect", suspect=9, reason="mutant_token")
    report = build_report(hub, scenario={"scenario": "shards"})
    reloaded = json.loads(json.dumps(report, sort_keys=True))
    event = reloaded["timeline"][0]
    assert event["shard"] == 1
