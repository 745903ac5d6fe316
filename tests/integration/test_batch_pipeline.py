"""End-to-end tests of the batch-signature pipelined multicast.

The unit suites pin the mechanism down in isolation; these run the
whole Immune system — packet driver, rings, replication, voting,
forensics — with ``batch_signatures`` on and check the emergent
claims: the throughput win, survivable value-fault attribution inside
signed batches, large-payload fragmentation, and determinism.
"""

from repro.bench.drills import run_intrusion_drill
from repro.bench.perf import BATCH_SMOKE, _run_batch_case
from repro.bench.scenarios import regenerate
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.obs.forensics import build_report, merge_timeline
from tests.support import MulticastWorld, defeat_memos, force_python_md4


DURATION = BATCH_SMOKE["duration"]
WARMUP = BATCH_SMOKE["warmup"]


def test_batch_pipeline_beats_per_visit_signatures_3x():
    per_visit = _run_batch_case(False, DURATION, WARMUP)
    batched = _run_batch_case(True, DURATION, WARMUP)
    assert per_visit["throughput"] > 0
    ratio = batched["throughput"] / per_visit["throughput"]
    assert ratio >= 3.0, "batch pipeline ratio %.2fx below the 3x gate" % ratio
    # Same kind of totally-ordered work is still being done, just faster.
    assert batched["sent"] > 0 and batched["received"] > 0


def test_batch_case_is_identical_with_memos_defeated(monkeypatch):
    memoised = _run_batch_case(True, DURATION, WARMUP)
    defeat_memos(monkeypatch)
    assert _run_batch_case(True, DURATION, WARMUP) == memoised


def test_batch_gate_artefact_is_identical_on_the_python_md4(tmp_path, monkeypatch):
    """``BENCH_pr7.json`` (smoke-sized here) is the same file whichever
    MD4 backend the platform offered."""
    selected, python = tmp_path / "selected.json", tmp_path / "python.json"
    assert regenerate("perf", smoke=True, out=str(selected))[1] == 0
    force_python_md4(monkeypatch)
    assert regenerate("perf", smoke=True, out=str(python))[1] == 0
    assert python.read_bytes() == selected.read_bytes()


def test_intrusion_drill_with_batched_signatures_keeps_perfect_score():
    """A Byzantine replica corrupting traffic *inside* a signed batch
    and a mutant-token holder are both still convicted — precision and
    recall stay 1.0 with one signature covering many visits."""
    built, scenario = run_intrusion_drill(batch=True)
    assert scenario["batch_signatures"] is True
    report = build_report(built.obs.forensics, scenario=scenario)
    card = report["scorecard"]
    assert card["precision"] == 1.0
    assert card["recall"] == 1.0
    assert card["false_positives"] == []
    outcomes = {f["fault_id"]: f["outcome"] for f in card["per_fault"]}
    assert all(outcome == "detected" for outcome in outcomes.values())
    assert len(outcomes) == 3
    survivors = set(scenario["surviving_members"])
    assert survivors.isdisjoint({2, 3, 4})
    # Certificates actually flowed: the timeline records batch crypto.
    timeline = merge_timeline(built.obs.forensics)
    assert any(e.etype == "batch_sign" for e in timeline)
    assert any(e.etype == "batch_verify" for e in timeline)


def test_large_payloads_fragment_and_survive_the_ring():
    config = MulticastConfig(
        security=SecurityLevel.SIGNATURES,
        batch_signatures=True,
        fragment_payload_bytes=256,
    )
    world = MulticastWorld(num=3, seed=11, config=config).start()
    world.run(until=0.5)  # let the ring form
    payload = bytes(range(256)) * 5  # 1280 B -> 5 fragments
    world.endpoints[0].multicast("workers", payload)
    world.endpoints[0].multicast("workers", b"small")
    world.run(until=4.0)
    for proc_id in world.endpoints:
        payloads = world.delivered_payloads(proc_id)
        assert payload in payloads  # reassembled, byte-exact
        assert b"small" in payloads
        # total order preserved: the big payload (sent first) precedes
        assert payloads.index(payload) < payloads.index(b"small")
