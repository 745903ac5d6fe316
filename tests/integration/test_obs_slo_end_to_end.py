"""End-to-end gate for the telemetry drill: ``python -m repro.bench slo``.

Asserts the acceptance story of the live-telemetry layer:

* the drill's SLO evaluation raises at least one burn-rate alert whose
  fire time precedes (or ties) the fault detector's attribution of the
  injected crash — the pager leads the post-mortem;
* the critical-path attribution decomposes span time into protocol
  causes and conserves the attributed seconds;
* the JSONL artefact (series, alerts, everything) is byte-identical
  across repeated runs and with the wall-clock memos forced to miss;
* the ``repro.obs.watch`` replay renders frames from the artefact.
"""

import json

import pytest

from repro.bench.drills import run_instrumented
from repro.obs.export import export_jsonl
from repro.obs.forensics import score
from repro.obs.watch import load_replay, main as watch_main, replay_frames
from tests.support import defeat_memos


@pytest.fixture(scope="module")
def drill():
    exported = run_instrumented(slo=True)
    obs = exported["obs"]
    return (obs, exported["run_info"], exported["slo"], exported["critpath"],
            score(obs.forensics))


def export_drill(tmp_path, name="report.jsonl"):
    path = tmp_path / name
    export_jsonl(str(path), **run_instrumented(slo=True))
    return path.read_bytes()


def test_alert_leads_or_ties_the_detector(drill):
    _obs, run_info, slo_result, _critpath, _scorecard = drill
    rows = slo_result["scorecard"]
    assert rows, "no detectable fault joined against the alerts"
    crash = next(r for r in rows if r["fault_id"].startswith("crash:"))
    assert crash["injected_at"] == run_info["crash_at"]
    assert crash["verdict"] in ("led", "tied")
    assert crash["alert_fired_at"] <= crash["detected_at"]


def test_alerts_fire_only_after_the_injection(drill):
    _obs, run_info, slo_result, _critpath, _scorecard = drill
    assert slo_result["alerts"], "the crash drill must page"
    for alert in slo_result["alerts"]:
        assert alert["fired_at"] >= run_info["crash_at"]


def test_detection_latency_objective_judged(drill):
    _obs, _run_info, slo_result, _critpath, scorecard = drill
    entry = next(
        e for e in slo_result["slos"] if e["sli"] == "detection_latency"
    )
    assert entry["status"]["met"] is not None
    assert entry["status"]["recall"] == scorecard["recall"]


def test_critical_path_decomposition_conserves_time(drill):
    obs, _run_info, _slo_result, critpath, _scorecard = drill
    assert critpath["spans"] == len(obs.spans.closed_spans())
    assert critpath["total_seconds"] > 0.0
    assert sum(r["share"] for r in critpath["per_cause"]) == pytest.approx(1.0)
    causes = {r["cause"] for r in critpath["per_cause"]}
    # The crash stalls the ring: the story must be visible in the causes.
    assert "token_wait" in causes or "retransmission" in causes
    by_stage = sum(r["seconds"] for r in critpath["per_stage"])
    assert by_stage == pytest.approx(critpath["total_seconds"])


def test_series_and_alert_json_byte_identical_across_runs(tmp_path):
    first = export_drill(tmp_path, "first.jsonl")
    second = export_drill(tmp_path, "second.jsonl")
    assert first == second


def test_export_byte_identical_with_memos_defeated(tmp_path, monkeypatch):
    memoised = export_drill(tmp_path, "memoised.jsonl")
    defeat_memos(monkeypatch)
    assert export_drill(tmp_path, "defeated.jsonl") == memoised


def test_watch_replay_renders_frames(tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_bytes(export_drill(tmp_path))
    sampler, alerts, run_info = load_replay(str(path))
    assert alerts and run_info["slo_drill"]
    frames = list(replay_frames(sampler, alerts, run_info=run_info, frames=6))
    assert len(frames) == 6
    final_time, final_frame = frames[-1]
    assert final_time == sampler.times[-1]
    # The last frame shows the whole story: curves and the alert board.
    assert "span.opened (backlog)" in final_frame
    assert "invocation-availability" in final_frame
    # Replay is deterministic frame-for-frame.
    again = list(replay_frames(sampler, alerts, run_info=run_info, frames=6))
    assert frames == again


def test_watch_cli_plain_mode(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    path.write_bytes(export_drill(tmp_path))
    assert watch_main(["--replay", str(path), "--frames", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("Immune system telemetry replay") == 3
    assert "replayed 3 frame(s)" in out


def test_watch_cli_rejects_artefact_without_series(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps({"record": "run", "seed": 1}) + "\n")
    assert watch_main(["--replay", str(path)]) == 2
    assert "no series records" in capsys.readouterr().err


def test_watch_cli_rejects_series_without_sample_points(tmp_path, capsys):
    # Series records exist but carry zero points: replaying would show
    # nothing and previously exited 0 after "replayed 0 frame(s)".
    path = tmp_path / "pointless.jsonl"
    records = [
        {"record": "run", "seed": 1},
        {"record": "series", "period": 0.05, "name": "span.opened",
         "kind": "gauge", "labels": {}, "dropped": 0, "points": []},
        {"record": "summary"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert watch_main(["--replay", str(path)]) == 2
    assert "no sample points" in capsys.readouterr().err


def test_report_cli_rejects_summary_only_artefact(tmp_path, capsys):
    from repro.obs.report import main as report_main

    path = tmp_path / "hollow.jsonl"
    records = [{"record": "run", "seed": 1}, {"record": "summary"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert report_main(["--input", str(path)]) == 2
    assert "no series or span records" in capsys.readouterr().err
