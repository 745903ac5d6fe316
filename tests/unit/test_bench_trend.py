"""Unit tests for the perf-trajectory aggregator (:mod:`repro.bench.trend`)."""

import json

import pytest

from repro.bench.scenarios import main
from repro.bench.trend import (
    TrendInputError,
    build_report,
    collect,
    render_table,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def seed_artifacts(tmp_path):
    write(tmp_path, "BENCH_pr2.json", {
        "bench": "pr2-hot-path-overhaul",
        "speedup": 2.095, "min_speedup": 2.0, "ok": True,
    })
    write(tmp_path, "BENCH_pr5.json", {
        "bench": "cluster-scaling",
        "scaling_2_rings": 1.944, "scaling_4_rings": 4.373,
    })
    write(tmp_path, "BENCH_pr7.json", {
        "bench": "pr7-batch-signature-pipeline",
        "throughput_ratio": 6.66, "min_ratio": 3.0, "ok": True,
    })


def test_collect_extracts_all_headlines(tmp_path):
    seed_artifacts(tmp_path)
    entries = collect(str(tmp_path))
    assert [e["file"] for e in entries] == [
        "BENCH_pr2.json", "BENCH_pr5.json", "BENCH_pr7.json"
    ]
    report = build_report(entries)
    assert len(report["rows"]) == 4
    assert report["all_gates_ok"] is True
    values = {row["metric"]: row["value"] for row in report["rows"]}
    assert values["hot-path wall-clock speedup"] == 2.095
    assert values["aggregate throughput scaling, 2 rings"] == 1.944
    assert values["aggregate throughput scaling, 4 rings"] == 4.373
    assert values["batch-signature simulated throughput ratio"] == 6.66


def test_collect_skips_trend_and_scratch_copies(tmp_path):
    seed_artifacts(tmp_path)
    write(tmp_path, "BENCH_trend.json", {"bench": "trend"})
    write(tmp_path, "BENCH_pr2-rerun.json", {"bench": "pr2-hot-path-overhaul"})
    write(tmp_path, "BENCH_pr7-rerun.json", {"bench": "x"})
    entries = collect(str(tmp_path))
    assert [e["file"] for e in entries] == [
        "BENCH_pr2.json", "BENCH_pr5.json", "BENCH_pr7.json"
    ]


def test_unrecognised_artifact_is_listed_not_fatal(tmp_path):
    seed_artifacts(tmp_path)
    write(tmp_path, "BENCH_pr99.json", {"bench": "future-thing", "x": 1})
    entries = collect(str(tmp_path))
    entry = next(e for e in entries if e["file"] == "BENCH_pr99.json")
    assert entry["rows"] == []
    assert "no recognised headline" in render_table(entries)


def test_self_describing_headline_needs_no_code_changes(tmp_path):
    # A future artifact carrying its own headline rows (the BENCH_wan
    # convention) is picked up by the fallback extractor: rows render,
    # gates count, sort order stays stable — no per-bench code needed.
    seed_artifacts(tmp_path)
    write(tmp_path, "BENCH_wan.json", {
        "bench": "wan-federation",
        "ok": True,
        "headline": [
            {"metric": "worst local p50 deviation vs baseline",
             "value": 0.0001, "unit": "fraction", "gate": "<= 0.05",
             "ok": True},
            {"metric": "geo-bank conserved through site compromise",
             "value": 1, "unit": "bool", "gate": "== 1", "ok": True},
            {"metric": "malformed row without a metric"},
        ],
    })
    entries = collect(str(tmp_path))
    assert [e["file"] for e in entries] == [
        "BENCH_pr2.json", "BENCH_pr5.json", "BENCH_pr7.json",
        "BENCH_wan.json",
    ]
    wan = next(e for e in entries if e["file"] == "BENCH_wan.json")
    assert [row["metric"] for row in wan["rows"]] == [
        "worst local p50 deviation vs baseline",
        "geo-bank conserved through site compromise",
    ]
    report = build_report(entries)
    assert report["all_gates_ok"] is True
    table = render_table(entries)
    assert "BENCH_wan.json" in table
    assert "worst local p50 deviation" in table
    assert "<= 0.05" in table  # string gates render verbatim


def test_self_describing_headline_gate_failure_counts(tmp_path):
    seed_artifacts(tmp_path)
    write(tmp_path, "BENCH_wan.json", {
        "bench": "wan-federation",
        "headline": [
            {"metric": "worst local p50 deviation vs baseline",
             "value": 0.2, "unit": "fraction", "gate": "<= 0.05",
             "ok": False},
        ],
    })
    entries = collect(str(tmp_path))
    assert build_report(entries)["all_gates_ok"] is False
    assert main(["trend", "--dir", str(tmp_path)]) == 1


def test_unparsable_artifact_raises(tmp_path):
    (tmp_path / "BENCH_bad.json").write_text("{nope")
    with pytest.raises(TrendInputError, match="BENCH_bad.json"):
        collect(str(tmp_path))


def test_failed_gate_flips_exit_code_and_flag(tmp_path):
    write(tmp_path, "BENCH_pr2.json", {
        "bench": "pr2-hot-path-overhaul",
        "speedup": 1.2, "min_speedup": 2.0, "ok": False,
    })
    entries = collect(str(tmp_path))
    assert build_report(entries)["all_gates_ok"] is False
    assert "FAIL" in render_table(entries)
    assert main(["trend", "--dir", str(tmp_path)]) == 1


def test_cli_writes_deterministic_trend_json(tmp_path, capsys):
    seed_artifacts(tmp_path)
    assert main(["trend", "--dir", str(tmp_path)]) == 0
    out = tmp_path / "BENCH_trend.json"
    first = out.read_bytes()
    assert main(["trend", "--dir", str(tmp_path)]) == 0
    assert out.read_bytes() == first
    report = json.loads(first)
    assert report["bench"] == "trend"
    assert report["artifacts"] == [
        "BENCH_pr2.json", "BENCH_pr5.json", "BENCH_pr7.json"
    ]
    table = capsys.readouterr().out
    assert "perf trajectory" in table
    assert "2.10x" in table and "6.66x" in table


def test_cli_errors_on_empty_directory(tmp_path, capsys):
    assert main(["trend", "--dir", str(tmp_path)]) == 2
    assert "no BENCH_" in capsys.readouterr().err


def test_every_committed_artifact_contributes_headline_rows():
    # Every BENCH_*.json actually committed at the repo root must render
    # rows in the trend table — a bench whose artifact hits the
    # "(no recognised headline)" fallback warning has broken the
    # self-describing-headline contract.
    import os

    repo_root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    entries = collect(repo_root)
    assert entries, "no BENCH_*.json artifacts at the repo root"
    for entry in entries:
        assert entry["rows"], "%s contributes no headline rows" % entry["file"]
    assert "no recognised headline" not in render_table(entries)
