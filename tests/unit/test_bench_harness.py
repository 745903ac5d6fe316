"""Unit tests for the benchmark harness utilities."""

import pytest

from repro.bench.ablations import format_sweep
from repro.bench.harness import (
    CASE_LABELS,
    CaseResult,
    format_series,
    run_packet_driver_case,
)
from repro.bench.latency import LatencyResult
from repro.core.config import SurvivabilityCase


def test_case_labels_cover_every_case():
    assert set(CASE_LABELS) == set(SurvivabilityCase)


def test_unreplicated_point_runs_fast_and_keeps_up():
    result = run_packet_driver_case(
        SurvivabilityCase.UNREPLICATED, 500e-6, duration=0.05, warmup=0.02
    )
    assert result.offered == pytest.approx(2000)
    assert result.throughput == pytest.approx(result.offered, rel=0.1)
    assert result.received > 0
    assert result.interval_us == pytest.approx(500)


def test_replicated_point_counts_cpu_categories():
    result = run_packet_driver_case(
        SurvivabilityCase.MAJORITY_VOTING, 500e-6, duration=0.05, warmup=0.02
    )
    assert "multicast.receive" in result.cpu
    assert result.throughput > 0


def test_format_series_lines_up():
    results = {
        SurvivabilityCase.UNREPLICATED: [
            CaseResult(SurvivabilityCase.UNREPLICATED, 1e-4, 10000, 9000, 1, 1, {})
        ],
        SurvivabilityCase.FULL_SURVIVABILITY: [
            CaseResult(SurvivabilityCase.FULL_SURVIVABILITY, 1e-4, 10000, 300, 1, 1, {})
        ],
    }
    text = format_series(results)
    assert "9000" in text
    assert "300" in text
    assert "case 1" in text and "case 4" in text


def test_format_sweep():
    rows = [(1, CaseResult(SurvivabilityCase.FULL_SURVIVABILITY, 1e-4, 10000, 111, 1, 1, {}))]
    text = format_sweep("title", "j", rows)
    assert "title" in text and "111" in text


def test_latency_result_statistics():
    result = LatencyResult(SurvivabilityCase.UNREPLICATED, [3.0, 1.0, 2.0, 4.0])
    assert result.count == 4
    assert result.mean == pytest.approx(2.5)
    assert result.median == 3.0  # upper median
    assert result.percentile(0.0) == 1.0
    assert result.percentile(0.99) == 4.0


def test_latency_result_empty():
    result = LatencyResult(SurvivabilityCase.UNREPLICATED, [])
    assert result.count == 0
    assert result.mean == 0.0
    assert result.median == 0.0
    assert result.percentile(0.5) == 0.0

