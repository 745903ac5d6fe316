"""Checks of the benchmark itself.  Not tier-1:

    PYTHONPATH=src python -m pytest ladder -q
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

from ladder import cli, metrics
from ladder.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def test_names_are_plain():
    for name in list(WORKLOADS) + list(metrics.UNITS):
        assert NAME.match(name), name
    assert len(metrics.UNITS) == len(metrics.END_TO_END) + len(metrics.PER_LAYER)


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "-m", "ladder", "pass"]
    assert BENCHMARK["paths"] == ["ladder"]
    assert BENCHMARK["run_seconds"] == cli.RUN_SECONDS
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]
    assert all(e["bound"] <= 0.25 for e in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_pass_prints_every_metric_with_its_unit(trace, listed):
    done = subprocess.run(
        [sys.executable, "-m", "ladder", "pass", "--workload", "ring_signed_twoway_4k",
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    assert list(result["metrics"]) and set(result["metrics"]) == {
        m["name"] for m in BENCHMARK[listed]
    }
    for spec in BENCHMARK[listed]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert any(
            line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
            for line in lines
        ), spec["name"]
    if trace:
        shares = [v["value"] for n, v in result["metrics"].items() if n.endswith("host_share")]
        assert len(shares) == 9 and abs(sum(shares) - 1.0) <= 0.01


def _result(host_passes=(1000.0, 1010.0, 1020.0), failed=0, lossy_failed=5):
    values = {
        name: {"value": 5.0, "unit": unit, "passes": [5.0, 5.0, 5.0]}
        for name, unit, _better, _bound in metrics.END_TO_END
    }
    values["host_cal_per_inv"] = {
        "value": sorted(host_passes)[1], "unit": "cal", "passes": list(host_passes)
    }
    return {
        "seed": 7, "seconds": 20, "passes": 3, "traced": False, "smoke": False,
        "workloads": {
            "w": {
                "metrics": values, "attempted": 100, "failed": failed,
                "lossy": {"attempted": 100, "failed": lossy_failed},
            }
        },
    }


def _verdicts(before, after):
    return {metric: verdict for _w, metric, _a, _b, _r, _bound, verdict in cli.compare(before, after)}


def test_compare_passes_an_identical_pair():
    assert set(_verdicts(_result(), _result()).values()) == {"same"}


def test_compare_flags_a_20_percent_host_regression():
    slower = _result(host_passes=(1200.0, 1212.0, 1224.0))
    verdicts = _verdicts(_result(), slower)
    assert verdicts["host_cal_per_inv"] == "worse"
    assert _verdicts(slower, _result())["host_cal_per_inv"] == "better"
    assert all(v == "same" for m, v in verdicts.items() if m != "host_cal_per_inv")


def test_compare_flags_an_extra_failure():
    assert _verdicts(_result(), _result(failed=1))["failed"] == "worse"
    assert _verdicts(_result(), _result(lossy_failed=6))["failed under loss"] == "worse"


def test_compare_refuses_runs_of_different_length():
    shorter = dict(_result(), seconds=2, smoke=True)
    with pytest.raises(SystemExit, match="not comparable: seconds"):
        cli.compare(_result(), shorter)


def test_compare_does_not_resolve_what_the_passes_spread_over():
    noisy = _result(host_passes=(1000.0, 1200.0, 1400.0))
    assert _verdicts(_result(), noisy)["host_cal_per_inv"] == "unresolved"


def test_compare_exits_nonzero_on_worse(tmp_path):
    paths = []
    for name, result in (("a.json", _result()), ("b.json", _result(failed=2))):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as out:
            json.dump(copy.deepcopy(result), out)
    assert cli.main(["compare", paths[0], paths[0]]) == 0
    assert cli.main(["compare", paths[0], paths[1]]) == 1
