"""The helper CI compares ladder smoke runs with (``tools/ladder_sim_equal.py``),
and the committed smoke result it compares against (``BENCH_ladder.json``)."""

import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SPEC = importlib.util.spec_from_file_location(
    "ladder_sim_equal", os.path.join(ROOT, "tools", "ladder_sim_equal.py")
)
helper = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(helper)


@pytest.fixture
def committed():
    with open(os.path.join(ROOT, "BENCH_ladder.json")) as result:
        return json.load(result)


def _compare(tmp_path, expected, actual):
    paths = []
    for name, result in (("expected.json", expected), ("actual.json", actual)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as out:
            json.dump(result, out)
    return helper.main(paths)


def test_the_committed_file_is_a_smoke_run_of_every_benchmark_workload(committed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as declared:
        workloads = {w["name"] for w in json.load(declared)["workloads"]}
    assert committed["smoke"] is True
    assert set(committed["workloads"]) == workloads
    simulated = helper.simulated(committed["workloads"])
    assert {key for _, key in simulated} >= {"failed", "sim_throughput_inv_s", "sim_latency_p50_ms"}


def test_equal_simulated_values_pass_whatever_the_host_measured(committed, tmp_path, capsys):
    fresh = copy.deepcopy(committed)
    for run in fresh["workloads"].values():
        for key, metric in run["metrics"].items():
            if not key.startswith("sim_"):
                metric["value"] *= 3
    assert _compare(tmp_path, committed, fresh) == 0
    out = capsys.readouterr().out
    assert "simulated values, all equal" in out and "host_cal_per_inv" in out


@pytest.mark.parametrize("field", ["sim_latency_p50_ms", "failed"])
def test_one_changed_simulated_value_fails(committed, tmp_path, capsys, field):
    fresh = copy.deepcopy(committed)
    run = fresh["workloads"]["ring_signed_twoway_4k"]
    if field == "failed":
        run["failed"] += 1
    else:
        run["metrics"][field]["value"] += 1e-9
    assert _compare(tmp_path, committed, fresh) == 1
    assert "ring_signed_twoway_4k %s" % field in capsys.readouterr().out


def test_a_missing_workload_fails(committed, tmp_path):
    fresh = copy.deepcopy(committed)
    del fresh["workloads"]["wan_mixed_twoway"]
    assert _compare(tmp_path, committed, fresh) == 1
