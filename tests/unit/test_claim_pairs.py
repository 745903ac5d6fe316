"""The claim helper (``tools/claim_pairs.py``) on canned ladder passes.

No pass is run: ``main`` is handed a fake runner that prints what
``python3 -m ladder pass`` prints, so the test checks the alternation,
the arithmetic and the ``BENCH_claims.json`` row it emits against the
rules ``test_bench_trend.py`` holds every committed row to.
"""

import importlib.util
import json
import os

import pytest

from tests.unit.test_bench_trend import check_claim_row, check_measured_claim_ok

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SPEC = importlib.util.spec_from_file_location(
    "claim_pairs", os.path.join(ROOT, "tools", "claim_pairs.py")
)
claim_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(claim_pairs)

SIMULATED = {"sim_throughput_inv_s": 1332.0, "sim_latency_p50_ms": 53.67966883640318}


def canned_pass(cal, host_s, completed=3220, simulated=SIMULATED, correct=True):
    """The stdout of one ``ladder pass --trace 0``, cut to what is read."""
    metrics = dict(simulated, host_cal_per_inv=cal, setup_s=0.25, host_peak_rss_mb=32.8)
    detail = {
        "correct": correct, "problems": [] if correct else ["1000 inv/s: lost"],
        "attempted": completed, "failed": 0, "metrics": metrics,
        "rungs": [{"host_s": host_s / 2, "completed": completed // 2},
                  {"host_s": host_s / 2, "completed": completed - completed // 2}],
    }
    return "\n".join([
        "wan_mixed_twoway seed 3: open loop",
        "  host_cal_per_inv %g cal" % cal,
        "detail: " + json.dumps(detail),
        json.dumps({"correct": correct, "metrics": {}}),
    ]) + "\n"


class Runner:
    """Hands out canned passes per tree, recording the order it was asked in."""

    def __init__(self, outputs):
        self.outputs = {tree: list(runs) for tree, runs in outputs.items()}
        self.calls = []

    def __call__(self, tree, workload, seed):
        self.calls.append((tree, workload, seed))
        return self.outputs[tree].pop(0)


def _run(capsys, runner, pairs=10):
    status = claim_pairs.main(
        ["parent", ROOT, "--workload", "wan_mixed_twoway", "--seed", "47",
         "--pairs", str(pairs), "--pr", "99"],
        run=runner,
    )
    out = capsys.readouterr().out
    return status, out, json.loads(out.splitlines()[-1])


@pytest.fixture(autouse=True)
def _no_git(monkeypatch):
    monkeypatch.setattr(claim_pairs, "parent_commit", lambda tree: "abc1234")


def test_a_clear_gain_emits_a_row_the_claims_file_accepts(capsys):
    parent = [5.30, 5.25, 5.41, 5.33, 5.27, 5.36, 5.29, 5.44, 5.31, 5.35]
    change = [4.95, 4.90, 4.99, 4.96, 4.93, 5.40, 4.97, 4.92, 4.98, 4.94]  # pair 6 lost
    runner = Runner({
        "parent": [canned_pass(c, c * 1.05) for c in parent],
        ROOT: [canned_pass(c, c * 1.05) for c in change],
    })
    status, out, row = _run(capsys, runner)
    assert status == 0
    # the side that runs first alternates, starting on the parent's
    assert [tree for tree, _, _ in runner.calls] == ["parent", ROOT, ROOT, "parent"] * 5
    assert all(call[1:] == ("wan_mixed_twoway", 47) for call in runner.calls)
    check_claim_row(row)
    check_measured_claim_ok(row)
    assert row["ok"] is True
    assert row["lower_in"] == 9
    assert row["parent_quartiles"] == [5.293, 5.32, 5.357]
    assert row["change_quartiles"] == [4.933, 4.955, 4.978]
    assert (row["commit"], row["pr"], row["seed"], row["pairs"]) == ("abc1234", 99, 47, 10)
    assert row["metric"] == "PR 99 wan_mixed_twoway host_cal_per_inv"
    assert (row["unit"], row["transcribed"]) == ("cal", False)
    # raw microseconds per invocation, beside the calibrated figure
    raw = out.split("raw host CPU, us per invocation:")[1].splitlines()
    assert raw[1] == "  parent %s" % claim_pairs._fmt(
        claim_pairs.quartiles([1e6 * c * 1.05 / 3220 for c in parent]))
    assert raw[2] == "  change %s" % claim_pairs._fmt(
        claim_pairs.quartiles([1e6 * c * 1.05 / 3220 for c in change]))
    assert "the claim holds" in out


def test_a_gain_inside_the_parents_spread_does_not_hold(capsys):
    parent = [5.0, 5.4, 5.1, 5.5, 5.2, 5.45, 5.05, 5.35, 5.15, 5.3]
    change = [p - 0.05 for p in parent]
    runner = Runner({
        "parent": [canned_pass(c, 1.0) for c in parent],
        ROOT: [canned_pass(c, 1.0) for c in change],
    })
    status, out, row = _run(capsys, runner)
    assert status == 1
    assert row["lower_in"] == 10 and row["ok"] is False
    check_claim_row(row)
    check_measured_claim_ok(row)
    assert "the claim does not hold" in out


def test_fewer_than_ten_pairs_never_hold(capsys):
    runner = Runner({
        "parent": [canned_pass(5.3, 1.0)] * 5,
        ROOT: [canned_pass(4.9, 1.0)] * 5,
    })
    status, _, row = _run(capsys, runner, pairs=5)
    assert status == 1 and row["pairs"] == 5 and row["ok"] is False
    check_measured_claim_ok(row)


def test_trees_that_differ_in_a_simulated_value_are_refused(capsys):
    moved = dict(SIMULATED, sim_latency_p50_ms=53.7)
    runner = Runner({
        "parent": [canned_pass(5.3, 1.0)],
        ROOT: [canned_pass(4.9, 1.0, simulated=moved)],
    })
    with pytest.raises(SystemExit, match="differ in a simulated value"):
        _run(capsys, runner, pairs=1)


def test_an_incorrect_pass_is_refused(capsys):
    runner = Runner({
        "parent": [canned_pass(5.3, 1.0, correct=False)],
        ROOT: [canned_pass(4.9, 1.0)],
    })
    with pytest.raises(SystemExit, match="correctness gate"):
        _run(capsys, runner, pairs=1)


def test_without_pr_the_tool_refuses_before_any_pass(capsys):
    runner = Runner({"parent": [], ROOT: []})
    with pytest.raises(SystemExit) as refused:
        claim_pairs.main(["parent", ROOT, "--workload", "wan_mixed_twoway", "--seed", "47"],
                         run=runner)
    assert refused.value.code == 2  # argparse's usage error
    assert runner.calls == []
    assert "--pr" in capsys.readouterr().err
