"""Alternating parent/change ladder passes for a host-metric claim.

    python3 tools/claim_pairs.py PARENT_TREE CHANGE_TREE --workload W --seed S --pr N --pairs 10

Each pair runs ``python3 -m ladder pass --workload W --seed S --seconds
20 --trace 0`` once in each tree (a checkout of the parent commit and
one of the change), one after the other; every other pair starts on the
change side, so neither side always runs on a warmer machine.  Both
passes must be correct and agree on every simulated value (``sim_*``
and ``failed``): a host claim is only read between runs that did the
same simulated work.

It prints every pair, each side's quartiles of the metric
(``--metric``, ``host_cal_per_inv`` by default) and of the raw host
microseconds per invocation, the medians of the other host metrics,
how many pairs the change won, and the median gap against the parent's
inter-quartile distance.  A claim holds
when the change is better in at least nine of ten pairs and the medians
lie further apart than the parent's quartiles.  The last line is the
claim's ``BENCH_claims.json`` row (``pr`` is ``--pr``, the number of the
change making the claim, which nothing can guess: the claims file has no
row for a change that made no claim; ``commit`` is the parent tree's HEAD).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SECONDS = 20


def run_pass(tree, workload, seed):
    """The stdout of one measured ladder pass, run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-m", "ladder", "pass", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit("%s: the pass failed (exit %d)\n%s%s"
                         % (tree, done.returncode, done.stdout, done.stderr))
    return done.stdout


def parse_pass(stdout):
    """``(metrics, raw_us_per_inv, simulated)`` of one pass's output."""
    lines = stdout.splitlines()
    details = [line for line in lines if line.startswith("detail: ")]
    if not details:
        raise SystemExit("the pass printed no detail line:\n%s" % stdout)
    detail = json.loads(details[-1][len("detail: "):])
    if not detail["correct"]:
        raise SystemExit("the pass fails its correctness gate at %s" % detail["problems"])
    rungs = detail["rungs"]
    raw_us = 1e6 * sum(r["host_s"] for r in rungs) / sum(r["completed"] for r in rungs)
    simulated = {k: v for k, v in detail["metrics"].items() if k.startswith("sim_")}
    simulated["failed"] = detail["failed"]
    return detail["metrics"], raw_us, simulated


def quartiles(values):
    """``[q1, median, q3]``, the median being ``statistics.median``'s."""
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs, metric, better):
    """What ``pairs`` of ``(parent, change)`` parsed passes say about ``metric``."""
    for parent, change in pairs:
        if parent[2] != change[2]:
            raise SystemExit("the two trees differ in a simulated value: %r vs %r"
                             % (parent[2], change[2]))
    parent = [p[0][metric] for p, _ in pairs]
    change = [c[0][metric] for _, c in pairs]
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    parent_q, change_q = quartiles(parent), quartiles(change)
    return {
        "parent": parent_q,
        "change": change_q,
        "parent_raw_us": quartiles([p[1] for p, _ in pairs]),
        "change_raw_us": quartiles([c[1] for _, c in pairs]),
        "pairs": len(pairs),
        "wins": wins,
        "gain": sign * (parent_q[1] - change_q[1]),
        "iqr": parent_q[2] - parent_q[0],
    }


def claim_row(summary, better, metric, unit, workload, seed, pr, commit, digits=3):
    """The claim's ``BENCH_claims.json`` row, rounded to ``digits`` decimals.

    ``ok`` is the claim rule applied to the rounded figures, the ones the
    row shows.
    """
    parent = [round(q, digits) for q in summary["parent"]]
    change = [round(q, digits) for q in summary["change"]]
    gain = parent[1] - change[1] if better == "lower" else change[1] - parent[1]
    pairs = summary["pairs"]
    return {
        "change_quartiles": change,
        "commit": commit,
        "gate": "<%s" % parent[1],
        "lower_in": summary["wins"],
        "metric": "PR %d %s %s" % (pr, workload, metric),
        "ok": pairs == 10 and summary["wins"] >= 9 and gain > parent[2] - parent[0],
        "pairs": pairs,
        "parent_quartiles": parent,
        "pr": pr,
        "seed": seed,
        "transcribed": False,
        "unit": unit,
        "value": change[1],
        "workload": workload,
    }


def _declared(tree, metric):
    with open(os.path.join(tree, "BENCHMARK.json")) as declared:
        for entry in json.load(declared)["end_to_end"]:
            if entry["name"] == metric:
                return entry
    raise SystemExit("%s is not an end-to-end metric of BENCHMARK.json" % metric)


def parent_commit(tree):
    done = subprocess.run(["git", "rev-parse", "--short=7", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _fmt(values):
    return " / ".join("%.4g" % v for v in values)


def main(argv, run=run_pass):
    parser = argparse.ArgumentParser(prog="python3 tools/claim_pairs.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="host_cal_per_inv")
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    declared = _declared(args.change_tree, args.metric)
    pairs = []
    for index in range(args.pairs):
        sides = [args.parent_tree, args.change_tree]
        if index % 2:
            sides.reverse()
        out = {tree: parse_pass(run(tree, args.workload, args.seed)) for tree in sides}
        pairs.append((out[args.parent_tree], out[args.change_tree]))
        print("pair %2d (%s first): parent %.4g, change %.4g %s" % (
            index + 1, "change" if index % 2 else "parent", pairs[-1][0][0][args.metric],
            pairs[-1][1][0][args.metric], declared["unit"]))
    summary = summarise(pairs, args.metric, declared["better"])
    print("%s %s, quartiles (q1 / median / q3):" % (args.workload, args.metric))
    print("  parent %s %s" % (_fmt(summary["parent"]), declared["unit"]))
    print("  change %s %s" % (_fmt(summary["change"]), declared["unit"]))
    print("raw host CPU, us per invocation:")
    print("  parent %s" % _fmt(summary["parent_raw_us"]))
    print("  change %s" % _fmt(summary["change_raw_us"]))
    for name in sorted(pairs[0][0][0]):
        if name != args.metric and not name.startswith("sim_"):
            print("%s median: parent %.4g, change %.4g" % (
                name, statistics.median(p[0][name] for p, _ in pairs),
                statistics.median(c[0][name] for _, c in pairs)))
    row = claim_row(summary, declared["better"], args.metric, declared["unit"], args.workload,
                    args.seed, args.pr, parent_commit(args.parent_tree))
    print("change better in %d of %d pairs; median gap %.4g against the parent's IQR %.4g: "
          "the claim %s" % (summary["wins"], summary["pairs"], summary["gain"], summary["iqr"],
                            "holds" if row["ok"] else "does not hold"))
    print(json.dumps(row, sort_keys=True))
    return 0 if row["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
