"""Every bench scenario as one row of a table, and the one CLI over it::

    python -m repro.bench NAME [--smoke] [--out PATH] [--dir DIR]

A :class:`Scenario` names its runner, the keyword forms it runs in
(``committed``, what no flag runs, and ``smoke``, CI's run-twice form),
the artefact it writes, the gates that set the exit status and the
headline rows ``bench.trend`` shows.  With no flag, a scenario that has
an artefact writes exactly the committed file; every runner derives
its report from simulated state only, so the bytes are reproducible.
A frozen scenario (``pr2``) has an artefact and headline rows but no
runner.
"""

import argparse
import json
import os
import sys

from repro.bench import cluster, elastic, figure7, latency, perf, trend, wan


class Scenario:
    """One row of :data:`SCENARIOS`.

    ``gates`` are ``(what, check)`` pairs over the report; ``headline``
    maps the report to ``{metric, value, unit, gate, ok}`` rows, which
    ``embed`` also writes into the artefact as ``"headline"``.
    """

    def __init__(self, runner, artefact=None, committed=None, smoke=None,
                 gates=(), headline=None, embed=False):
        self.runner = runner
        self.artefact = artefact
        self.committed = committed or {}
        self.smoke = self.committed if smoke is None else smoke
        self.gates = gates
        self.headline = headline
        self.embed = embed


def _row(metric, value, unit, gate, ok):
    return {"metric": metric, "value": value, "unit": unit, "gate": gate, "ok": ok}


def _cluster_rows(r):
    return [
        _row("aggregate throughput scaling, %d rings" % rings, r[key], "x", None, True)
        for rings, key in ((2, "scaling_2_rings"), (4, "scaling_4_rings"))
        if r.get(key) is not None
    ]


def _wan_rows(r):
    sweep, drill = r["rtt_sweep"], r["geo_drill"]
    return [
        _row("WAN local p50 deviation vs single-site, worst RTT",
             sweep["worst_deviation"], "frac", "<=%.2f" % wan.P50_GATE, sweep["ok"]),
        _row("geo bank conserved through site compromise",
             float(drill["conserved"]), "bool", "==1", drill["ok"]),
        _row("WAN forensics precision", drill["precision"], "frac", "==1.00",
             drill["precision"] == 1.0),
        _row("WAN forensics recall", drill["recall"], "frac", "==1.00",
             drill["recall"] == 1.0),
    ]


def _elastic_rows(r):
    drill = r["drill"]
    migrated = drill["migrations_completed"]
    return [
        _row("elastic live migrations, zero loss zero dup", float(migrated), "count",
             ">=%d" % elastic.MIN_MIGRATIONS,
             migrated >= elastic.MIN_MIGRATIONS and drill["settled"]["ok"]),
        _row("autoscaler ring splits", float(drill["splits"]), "count", ">=1",
             drill["splits"] >= 1),
        _row("bank conserved at every migration epoch",
             float(drill["all_epochs_conserved"]), "bool", "==1",
             drill["all_epochs_conserved"]),
        _row("elastic forensics precision", drill["precision"], "frac", "==1.00",
             drill["precision"] == 1.0),
        _row("elastic forensics recall", drill["recall"], "frac", "==1.00",
             drill["recall"] == 1.0),
    ]


def _ratio_row(metric, value_key, gate_key):
    return lambda r: [
        _row(metric, r[value_key], "x", r.get(gate_key), bool(r.get("ok")))
    ]


#: cluster's gate on the 2-ring aggregate throughput over 1 ring
MIN_SCALING = 1.7

SCENARIOS = {
    "cluster": Scenario(
        cluster.run_bench, "BENCH_pr5.json",
        committed=dict(ring_counts=(1, 2, 4), pairs=4, interval=300e-6,
                       duration=0.5, warmup=0.15, operations=8),
        smoke=dict(ring_counts=(1, 2), pairs=4, interval=300e-6,
                   duration=0.3, warmup=0.1, operations=6),
        gates=(
            ("2-ring scaling >= %.1f" % MIN_SCALING,
             lambda r: r["scaling_2_rings"] >= MIN_SCALING),
            ("Byzantine gateway drill exactly-once with correct replies",
             lambda r: r["byzantine_gateway"]["exactly_once"]
             and r["byzantine_gateway"]["replies_correct"]),
        ),
        headline=_cluster_rows,
    ),
    "wan": Scenario(
        wan.run_bench, "BENCH_wan.json",
        committed=dict(rtts=(0.010, 0.050, 0.100, 0.300), operations=10,
                       remote_operations=4, transfers=2),
        smoke=dict(rtts=(0.010, 0.300), operations=6, remote_operations=3,
                   transfers=1),
        gates=(("RTT sweep and geo-bank drill", lambda r: r["ok"]),),
        headline=_wan_rows, embed=True,
    ),
    "elastic": Scenario(
        elastic.run_bench, "BENCH_elastic.json",
        gates=(("elastic drill", lambda r: r["ok"]),),
        headline=_elastic_rows, embed=True,
    ),
    "perf": Scenario(
        perf.batch_report, "BENCH_pr7.json", smoke=dict(smoke=True),
        gates=(
            ("batch ratio >= %.1fx" % perf.MIN_RATIO, lambda r: r["ratio_ok"]),
            ("batch gate results deterministic", lambda r: r["rerun_deterministic"]),
        ),
        headline=_ratio_row("batch-signature simulated throughput ratio",
                            "throughput_ratio", "min_ratio"),
    ),
    "pr2": Scenario(
        None, "BENCH_pr2.json",
        headline=_ratio_row("hot-path wall-clock speedup", "speedup", "min_speedup"),
    ),
    "trend": Scenario(
        trend.run, "BENCH_trend.json", committed=dict(directory="."),
        gates=(("every headline gate holds", lambda r: r["all_gates_ok"]),),
    ),
    "figure7": Scenario(
        figure7.run, smoke=dict(quick=True),
        gates=(("Figure 7 shape matches the paper", lambda r: not r["shape_problems"]),),
    ),
    "latency": Scenario(latency.run),
}


def regenerate(name, smoke=False, out=None, directory="."):
    """Run scenario ``name`` and write its report; returns ``(report, status)``.

    ``out`` defaults to the scenario's artefact under ``directory``
    (where ``trend`` also reads); a scenario without an artefact writes
    only to an explicit ``out``.  Prints the headline rows and a
    ``FAIL`` line per failed gate; the status is 1 if any gate failed.
    """
    scenario = SCENARIOS[name]
    form = dict(scenario.smoke if smoke else scenario.committed)
    if "directory" in form:
        form["directory"] = directory
    result = scenario.runner(**form)
    rows = scenario.headline(result) if scenario.headline else []
    if scenario.embed:
        result["headline"] = rows
    for row in rows:
        print("  %-52s %8.4f %-5s %s" % (
            row["metric"], row["value"], row["unit"], "ok" if row["ok"] else "FAIL"))
    if out is None and scenario.artefact:
        out = os.path.join(directory, scenario.artefact)
    if out:
        with open(out, "w") as fh:
            fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
        print("wrote %s" % out)
    failed = [what for what, check in scenario.gates if not check(result)]
    for what in failed:
        print("FAIL: %s" % what, file=sys.stderr)
    return result, 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one bench scenario, write its artefact, exit 1 "
                    "if a gate fails.",
    )
    parser.add_argument(
        "name", metavar="NAME",
        choices=[name for name, s in SCENARIOS.items() if s.runner],
        help="scenario: %(choices)s",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="the small form CI runs twice (default: the committed form)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the report here (default: the artefact under --dir)",
    )
    parser.add_argument(
        "--dir", default=".",
        help="directory of the BENCH_*.json artefacts (default: .)",
    )
    args = parser.parse_args(argv)
    try:
        _, status = regenerate(args.name, args.smoke, args.out, args.dir)
    except trend.TrendInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return status
