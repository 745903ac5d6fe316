"""The observability drills, as :class:`~repro.bench.build.Scenario`
values, and the runners of their rows in ``python -m repro.bench``:

* ``forensics`` / ``forensics-batch`` — the seeded intrusion drill
  (a value-faulting replica, a mutant-token equivocator and a crash),
  its merged timeline and detector scorecard, written as JSON;
* ``report`` / ``slo`` — an instrumented echo ring's dashboard, written
  as JSONL; the SLO drill crashes a server replica mid-workload and
  adds the time series, burn-rate alerts and critical path;
* ``trace`` / ``trace-cluster`` — per-invocation causal trace DAGs,
  verified against the critical-path decomposition, written as JSONL;
  the cluster drill is the Byzantine-gateway case of ``cluster``.

Every report derives from simulated state only, so each file is
byte-identical across runs.
"""

from dataclasses import replace

from repro.bench.build import Scenario, build
from repro.obs import SLOEngine
from repro.obs.critpath import attribute_spans
from repro.obs.export import export_jsonl, render_dashboard, summarize
from repro.obs.forensics import (
    DEFAULT_CAPACITY,
    build_report,
    merge_timeline,
    render_report,
    score,
)
from repro.obs.trace import (
    export_traces,
    fork_summary,
    render_digest,
    render_trace_tree,
    render_waterfall,
    verify_against_critpath,
)

#: Three Table 1 classes at once: P2's ledger replica corrupts its
#: replies from the third call on, P4 equivocates from t=1.4 and P3
#: fail-stops at t=2.6.
INTRUSION = Scenario(
    seed=23,
    service="ledger",
    faults=(("value_fault", 2, 2), ("mutant_token", 4, 1.4), ("crash", 3, 2.6)),
    forensics=DEFAULT_CAPACITY,
    workload=("add_one", "drill.workload", 0.1, 12, 0.18),
    tail=3.74,
)

#: A lossy window mid-run exercises the drop counters and the
#: retransmission machinery; the quiet tail lets it recover.
REPORT = Scenario(
    seed=11,
    service="echo",
    faults=(("loss", 0.04, 0.3, 0.6),),
    series=0.1,
    workload=("echo", "report.workload", 0.1, 8, 0.05),
    tail=2.0,
)

#: Server replica P2 crashes half way through the workload: in-flight
#: invocations stall on the broken ring until the membership heals,
#: which is the window the burn-rate alerts must catch before the
#: detector attributes the crash.
SLO = replace(
    REPORT,
    faults=REPORT.faults + (("crash", 2, 2.1),),
    forensics=DEFAULT_CAPACITY,
    workload=("echo", "report.workload", 0.1, 40, 0.1),
    tail=3.5,
)

#: The Figure 7 echo ring, traced.
TRACE = Scenario(
    seed=11,
    service="echo",
    faults=(("loss", 0.05, 0.3, 0.6),),
    forensics=DEFAULT_CAPACITY,
    trace=True,
    workload=("echo", "trace.workload", 0.1, 12, 0.05),
    tail=2.0,
)

#: Two rings, a counter on ring 1 invoked from ring 0, one replica of
#: the gateway between them corrupting everything it forwards.
BYZANTINE_GATEWAY = Scenario(
    shape="cluster",
    seed=11,
    config=(("num_rings", 2),),
    service="counter",
    server=1,
    client=0,
    faults=(("corrupt_gateway", 0, 1, 0),),
    forensics=DEFAULT_CAPACITY,
    workload=("add_one", "bench.byzantine", 0.1, 6, 0.25),
    tail=1.5,
)


def run_intrusion_drill(capacity=DEFAULT_CAPACITY, batch=False):
    """The intrusion drill; returns ``(built, scenario_info)``.

    With ``batch=True`` it runs on the batch-signature pipeline
    (unsigned tokens, span certificates): the mutant is then convicted
    by the contradiction between its validly signed token and its own
    verified certificate, and attribution must stay exact.
    """
    scenario = replace(INTRUSION, forensics=capacity, config=(("batch_signatures", batch),))
    built = build(scenario).run()
    return built, {
        "scenario": "intrusion-drill",
        "case": scenario.case,
        "batch_signatures": batch,
        "seed": scenario.seed,
        "processors": scenario.processors,
        "operations": scenario.workload[3],
        "replies_received": len(built.driver.replies),
        "surviving_members": list(built.system.surviving_members()),
        "simulated_seconds": built.system.scheduler.now,
    }


def forensics(capacity=DEFAULT_CAPACITY, batch=False):
    """Print the intrusion drill's timeline and scorecard; returns the
    JSON report."""
    built, info = run_intrusion_drill(capacity, batch)
    report = build_report(built.obs.forensics, scenario=info)
    print(render_report(report, merge_timeline(built.obs.forensics)))
    return report


def run_instrumented(slo=False):
    """The report (or SLO) drill, run; returns the keywords of
    :func:`repro.obs.export.export_jsonl` — ``obs``, ``run_info``,
    ``crypto_costs``, and with ``slo`` the ``slo`` evaluation and the
    ``critpath`` attribution."""
    scenario = SLO if slo else REPORT
    built = build(scenario).run()
    obs, costs = built.obs, built.system.config.crypto_costs
    run_info = {
        "case": scenario.case,
        "seed": scenario.seed,
        "processors": scenario.processors,
        "operations": scenario.workload[3],
        "replies_received": len(built.driver.replies),
        "quick": not slo,
        "simulated_seconds": built.system.scheduler.now,
    }
    exported = dict(obs=obs, run_info=run_info, crypto_costs=costs)
    if slo:
        run_info["slo_drill"] = True
        run_info["crash_at"] = next(f[2] for f in scenario.faults if f[0] == "crash")
        timeline = merge_timeline(obs.forensics)
        exported["critpath"] = attribute_spans(obs.spans, timeline, cost_model=costs)
        exported["slo"] = SLOEngine().evaluate(
            obs.registry.series_sampler, scorecard=score(obs.forensics, timeline))
    return exported


def report(slo=False):
    """Print the drill's dashboard; returns :func:`run_instrumented`'s."""
    exported = run_instrumented(slo)
    run_info = exported.pop("run_info")
    print(render_dashboard(summarize(**exported), run_info=run_info))
    return dict(exported, run_info=run_info)


def write_report(path, exported):
    export_jsonl(path, **exported)


def run_trace(scenario):
    """A traced drill, run; returns ``(collector, obs, timeline,
    cost_model, shard_of_group, run_info)`` — ``shard_of_group`` is
    ``None`` on one ring."""
    built = build(scenario).run()
    system, obs = built.system, built.obs
    if scenario.shape == "ring":
        cost_model, shard_of_group = system.config.crypto_costs, None
    else:
        cost_model = system.rings[0].config.crypto_costs
        shard_of_group = {group: system.directory.home_ring(group)
                          for group in system.directory.groups()}
    run_info = {
        "workload": "figure7" if scenario.shape == "ring" else "cluster",
        "seed": scenario.seed,
        "operations": scenario.workload[3],
        "replies": len(built.driver.replies),
        "simulated_seconds": system.scheduler.now,
    }
    return obs.trace, obs, merge_timeline(obs.forensics), cost_model, shard_of_group, run_info


def trace(cluster=False):
    """Print the slowest trace's tree and waterfall and the digest;
    returns the records, their cross-check against the critical path
    and the widest gateway fork."""
    scenario = replace(BYZANTINE_GATEWAY, trace=True) if cluster else TRACE
    collector, obs, timeline, cost_model, shard_of_group, run_info = run_trace(scenario)
    records = collector.assemble(timeline, cost_model=cost_model, shard_of_group=shard_of_group)
    mismatches = verify_against_critpath(
        collector, obs.spans, timeline, cost_model=cost_model, shard_of_group=shard_of_group)
    for mismatch in mismatches[:5]:
        print("diverges from the critpath: %s: %s" % (mismatch["key"], mismatch["reason"]))
    if not mismatches:
        print("verified: %d trace(s) agree with the critpath "
              "decomposition exactly" % len(records))
    fork = max((fork_summary(record) for record in records),
               key=lambda shape: (shape["fork_width"], shape["merged"]),
               default={"fork_width": 0, "merged": False, "corrupt_branches": 0})
    if cluster:
        print("gateway fork: %d branches (%d corrupt), voted merge %s" % (
            fork["fork_width"], fork["corrupt_branches"],
            "present" if fork["merged"] else "missing"))
    if records:
        closed = [r for r in records if r["closed"]]
        shown = max(closed or records, key=lambda r: (r["end_to_end"], r["trace_id"]))
        print(render_trace_tree(shown) + "\n\n" + render_waterfall(shown) + "\n")
    summary = collector.summary(records)
    print(render_digest(summary))
    return {"records": records, "summary": summary, "run_info": run_info,
            "mismatches": mismatches, "fork": fork}


def write_traces(path, result):
    export_traces(path, result["records"], result["summary"], result["run_info"])
