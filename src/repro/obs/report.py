"""``python -m repro.obs.report`` — an instrumented demonstration run.

Drives one fully-survivable deployment (case 4: active replication,
majority voting, signed tokens) through a seeded workload with a lossy
network window — and, unless ``--quick``, a processor crash — with the
observability layer attached, then writes the JSONL artefact and prints
the console dashboard.  The output is deterministic for a fixed seed:
running twice with the same arguments produces byte-identical JSONL.

Usage::

    PYTHONPATH=src python -m repro.obs.report [--quick] [--slo]
                                              [--out report.jsonl]
                                              [--input report.jsonl]
                                              [--json]

``--slo`` switches to the telemetry drill: a server replica crashes in
the middle of the workload, the time-series sampler records every
metric curve, the SLO engine evaluates burn-rate alerts over them, the
critical-path attributor decomposes stage latency into protocol
causes, and the dashboard gains the telemetry/critical-path/SLO
sections (including the alert-vs-detector scorecard).  ``--input``
renders the dashboard from an existing JSONL artefact instead of
running a new simulation; ``--json`` prints the summary as
machine-readable JSON (parity with ``python -m repro.obs.forensics``).
"""

import argparse
import json
import sys

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.obs import Observability, SLOEngine
from repro.obs.critpath import attribute_spans
from repro.obs.export import JsonlInputError, export_jsonl, read_jsonl, render_dashboard
from repro.obs.forensics import ForensicsHub, merge_timeline, score
from repro.sim.faults import FaultPlan, LinkFaults
from repro.workloads.open_loop import ECHO_IDL, EchoServant, OpenLoopDriver, echo


def load_summary(path):
    """Load ``(summary, run_info)`` back out of a JSONL artefact.

    Raises :class:`~repro.obs.export.JsonlInputError` when the file
    cannot be read (:func:`~repro.obs.export.read_jsonl`) or carries no
    ``summary`` record or nothing for it to summarise.
    """
    summary = None
    run_info = None
    payload_records = 0
    for record in read_jsonl(path):
        kind = record.pop("record", None)
        if kind == "summary":
            summary = record
        elif kind == "run":
            run_info = record
        elif kind in ("series", "span"):
            payload_records += 1
    if summary is None:
        raise JsonlInputError(
            "JSONL input %s has no summary record (not a repro.obs artefact?)"
            % path
        )
    if payload_records == 0:
        # A summary over nothing is a broken export, not a quiet run:
        # every instrumented run records at least its invocation spans.
        raise JsonlInputError(
            "JSONL input %s has no series or span records — the export is "
            "empty; re-run the report" % path
        )
    return summary, run_info


def run_instrumented(seed=11, quick=False, slo=False):
    """One observed case-4 run; returns ``(immune, obs, run_info)``.

    With ``slo=True`` the scenario changes shape: a forensics hub is
    attached, the workload stretches out, and a *server* replica
    crashes in the middle of it — so invocations are in flight while
    the ring stalls, which is exactly the window the burn-rate alerts
    must catch before the fault detector attributes the crash.
    """
    operations = 8 if quick else (40 if slo else 24)
    spacing = 0.1 if slo else 0.05
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed)

    # A lossy window mid-run exercises drop counters and the
    # retransmission machinery; the quiet tails let it recover.
    plan = FaultPlan(
        default=LinkFaults(loss_prob=0.04),
        active_from=0.3,
        active_until=0.6,
    )
    run_until = 0.1 + operations * spacing + 2.0
    crash_at = None
    if slo:
        # Crash server replica P2 with the workload still flowing:
        # in-flight invocations stall on the broken token ring until
        # the membership heals, burning the latency/availability SLOs.
        crash_at = 0.1 + (operations // 2) * spacing
        plan.schedule_crash(2, crash_at)
        run_until += 1.5
    elif not quick:
        # A crash past the workload exercises suspicion, membership
        # reconfiguration, and the reconfig-duration histogram.
        plan.schedule_crash(5, 0.1 + operations * spacing + 0.5)
        run_until += 1.0

    obs = Observability(forensics=ForensicsHub() if slo else None)
    immune = ImmuneSystem(
        num_processors=6,
        config=config,
        fault_plan=plan,
        trace_kinds=frozenset(),
        obs=obs,
    )
    server = immune.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1, 2])
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, ECHO_IDL, server)
    driver = OpenLoopDriver(immune, stubs, echo, "report.workload")
    driver.run(0.1, operations, spacing)

    # The ring-buffered per-metric time series the SLO engine and the
    # watch CLI replay, from the same registry the totals come from.
    obs.registry.sample_series(immune.scheduler, period=0.1)
    immune.run(until=run_until)
    obs.registry.stop_sampling()

    run_info = {
        "case": config.case.name,
        "seed": seed,
        "processors": 6,
        "operations": operations,
        "replies_received": len(driver.replies),
        "quick": quick,
        "simulated_seconds": immune.scheduler.now,
    }
    if slo:
        run_info["slo_drill"] = True
        run_info["crash_at"] = crash_at
    return immune, obs, run_info


def evaluate_slo_run(immune, obs, specs=None):
    """The post-run telemetry pipeline for an ``--slo`` drill.

    Merges the forensic timeline, scores the detector, attributes the
    critical path, and evaluates the SLO engine over the sampled
    series.  Returns ``(slo_result, critpath_report, scorecard)``.
    """
    timeline = merge_timeline(obs.forensics)
    scorecard = score(obs.forensics, timeline)
    critpath = attribute_spans(
        obs.spans, timeline, cost_model=immune.config.crypto_costs
    )
    engine = SLOEngine(specs)
    slo_result = engine.evaluate(obs.registry.series_sampler, scorecard=scorecard)
    return slo_result, critpath, scorecard


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Run an instrumented case-4 deployment and report it.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workload, no crash (CI smoke test)",
    )
    parser.add_argument(
        "--slo", action="store_true",
        help="telemetry drill: mid-workload server crash, time-series "
             "sampling, burn-rate alerting, critical-path attribution",
    )
    parser.add_argument(
        "--out", default="obs_report.jsonl",
        help="JSONL artefact path (default: %(default)s)",
    )
    parser.add_argument(
        "--input", default=None, metavar="PATH",
        help="render an existing JSONL artefact instead of running a simulation",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary JSON instead of the dashboard",
    )
    args = parser.parse_args(argv)

    if args.input is not None:
        try:
            summary, run_info = load_summary(args.input)
        except JsonlInputError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    else:
        immune, obs, run_info = run_instrumented(quick=args.quick, slo=args.slo)
        slo_result = critpath = None
        if args.slo:
            slo_result, critpath, _scorecard = evaluate_slo_run(immune, obs)
        summary = export_jsonl(
            args.out, obs, run_info=run_info,
            crypto_costs=immune.config.crypto_costs,
            slo=slo_result, critpath=critpath,
        )

    if args.json:
        print(json.dumps(
            {"run": run_info or {}, "summary": summary}, sort_keys=True, indent=2
        ))
    else:
        print(render_dashboard(summary, run_info=run_info))
        if args.input is None:
            print("JSONL artefact written to %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
