"""Elasticity bench: live migration, churn, and autoscaling under load.

One drill exercises every elastic mechanism at once on a cluster that
starts as a **single ring** and changes shape mid-run:

* an open-loop :class:`~repro.workloads.ramp.RampBank` ramps staggered
  transfer streams over four audited branches, so offered load steps up
  while the cluster reconfigures underneath it;
* the :class:`~repro.elastic.autoscaler.Autoscaler`, fed from live
  ``rm.delivered_to_orb`` telemetry, **splits** the hot ring — growing
  a second ring at runtime and live-migrating the rendezvous-chosen
  half of the branches onto it — and later **merges** the cold ring
  back;
* a **scripted** third migration moves another branch mid-traffic, and
  a gateway replica is corrupted *inside that migration's hold window*
  so the forensic scorecard must attribute a fault injected
  mid-migration (precision = recall = 1.0 is a gate);
* **churn**: a brand-new processor joins the live ring through the
  membership protocol (timeouts re-derived for the larger population —
  recorded in the report) and is later retired by planned silence,
  which the same protocol detects and excludes as a forensic true
  positive.

The gates are the elasticity subsystem's contract: at least three live
migrations and one ring split with **zero dropped and zero duplicated
invocations** (the ramp's audit-ledger identities catch a single loss
or duplicate anywhere in a migration window), the bank-conservation
identity holding at **every migration epoch** — mid-flight, not just at
quiescence — and the critical-path attribution showing nonzero time
under the ``migration`` cause (held invocations price their hold).

Every number derives from simulated state only — no wall clocks — so
the artifact is byte-identical across repeated runs, which the
``determinism`` CI job checks.

Usage::

    python -m repro.bench elastic    # writes BENCH_elastic.json
"""

from repro.bench.build import Scenario, build
from repro.core.config import SurvivabilityCase
from repro.obs import SeriesSampler
from repro.obs.critpath import attribute_spans
from repro.obs.forensics import DEFAULT_CAPACITY, merge_timeline, score
from repro.workloads.ramp import RampBank

#: the drill needs this many completed live migrations to pass
MIN_MIGRATIONS = 3


def run_elastic_drill(seed, case):
    """The combined churn + migration + autoscaling drill."""
    built = build(Scenario(
        shape="elastic", case=case.name, seed=seed,
        config=(("initial_rings", 1), ("max_rings", 2), ("procs_per_ring", 6),
                ("gateway_degree", 3)),
        forensics=DEFAULT_CAPACITY,
    ))
    cluster, obs, config = built.system, built.obs, built.system.config
    ramp = RampBank(cluster, streams=3, period=0.3)
    sampler = SeriesSampler(
        obs.registry, period=0.1, families={"rm.delivered_to_orb"}
    )
    sampler.start(cluster.scheduler)
    cluster.enable_autoscaler(sampler)

    # the conservation identity is checked at *every* migration epoch,
    # the instant the cutover lands — mid-flight money must balance
    epoch_audits = []

    def on_epoch(record):
        if not record["skipped"]:
            epoch_audits.append(
                dict(
                    ramp.audit(),
                    epoch=record["epoch"],
                    group=record["group"],
                    at=cluster.scheduler.now,
                )
            )

    cluster.coordinator.listeners.append(on_epoch)
    ramp.schedule(until=3.0)

    # -- churn: a processor joins the live ring mid-traffic ------------
    churn = {}
    ep0 = cluster.rings[0].endpoints[config.ring_pids(0)[0]]

    def grow():
        churn["timeout_before"] = ep0.config.token_rotation_timeout
        churn["members_before"] = len(ep0.members)
        churn["pid"] = cluster.grow_processor(0)

    def after_join():
        churn["timeout_after"] = ep0.config.token_rotation_timeout
        churn["members_after"] = len(ep0.members)
        churn["joined"] = churn["pid"] in ep0.members

    cluster.scheduler.at(1.7, grow, label="bench.churn_grow")
    cluster.scheduler.at(2.9, after_join, label="bench.churn_check")

    # -- a scripted migration with a fault injected inside its hold ----
    scripted = []
    cluster.scheduler.at(
        2.2,
        lambda: cluster.migrate("bank.branch1", 1, done=scripted.append),
        label="bench.migrate",
    )
    corruption = {}

    def corrupt():
        # Directed: only the ring-0 -> ring-1 direction corrupts, so the
        # recorded ground truth is exactly the pid the destination
        # ring's divergence detector can convict.
        handle = cluster.corrupt_gateway(0, 1, index=0, direction=0)
        corruption["at"] = cluster.scheduler.now
        corruption["pid_ring0"] = handle.pid_a
        corruption["pid_ring1"] = handle.pid_b

    cluster.scheduler.at(2.23, corrupt, label="bench.corrupt")

    # -- planned retirement: membership excludes, forensics attributes -
    cluster.scheduler.at(
        4.5, lambda: cluster.retire_processor(churn["pid"]),
        label="bench.churn_retire",
    )

    cluster.start()
    cluster.run(until=7.0)

    # -- verdicts ------------------------------------------------------
    verdict = ramp.settled()
    completed = cluster.coordinator.completed
    decisions = [
        {"at": at, "action": action, "detail": detail}
        for at, action, detail in cluster.autoscaler.decisions
    ]
    splits = sum(1 for d in decisions if d["action"] == "split")
    merges = sum(1 for d in decisions if d["action"] == "merge")
    scorecard = score(obs.forensics)
    churn["excluded"] = churn["pid"] not in ep0.members
    churn["rederived"] = churn["timeout_after"] > churn["timeout_before"]

    scripted_real = [r for r in scripted if not r["skipped"]]
    mid_migration = bool(scripted_real) and (
        scripted_real[0]["completed"] - scripted_real[0]["hold_seconds"]
        <= corruption.get("at", -1.0)
        <= scripted_real[0]["completed"]
    )

    report = attribute_spans(obs.spans, merge_timeline(obs.forensics))
    migration_seconds = sum(
        row["seconds"] for row in report["per_cause"] if row["cause"] == "migration"
    )

    all_conserved = bool(epoch_audits) and all(
        a["conserved"] for a in epoch_audits
    )
    ok = (
        verdict["ok"]
        and len(completed) >= MIN_MIGRATIONS
        and splits >= 1
        and merges >= 1
        and all_conserved
        and bool(scripted_real)
        and mid_migration
        and churn["joined"]
        and churn["excluded"]
        and churn["rederived"]
        and scorecard["precision"] == 1.0
        and scorecard["recall"] == 1.0
        and migration_seconds > 0.0
    )
    return {
        "case": case.name,
        "seed": seed,
        "migrations": completed,
        "migrations_completed": len(completed),
        "held_invocations": sum(m["held"] for m in completed),
        "decisions": decisions,
        "splits": splits,
        "merges": merges,
        "active_rings": sorted(cluster.active_rings),
        "epoch_audits": epoch_audits,
        "all_epochs_conserved": all_conserved,
        "settled": verdict,
        "churn": churn,
        "corruption": corruption,
        "scripted_migrations": len(scripted_real),
        "corruption_mid_migration": mid_migration,
        "critpath_per_cause": report["per_cause"],
        "migration_critpath_seconds": migration_seconds,
        "precision": scorecard["precision"],
        "recall": scorecard["recall"],
        "false_positives": scorecard["false_positives"],
        "gateway_stats": cluster.gateway_stats(),
        "simulated_seconds": cluster.scheduler.now,
        "ok": ok,
    }


def run_bench(seed=7, case=SurvivabilityCase.MAJORITY_VOTING):
    """The drill, in the artefact's shape."""
    drill = run_elastic_drill(seed, case)
    # The committed artefact records ``extra_migrations``; there are none.
    return {
        "bench": "elasticity",
        "config": {"case": case.name, "seed": seed, "extra_migrations": 0},
        "drill": drill,
        "ok": drill["ok"],
    }
