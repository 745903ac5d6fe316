"""WAN federation bench: RTT independence and the geo-bank drills.

Two sections mirror the federation's two promises:

* **RTT sweep** — a two-site federation (``alpha`` with two rings,
  ``beta`` with one) runs a purely local workload isolated on alpha's
  ring 1 while a beta client hammers a group on alpha's backbone across
  the WAN.  The inter-site RTT sweeps 10 → 300 ms over an *asymmetric*
  latency split; the headline gate is that the local invocation p50
  stays within 5% of a standalone single-site cluster's — WAN distance
  must never tax traffic that does not cross it.

* **Geo-bank drill** — a three-site federation runs the geo-replicated
  :class:`~repro.workloads.bank.GeoBank` with one branch per site and
  cross-site transfers, then compromises a *whole site* (every one of
  its outbound site-gateway forwarders corrupts, each differently)
  while a rogue teller at the doomed site keeps issuing transfers
  against the surviving sites.  Because the compromised copies disagree
  with each other, receiving voters never assemble a majority: the
  rogue's operations degrade to omission, money is conserved, replicas
  agree, and honest traffic between surviving sites is untouched.  A
  directed single-replica corruption on a surviving link rides along so
  the forensic scorecard has a detectable fault to attribute
  (precision = recall = 1.0 is a gate).

Every number derives from simulated state only — no wall clocks — so
the artifact is byte-identical across repeated runs, which the
``determinism`` CI job checks.

Usage::

    python -m repro.bench wan            # writes BENCH_wan.json
    python -m repro.bench wan --smoke    # CI's run-twice form
"""

from dataclasses import replace
from statistics import median

from repro.bench.build import Scenario, build, with_count
from repro.core.config import SurvivabilityCase
from repro.obs.critpath import attribute_spans
from repro.obs.forensics import DEFAULT_CAPACITY, merge_timeline, score
from repro.workloads.bank import GeoBank
from repro.workloads.open_loop import (
    COUNTER_IDL,
    CounterServant,
    OpenLoopDriver,
    add_one,
)

#: local-p50 deviation tolerated against the single-site baseline
P50_GATE = 0.05

#: The standalone single-site cluster the sweep is gated against: the
#: same two-ring shape as site alpha, the same ring-1 workload.
BASELINE = Scenario(
    shape="cluster",
    config=(("num_rings", 2), ("procs_per_ring", 10)),
    service="counter",
    names=("local.counter", "local.driver"),
    server=1,
    client=1,
    workload=("add_one", "bench.baseline", 0.1, 10, 0.05),
    tail=1.0,
)


def _probe(site, stubs, operations, interval, label):
    """``add(1)`` at every client replica on ``site`` from t=0.1 on,
    every ``interval``; the latency of an operation is its first reply's."""
    driver = OpenLoopDriver(site, stubs, add_one, "bench." + label)
    return driver.run(0.1, operations, interval)


def _p50(driver):
    latencies = list(driver.first_latencies().values())
    return median(latencies) if latencies else 0.0


# ----------------------------------------------------------------------
# RTT sweep section
# ----------------------------------------------------------------------

def run_baseline_case(operations, seed, case):
    """:data:`BASELINE` with ``operations`` invocations."""
    built = build(replace(
        with_count(BASELINE, operations), case=case.name, seed=seed
    )).run()
    probe = built.driver
    exactly_once = all(s.calls == operations for s in built.server.servants.values())
    return {
        "local_p50": _p50(probe),
        "replies": len(probe.first_latencies()),
        "exactly_once": exactly_once,
    }


def run_rtt_case(rtt, operations, remote_operations, seed, case, critpath=False):
    """One sweep point: local ring-1 traffic at alpha plus beta-to-alpha
    cross-site traffic, with the given inter-site round-trip time split
    asymmetrically (55% outbound, 45% return)."""
    latency = {
        ("alpha", "beta"): 0.55 * rtt,
        ("beta", "alpha"): 0.45 * rtt,
    }
    built = build(Scenario(
        shape="wan", case=case.name, seed=seed,
        config=(("sites", (("alpha", 2), "beta")), ("latency", tuple(latency.items()))),
        forensics=DEFAULT_CAPACITY if critpath else None,
    ))
    wan, obs = built.system, built.obs

    local_server = wan.deploy(
        "local.counter", COUNTER_IDL, lambda pid: CounterServant(),
        site="alpha", ring=1,
    )
    local_client = wan.deploy_client("local.driver", site="alpha", ring=1)
    shared_server = wan.deploy(
        "shared.counter", COUNTER_IDL, lambda pid: CounterServant(),
        site="alpha", ring=0,
    )
    remote_client = wan.deploy_client("remote.driver", site="beta", ring=0)
    wan.start()

    local = _probe(
        wan.sites["alpha"],
        wan.client_stubs(local_client, COUNTER_IDL, local_server),
        operations, 0.05, "wan.local",
    )
    remote_interval = max(0.05, 2.0 * rtt)
    remote = _probe(
        wan.sites["beta"],
        wan.client_stubs(remote_client, COUNTER_IDL, shared_server),
        remote_operations, remote_interval, "wan.remote",
    )
    end = 0.1 + max(operations * 0.05, remote_operations * remote_interval)
    wan.run(until=end + 4.0 * rtt + 1.0)

    result = {
        "rtt": rtt,
        "latency_matrix": {
            "alpha->beta": latency[("alpha", "beta")],
            "beta->alpha": latency[("beta", "alpha")],
        },
        "local_p50": _p50(local),
        "remote_p50": _p50(remote),
        "local_replies": len(local.first_latencies()),
        "remote_replies": len(remote.first_latencies()),
        "local_exactly_once": all(
            s.calls == operations for s in local_server.servants.values()
        ),
        "remote_exactly_once": all(
            s.calls == remote_operations for s in shared_server.servants.values()
        ),
        "simulated_seconds": wan.scheduler.now,
    }
    if critpath:
        timeline = merge_timeline(obs.forensics)
        report = attribute_spans(
            obs.spans,
            timeline,
            shard_of_group=wan.shard_of_group(),
            site_of_shard=wan.site_of_shard(),
        )
        result["critpath"] = {
            "per_cause": report["per_cause"],
            "per_site": report["per_site"],
            "total_seconds": report["total_seconds"],
        }
        result["topology"] = wan.topology.to_dict()
        result["shard_map"] = {
            str(shard): site for shard, site in sorted(wan.site_of_shard().items())
        }
    return result


def run_rtt_sweep(rtts, operations, remote_operations, seed, case):
    baseline = run_baseline_case(operations, seed, case)
    points = []
    for index, rtt in enumerate(rtts):
        point = run_rtt_case(
            rtt, operations, remote_operations, seed, case,
            critpath=(index == len(rtts) - 1),
        )
        deviation = (
            abs(point["local_p50"] - baseline["local_p50"]) / baseline["local_p50"]
            if baseline["local_p50"]
            else 1.0
        )
        point["local_p50_deviation"] = deviation
        point["ok"] = (
            deviation <= P50_GATE
            and point["local_exactly_once"]
            and point["remote_exactly_once"]
        )
        points.append(point)
    return {
        "baseline": baseline,
        "points": points,
        "worst_deviation": max(p["local_p50_deviation"] for p in points),
        "ok": all(p["ok"] for p in points) and baseline["exactly_once"],
    }


# ----------------------------------------------------------------------
# geo-bank drill section
# ----------------------------------------------------------------------

def run_geo_drill(seed, case, transfers=2):
    """Conservation through a whole-site Byzantine compromise.

    Honest cross-site transfers run before and after the compromise of
    site ``gamma``; a rogue teller *at* gamma issues a transfer against
    the surviving sites pre-compromise (it completes — the site is still
    honest) and again post-compromise (every invocation must leave the
    site through corrupted forwarders, so nothing executes anywhere).
    A directed single-replica corruption on the surviving alpha-beta
    link gives the divergence detector one detectable fault.
    """
    built = build(Scenario(
        shape="wan", case=case.name, seed=seed,
        config=(("sites", ("alpha", "beta", "gamma")), ("latency", 0.010)),
        forensics=DEFAULT_CAPACITY,
    ))
    wan, obs, config = built.system, built.obs, built.system.config
    bank = GeoBank(
        wan,
        branches=["north", "south", "east"],
        branch_homes={"north": "alpha", "south": "beta", "east": "gamma"},
        teller_home="alpha",
    )
    rogue, rogue_stubs = bank.add_teller("bank.rogue", "gamma")
    degree = config.replication_degree

    # honest cross-site traffic before the compromise
    ops = []
    at = 0.2
    for k in range(transfers):
        bank.schedule_transfer(at, "north", 1, "south", 1, 10)
        ops.append(("transfer:north#1->south#1:10@%g" % at, degree))
        at += 0.3
    bank.schedule_transfer(at, "south", 2, "east", 2, 5)
    ops.append(("transfer:south#2->east#2:5@%g" % at, degree))
    at += 0.3
    # the rogue is still honest: its transfer completes fully pre-T_c
    bank.schedule_transfer(at, "east", 1, "north", 1, 7, stubs=rogue_stubs)
    ops.append(("transfer:east#1->north#1:7@%g" % at, degree))

    compromise_at = at + 0.5
    wan.compromise_site("gamma", at_time=compromise_at)

    # post-compromise: the rogue attacks the surviving sites -- every
    # invocation must cross gamma's corrupted outbound gateways
    rogue_at = compromise_at + 0.1
    bank.schedule_transfer(rogue_at, "north", 2, "south", 2, 50, stubs=rogue_stubs)
    rogue_label = "transfer:north#2->south#2:50@%g" % rogue_at
    # honest traffic between surviving sites carries on
    honest_at = rogue_at + 0.3
    bank.schedule_transfer(honest_at, "north", 2, "south", 2, 3)
    ops.append(("transfer:north#2->south#2:3@%g" % honest_at, degree))

    # a *detectable* fault: one replica of the surviving link corrupts
    # its alpha->beta direction; beta's voters outvote and convict it
    corrupt_at = honest_at + 0.3
    corrupt = wan.corrupt_gateway(
        "alpha", "beta", index=0, at_time=corrupt_at, direction="alpha"
    )
    drill_at = corrupt_at + 0.3
    bank.schedule_transfer(drill_at, "north", 1, "south", 1, 4)
    ops.append(("transfer:north#1->south#1:4@%g" % drill_at, degree))

    wan.start()
    wan.run(until=drill_at + 4.0)

    by_label = {}
    for label, _value in bank.replies:
        by_label[label] = by_label.get(label, 0) + 1
    honest_exact = all(
        by_label.get(label + ":w", 0) == degree
        and by_label.get(label + ":d", 0) == degree
        for label, degree in ops
    )
    rogue_blocked = (
        by_label.get(rogue_label + ":w", 0) == 0
        and by_label.get(rogue_label + ":d", 0) == 0
    )
    scorecard = score(obs.forensics)
    return {
        "case": case.name,
        "sites": list(config.site_names()),
        "branch_sites": {"north": "alpha", "south": "beta", "east": "gamma"},
        "compromised_site": "gamma",
        "compromise_at": compromise_at,
        "corrupt_replica": {"pid_alpha": corrupt.pid_a, "pid_beta": corrupt.pid_b},
        "conserved": bank.conserved(),
        "replicas_agree": bank.replicas_agree(),
        "honest_ops_exactly_once": honest_exact,
        "rogue_blocked_post_compromise": rogue_blocked,
        "failed_ops": list(bank.failed),
        "replies_by_label": {k: by_label[k] for k in sorted(by_label)},
        "branch_totals": {
            name: {str(pid): total for pid, total in by_pid.items()}
            for name, by_pid in bank.branch_totals().items()
        },
        "expected_total": bank.expected_total(),
        "precision": scorecard["precision"],
        "recall": scorecard["recall"],
        "false_positives": scorecard["false_positives"],
        "gateway_stats": wan.gateway_stats(),
        "simulated_seconds": wan.scheduler.now,
        "ok": (
            bank.conserved()
            and bank.replicas_agree()
            and honest_exact
            and rogue_blocked
            and not bank.failed
            and scorecard["precision"] == 1.0
            and scorecard["recall"] == 1.0
        ),
    }


def run_bench(
    rtts, operations, remote_operations, transfers,
    seed=7, case=SurvivabilityCase.FULL_SURVIVABILITY,
):
    """The RTT sweep over ``rtts`` and the geo-bank drill."""
    sweep = run_rtt_sweep(rtts, operations, remote_operations, seed, case)
    drill = run_geo_drill(seed + 4, case, transfers=transfers)
    return {
        "bench": "wan-federation",
        "config": {
            "case": case.name,
            "seed": seed,
            "rtts": list(rtts),
            "local_operations": operations,
            "remote_operations": remote_operations,
            "transfers": transfers,
        },
        "rtt_sweep": sweep,
        "geo_drill": drill,
        "ok": sweep["ok"] and drill["ok"],
    }
