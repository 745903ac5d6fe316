"""Elastic ramp: a bank that keeps its books while the cluster reshapes.

A four-branch audited bank starts on a **single ring**.  Three
staggered open-loop transfer streams ramp the offered load; the
autoscaler (fed from live ``rm.delivered_to_orb`` telemetry) notices
the hot ring and **splits** — growing a second ring at runtime and
live-migrating the rendezvous-chosen branches onto it — then a
scripted migration moves one more branch mid-traffic, and once the
ramp drains, the autoscaler **merges** everything back onto ring 0.

While one migration's hold window is open, a gateway replica on the
inter-ring link is corrupted (a directed Byzantine fault).  The run
then asserts the elasticity contract end to end:

* the bank-conservation identity held at *every* migration epoch —
  checked the instant each cutover landed, with money legitimately in
  flight;
* the run settled exactly-once: every scheduled transfer produced one
  voted withdraw and one voted deposit per teller replica, no amount
  was lost or duplicated anywhere in a migration window, and all
  replicas of every branch agree byte for byte;
* the forensic scorecard attributed the fault injected mid-migration
  with precision = recall = 1.0.

Run:  python examples/elastic_ramp.py
"""

from repro.elastic import ElasticCluster, ElasticConfig
from repro.obs import Observability, SeriesSampler
from repro.obs.forensics import ForensicsHub, score
from repro.workloads.ramp import RampBank


def main():
    obs = Observability(forensics=ForensicsHub())
    config = ElasticConfig(
        initial_rings=1,
        max_rings=2,
        procs_per_ring=6,
        gateway_degree=3,
        seed=7,
    )
    cluster = ElasticCluster(config=config, obs=obs)
    ramp = RampBank(cluster, streams=3, period=0.3)
    sampler = SeriesSampler(
        obs.registry, period=0.1, families={"rm.delivered_to_orb"}
    )
    sampler.start(cluster.scheduler)
    cluster.enable_autoscaler(sampler)

    # audit the books the instant every migration cutover lands
    audits = []
    cluster.coordinator.listeners.append(
        lambda record: audits.append((cluster.scheduler.now, record, ramp.audit()))
    )
    ramp.schedule(until=3.0)

    # one scripted migration mid-traffic, with a gateway replica going
    # Byzantine inside its hold window (ring-0 -> ring-1 direction)
    cluster.scheduler.at(
        2.2, lambda: cluster.migrate("bank.branch1", 1), label="demo.migrate"
    )
    cluster.scheduler.at(
        2.23,
        lambda: cluster.corrupt_gateway(0, 1, index=0, direction=0),
        label="demo.corrupt",
    )

    cluster.start()
    cluster.run(until=6.0)

    print("autoscaler decisions:")
    for at, action, detail in cluster.autoscaler.decisions:
        print("  t=%-5g %-6s %s" % (at, action, detail))
    print("migrations:")
    for m in cluster.coordinator.completed:
        print(
            "  epoch %d: %-14s ring %d -> %d  hold %.3f s  held %d"
            % (
                m["epoch"], m["group"], m["src_ring"], m["dst_ring"],
                m["hold_seconds"], m["held"],
            )
        )
    print("per-epoch conservation:")
    for at, record, audit in audits:
        print(
            "  t=%.3f epoch %d: conserved=%s grand=%d in_flight=%d"
            % (
                at, record["epoch"], audit["conserved"],
                audit["grand_total"], audit["in_flight"],
            )
        )
    verdict = ramp.settled()
    card = score(obs.forensics)
    print(
        "settled: ok=%s scheduled=%d failed=%d replicas_agree=%s"
        % (
            verdict["ok"], verdict["scheduled"], verdict["failed"],
            verdict["replicas_agree"],
        )
    )
    print("forensics: precision=%.2f recall=%.2f" % (card["precision"], card["recall"]))

    assert any(a == "split" for _, a, _ in cluster.autoscaler.decisions)
    assert len(cluster.coordinator.completed) >= 3
    assert audits and all(audit["conserved"] for _, _, audit in audits)
    assert verdict["ok"], verdict
    assert card["precision"] == 1.0 and card["recall"] == 1.0
    print("\nelastic ramp drill OK: books balanced through every reshape")


if __name__ == "__main__":
    main()
