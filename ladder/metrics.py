"""The metric definitions, and how a pass's rungs become metric values.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
carries (``test_ladder.py`` checks they agree).  A layer metric of a
layer the workload does not use reads 0.
"""

from ladder.trace import LAYERS
from ladder.workloads import WAN_LATENCY

#: (name, unit, better, bound): what a user of the system sees.
#: ``sim_*`` are on the simulated clock and exact for a seed; the rest
#: are host CPU time and memory of the simulator.  ``cal`` is the CPU
#: time of one ``workloads.calibrate()``, timed between slices of ``run()``.
END_TO_END = (
    ("sim_throughput_inv_s", "inv/s", "higher", 0.02),
    ("sim_max_rate_inv_s", "inv/s", "higher", 0.10),
    ("sim_latency_p50_ms", "ms", "lower", 0.02),
    ("sim_latency_tail_ms", "ms", "lower", 0.02),
    ("sim_service_gap_ms", "ms", "lower", 0.02),
    ("host_cal_per_inv", "cal", "lower", 0.15),
    ("host_peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better): single layers, from the traced pass.
PER_LAYER = (
    ("sim.events_per_inv", "count", "lower"),
    ("sim.host_events_per_s", "1/s", "higher"),
    ("sim.net_frames_per_inv", "count", "lower"),
    ("sim.net_bytes_per_inv", "B", "lower"),
    ("sim.host_share", "frac", "lower"),
    ("crypto.digests_per_inv", "count", "lower"),
    ("crypto.signs_per_inv", "count", "lower"),
    ("crypto.verifies_per_inv", "count", "lower"),
    ("crypto.memo_hit_frac", "frac", "higher"),
    ("crypto.sim_cpu_share", "frac", "lower"),
    ("crypto.host_share", "frac", "lower"),
    ("crypto.md4_us_64b", "us", "lower"),
    ("crypto.md4_us_4k", "us", "lower"),
    ("crypto.rsa_sign_us", "us", "lower"),
    ("crypto.rsa_verify_us", "us", "lower"),
    ("orb.sim_cpu_share", "frac", "lower"),
    ("orb.memo_hit_frac", "frac", "higher"),
    ("orb.host_share", "frac", "lower"),
    ("orb.cdr_encode_us_4k", "us", "lower"),
    ("orb.cdr_decode_us_4k", "us", "lower"),
    ("orb.giop_request_codec_us_64b", "us", "lower"),
    ("multicast.token_visits_per_inv", "count", "lower"),
    ("multicast.msgs_per_token_visit", "count", "higher"),
    ("multicast.retransmits_per_inv", "count", "lower"),
    ("multicast.lossy_retransmits_per_inv", "count", "lower"),
    ("multicast.lossy_failed_frac", "frac", "lower"),
    ("multicast.lossy_p50_ms", "ms", "lower"),
    ("multicast.lossy_service_gap_ms", "ms", "lower"),
    ("multicast.fragments_per_inv", "count", "lower"),
    ("multicast.certs_per_inv", "count", "lower"),
    ("multicast.reconfigurations", "count", "lower"),
    ("multicast.detect_ms", "ms", "lower"),
    ("multicast.sim_cpu_share", "frac", "lower"),
    ("multicast.host_share", "frac", "lower"),
    ("multicast.frame_decode_us", "us", "lower"),
    ("multicast.token_codec_us", "us", "lower"),
    ("core.vote_copies_per_decision", "count", "lower"),
    ("core.duplicates_suppressed_per_inv", "count", "lower"),
    ("core.value_fault_votes", "count", "lower"),
    ("core.sim_cpu_share", "frac", "lower"),
    ("core.host_share", "frac", "lower"),
    ("core.voter_add_copy_us", "us", "lower"),
    ("cluster.gateway_forwards_per_remote_inv", "count", "lower"),
    ("cluster.gateway_suppressed_per_remote_inv", "count", "lower"),
    ("cluster.local_p50_ms", "ms", "lower"),
    ("cluster.host_share", "frac", "lower"),
    ("wan.gateway_forwards_per_remote_inv", "count", "lower"),
    ("wan.remote_overhead_ms", "ms", "lower"),
    ("wan.host_share", "frac", "lower"),
    ("obs.host_share", "frac", "lower"),
    ("obs.host_overhead_frac", "frac", "lower"),
    ("ladder.other_host_share", "frac", "lower"),
    ("ladder.trace_overhead_frac", "frac", "lower"),
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def end_to_end(workload, rungs, setup_s, peak_rss_mb):
    """The end-to-end metric values of one pass over the whole ladder."""
    by_rate = {rung["rate"]: rung for rung in rungs}
    reference = by_rate[workload.reference]
    return {
        "sim_throughput_inv_s": by_rate[workload.rates[-1]]["throughput_inv_s"],
        "sim_max_rate_inv_s": float(
            max((rung["rate"] for rung in rungs if rung["sustained"]), default=0)
        ),
        "sim_latency_p50_ms": reference["p50_ms"],
        "sim_latency_tail_ms": reference["tail_ms"],
        "sim_service_gap_ms": reference["service_gap_ms"],
        "host_cal_per_inv": sum(r["host_cal"] for r in rungs)
        / sum(r["completed"] for r in rungs),
        "host_peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def _hit_frac(caches, names):
    hits = sum(caches[name][0] for name in names)
    total = hits + sum(caches[name][1] for name in names)
    return hits / total if total else 0.0


def per_layer(reference, counts, lossy, shares, micro_us, obs_overhead, trace_overhead):
    """The per-layer metric values: ``counts`` are the reference rung's
    ``Rung.layer_counts()``, ``lossy`` is the reference rung run again
    under message loss (None where the workload has no lossy build),
    host shares come from the profiled rungs, ``*_us`` from the micro
    timings."""
    inv = reference["completed"]
    remote = reference["completed_by_stream"].get("remote", 0)
    cpu = counts["cpu"]
    cpu_total = sum(cpu.values())

    def cpu_share(prefix):
        return sum(v for k, v in cpu.items() if k.startswith(prefix)) / cpu_total

    def per_remote(key):
        return counts.get(key, 0) / remote if remote else 0.0

    caches = counts["caches"]
    values = {
        "sim.events_per_inv": counts["sim.events"] / inv,
        "sim.host_events_per_s": counts["sim.events"] / reference["host_s"],
        "sim.net_frames_per_inv": counts["net.sent"] / inv,
        "sim.net_bytes_per_inv": counts["net.bytes_sent"] / inv,
        "crypto.digests_per_inv": sum(caches["crypto.digest"]) / inv,
        "crypto.signs_per_inv": counts["crypto.signs"] / inv,
        "crypto.verifies_per_inv": counts["crypto.verifies"] / inv,
        "crypto.memo_hit_frac": _hit_frac(caches, ("crypto.digest", "crypto.verify")),
        "crypto.sim_cpu_share": cpu_share("crypto."),
        "orb.sim_cpu_share": cpu_share("orb."),
        "orb.memo_hit_frac": _hit_frac(
            caches, ("giop.encode", "giop.decode", "giop.request_template", "idl.marshal")
        ),
        "multicast.token_visits_per_inv": counts["delivery.token_visits"] / inv,
        "multicast.msgs_per_token_visit": counts["delivery.sent"]
        / counts["delivery.token_visits"],
        "multicast.retransmits_per_inv": counts["delivery.retransmits"] / inv,
        "multicast.lossy_retransmits_per_inv": lossy["retransmits"] / lossy["completed"]
        if lossy else 0.0,
        "multicast.lossy_failed_frac": lossy["failed"] / lossy["attempted"] if lossy else 0.0,
        "multicast.lossy_p50_ms": lossy["p50_ms"] if lossy else 0.0,
        "multicast.lossy_service_gap_ms": lossy["service_gap_ms"] if lossy else 0.0,
        "multicast.fragments_per_inv": counts["delivery.fragments_sent"] / inv,
        "multicast.certs_per_inv": counts["delivery.certs_signed"] / inv,
        "multicast.reconfigurations": counts["multicast.reconfigurations"],
        "multicast.detect_ms": reference["detect_ms"],
        "multicast.sim_cpu_share": cpu_share("multicast."),
        "core.vote_copies_per_decision": counts["vote.copies"] / counts["vote.decisions"],
        "core.duplicates_suppressed_per_inv": counts["rm.duplicates_suppressed"] / inv,
        "core.value_fault_votes": counts["rm.value_fault_votes_sent"],
        "core.sim_cpu_share": cpu_share("rm."),
        "cluster.gateway_forwards_per_remote_inv": per_remote("cluster.forwarded"),
        "cluster.gateway_suppressed_per_remote_inv": per_remote("cluster.suppressed"),
        "cluster.local_p50_ms": reference.get("local_p50_ms", 0.0),
        "wan.gateway_forwards_per_remote_inv": per_remote("wan.forwarded"),
        "wan.remote_overhead_ms": reference["p50_ms"] - 1e3 * sum(WAN_LATENCY.values())
        if remote else 0.0,
        "obs.host_overhead_frac": obs_overhead,
        "ladder.other_host_share": shares["other"],
        "ladder.trace_overhead_frac": trace_overhead,
    }
    for layer in LAYERS:
        values[layer + ".host_share"] = shares[layer]
    values.update(micro_us)
    return {name: float(value) for name, value in values.items()}
