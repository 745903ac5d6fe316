"""Ablation studies for the design choices the paper calls out.

* **Token batching (j)** — "The Secure Multicast Protocols have been
  designed to amortize the cost of computing a signature over the
  number j of messages sent per token visit ... This parameter j can
  be tuned to achieve optimal performance" (section 8).  The sweep
  shows case-4 throughput rising with j as one signature covers more
  messages.
* **RSA modulus size** — "signature generation time is highly related
  to key modulus size; thus, a tradeoff exists between performance and
  the level of security attained" (section 8).  The paper measured at
  300 bits; the sweep shows throughput falling as the modulus grows.
* **Degree of replication** — more replicas mean more copies of every
  invocation to order, digest, and vote on; the sweep quantifies the
  cost of raising the survivable fault threshold.
"""

from dataclasses import replace

from repro.bench.harness import packet_case, run_packet_driver_case
from repro.core.config import SurvivabilityCase


def sweep_token_batching(js=(1, 2, 4, 6, 8), interval=200e-6, **window):
    """Case-4 throughput vs messages per token visit."""
    base = packet_case(SurvivabilityCase.FULL_SURVIVABILITY, interval, **window)
    return [
        (j, run_packet_driver_case(
            replace(base, config=(("messages_per_token_visit", j),))))
        for j in js
    ]


def sweep_key_size(moduli=(256, 300, 512, 768), interval=200e-6, **window):
    """Case-4 throughput vs RSA modulus size."""
    base = packet_case(SurvivabilityCase.FULL_SURVIVABILITY, interval, **window)
    return [
        (bits, run_packet_driver_case(replace(base, config=(("modulus_bits", bits),))))
        for bits in moduli
    ]


def sweep_replication_degree(degrees=(2, 3, 5), interval=200e-6,
                             case=SurvivabilityCase.MAJORITY_VOTING, **window):
    """Throughput vs degree of replication (same degree for client and
    server groups, on 2*degree processors)."""
    base = packet_case(case, interval, **window)
    return [
        (degree, run_packet_driver_case(replace(
            base, processors=2 * degree, server=tuple(range(degree)),
            client=tuple(range(degree, 2 * degree)),
        )))
        for degree in degrees
    ]


def format_sweep(title, xlabel, rows):
    lines = [title, "", "%-14s %12s %12s" % (xlabel, "offered/s", "measured/s")]
    lines.append("-" * 40)
    for x, result in rows:
        lines.append("%-14s %12.0f %12.0f" % (x, result.offered, result.throughput))
    return "\n".join(lines)
