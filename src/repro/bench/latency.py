"""Extension: end-to-end invocation latency per survivability case.

The paper reports throughput only; its successors (e.g. the Eternal
measurements) report round-trip latency as well, and the tradeoff is
implicit in section 8: signatures add milliseconds of protocol latency
to every operation.  This harness measures the client-observed
round-trip time of two-way invocations at a gentle request rate — the
latency cost of each survivability level, unconfounded by queueing::

    python -m repro.bench latency
"""

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.workloads.open_loop import ECHO_IDL, EchoServant, OpenLoopDriver, echo


class LatencyResult:
    def __init__(self, case, samples):
        self.case = case
        self.samples = sorted(samples)

    @property
    def count(self):
        return len(self.samples)

    @property
    def mean(self):
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def median(self):
        if not self.samples:
            return 0.0
        middle = len(self.samples) // 2
        return self.samples[middle]

    def percentile(self, fraction):
        if not self.samples:
            return 0.0
        index = min(int(fraction * len(self.samples)), len(self.samples) - 1)
        return self.samples[index]

    def __repr__(self):
        return "LatencyResult(%s, median=%.2fms)" % (
            self.case.name,
            1e3 * self.median,
        )


def measure_latency(case, operations=20, spacing=0.05, seed=9, num_processors=6):
    """Round-trip latency of ``operations`` two-way invocations.

    Invocations are spaced far enough apart that each completes before
    the next is issued (no queueing) — the numbers are pure protocol
    latency: marshal + order + vote + dispatch + reply + vote.
    """
    config = ImmuneConfig(case=case, seed=seed)
    immune = ImmuneSystem(
        num_processors=num_processors, config=config, trace_kinds=frozenset()
    )
    server = immune.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1, 2])
    client = immune.deploy_client("pinger", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, ECHO_IDL, server)
    driver = OpenLoopDriver(immune, stubs, echo, "latency.workload")
    driver.run(0.1, operations, spacing)
    immune.run(until=0.1 + operations * spacing + 2.0)
    measured_pid = stubs[0][0]
    return LatencyResult(
        case, [latency for _k, pid, _n, latency in driver.replies if pid == measured_pid]
    )


def format_latency(results):
    lines = [
        "Invocation round-trip latency by survivability case",
        "",
        "%-44s %8s %8s %8s %6s" % ("case", "median", "mean", "p90", "n"),
        "-" * 80,
    ]
    for result in results:
        lines.append(
            "%-44s %6.2fms %6.2fms %6.2fms %6d"
            % (
                result.case.name,
                1e3 * result.median,
                1e3 * result.mean,
                1e3 * result.percentile(0.9),
                result.count,
            )
        )
    return "\n".join(lines)


def run():
    """Print the latency of every survivability case; returns the medians."""
    results = [measure_latency(case) for case in SurvivabilityCase]
    print(format_latency(results))
    return {
        "bench": "latency",
        "median_seconds": {result.case.name: result.median for result in results},
    }
