"""Packet-driver measurement harness (paper section 8).

Reproduces the paper's measurement setup: six processors, a three-way
replicated client streaming fixed-length (64-byte) one-way IIOP
invocations at a configurable rate to a three-way replicated server,
under each of the four survivability cases.  Throughput is measured at
a server replica over a steady-state window, discarding warm-up.
"""

from repro.bench.build import Scenario, build
from repro.core.config import SurvivabilityCase

CASE_LABELS = {
    SurvivabilityCase.UNREPLICATED: "case 1: no replication, no security",
    SurvivabilityCase.ACTIVE_REPLICATION: "case 2: active replication, no voting",
    SurvivabilityCase.MAJORITY_VOTING: "case 3: + majority voting + digests",
    SurvivabilityCase.FULL_SURVIVABILITY: "case 4: + digitally signed tokens",
}


class CaseResult:
    """One measured point of the Figure 7 sweep."""

    def __init__(self, case, interval, offered, throughput, sent, received, cpu):
        self.case = case
        self.interval = interval
        #: invocations/s the client attempted (1/interval)
        self.offered = offered
        #: invocations/s delivered at the measured server replica
        self.throughput = throughput
        self.sent = sent
        self.received = received
        #: measured server processor's CPU accounting by category
        self.cpu = cpu

    @property
    def interval_us(self):
        return self.interval * 1e6

    def __repr__(self):
        return "CaseResult(%s @ %.0fus: %.0f inv/s)" % (
            self.case.name,
            self.interval_us,
            self.throughput,
        )


def packet_case(case, interval, duration=0.4, warmup=0.15):
    """One Figure 7 point as a :class:`Scenario`: ``case`` at
    ``interval`` seconds between invocations at the client (the paper's
    x-axis is microseconds), the packet driver running from t=0.02 (the
    initial membership installs first) through ``warmup`` and the
    measured ``duration``, then 50 ms for the last invocations to land."""
    return Scenario(case=case.name, service="packet",
                    workload=(interval, 0.02, warmup, duration), tail=0.05)


def measure(built):
    """The :class:`CaseResult` of a run packet-driver scenario, measured
    at the first server replica over the window after the warm-up."""
    interval, start, warmup, duration = built.scenario.workload
    end = start + warmup + duration
    measured_pid = built.server.replica_procs[0]
    sink = built.server.servants[measured_pid]
    return CaseResult(
        case=SurvivabilityCase[built.scenario.case],
        interval=interval,
        offered=1.0 / interval,
        throughput=sink.throughput(start + warmup, end),
        sent=built.driver.sent_per_replica,
        received=sink.received,
        cpu=dict(built.system.processors[measured_pid].cpu_accounting),
    )


def run_packet_driver_case(scenario):
    """Measure server throughput for one packet-driver scenario (see
    :func:`packet_case`); returns a :class:`CaseResult`."""
    return measure(build(scenario).run())


def format_series(results):
    """Render the sweep the way the paper's Figure 7 plots it."""
    lines = []
    lines.append(
        "Figure 7: Throughput measured at the server (invocations/sec) vs"
    )
    lines.append("interval between invocations measured at the client (us)")
    lines.append("")
    intervals = [r.interval_us for r in next(iter(results.values()))]
    header = "%-46s" % "case" + "".join("%10.0f" % us for us in intervals)
    lines.append(header)
    lines.append("-" * len(header))
    for case in sorted(results, key=lambda c: c.value):
        row = "%-46s" % CASE_LABELS[case]
        for result in results[case]:
            row += "%10.0f" % result.throughput
        lines.append(row)
    return "\n".join(lines)
