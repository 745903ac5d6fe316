"""Packet-driver measurement harness (paper section 8).

Reproduces the paper's measurement setup: six processors, a three-way
replicated client streaming fixed-length (64-byte) one-way IIOP
invocations at a configurable rate to a three-way replicated server,
under each of the four survivability cases.  Throughput is measured at
a server replica over a steady-state window, discarding warm-up.
"""

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.workloads.packet_driver import PACKET_IDL, PacketDriver, PacketSink

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


def run_packet_driver_case(
    case,
    interval,
    duration=0.4,
    warmup=0.15,
    num_processors=6,
    server_procs=(0, 1, 2),
    client_procs=(3, 4, 5),
    seed=7,
    modulus_bits=300,
    messages_per_token_visit=6,
    config=None,
    obs=None,
    fault_plan=None,
):
    """Measure server throughput for one (case, interval) point.

    Returns a :class:`CaseResult`.  ``interval`` is in seconds (the
    paper's x-axis is microseconds between consecutive invocations at
    the client).  Passing an :class:`~repro.obs.Observability` attaches
    the metrics registry and span tracker to the run.  Passing a
    :class:`~repro.sim.faults.FaultPlan` measures throughput *under* the
    injected faults; combined with an ``obs`` carrying a
    :class:`~repro.obs.forensics.ForensicsHub`, the run yields a full
    fault-attribution timeline next to the performance numbers.
    """
    if config is None:
        config = ImmuneConfig(
            case=case,
            seed=seed,
            modulus_bits=modulus_bits,
            messages_per_token_visit=messages_per_token_visit,
        )
    # Tracing off: performance runs generate millions of events.
    immune = ImmuneSystem(
        num_processors=num_processors,
        config=config,
        fault_plan=fault_plan,
        trace_kinds=frozenset(),
        obs=obs,
    )
    sinks = {}

    def factory(pid):
        sink = PacketSink(immune.scheduler)
        sinks[pid] = sink
        return sink

    server = immune.deploy("packet-sink", PACKET_IDL, factory, list(server_procs))
    client = immune.deploy_client("packet-driver", list(client_procs))
    immune.start()

    driver = PacketDriver(immune, client, server, interval)
    start = 0.02  # let the initial membership install first
    end = start + warmup + duration
    driver.run_for(start, warmup + duration)
    immune.run(until=end + 0.05)

    measured_pid = server.replica_procs[0]
    sink = sinks[measured_pid]
    return CaseResult(
        case=case,
        interval=interval,
        offered=1.0 / interval,
        throughput=sink.throughput(start + warmup, end),
        sent=driver.sent_per_replica,
        received=sink.received,
        cpu=dict(immune.processors[measured_pid].cpu_accounting),
    )


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
