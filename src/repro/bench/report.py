"""One-shot evaluation report: every table and figure of the paper.

    python -m repro.bench report            # full Figure 7 sweep
    python -m repro.bench report --smoke    # abbreviated sweep

Prints Figure 7, the Table 1 fault/mechanism matrix with observed
evidence, and the Table 2/4/5 property check summaries, in one run.
The pytest benches under ``benchmarks/`` assert the same content
piecewise; this module is the human-readable artefact.
"""

from repro.bench import figure7
from repro.bench.properties import (
    delivery_violations,
    detector_violations,
    membership_violations,
)
from repro.bench.tables import format_table1, run_all_drills
from repro.sim.faults import FaultPlan, LinkFaults


def _section(title):
    bar = "=" * len(title)
    return "\n%s\n%s\n" % (title, bar)


def run_property_checks(seed=77):
    """A crash + loss history, checked against Tables 2, 4, and 5."""
    # Local import: the support harness lives with the tests, but the
    # report must be runnable from an installed package, so we build
    # the world directly here.
    import random

    from repro.crypto.costmodel import CryptoCostModel
    from repro.crypto.keystore import KeyStore
    from repro.multicast.config import MulticastConfig
    from repro.multicast.endpoint import SecureGroupEndpoint
    from repro.sim.network import Network
    from repro.sim.process import Processor
    from repro.sim.rng import RngStreams
    from repro.sim.scheduler import Scheduler
    from repro.sim.tracing import TraceLog

    scheduler = Scheduler()
    trace = TraceLog(scheduler)
    plan = FaultPlan(default=LinkFaults(loss_prob=0.1), active_until=1.0)
    plan.schedule_crash(4, 1.5)
    network = Network(
        scheduler, rng=RngStreams(seed).stream("net"), fault_plan=plan
    )
    keystore = KeyStore(random.Random(seed), modulus_bits=256)
    costs = CryptoCostModel(modulus_bits=256)
    config = MulticastConfig()
    endpoints = {}
    processors = {}
    for pid in range(5):
        proc = Processor(pid, scheduler)
        network.add_processor(proc)
        processors[pid] = proc
        endpoints[pid] = SecureGroupEndpoint(
            proc, scheduler, network, keystore, costs, config, trace
        )
    plan.arm_crashes(scheduler, processors)
    for pid in range(5):
        endpoints[pid].start(list(range(5)))
    for i in range(10):
        scheduler.at(
            0.1 + 0.1 * i,
            endpoints[i % 4].multicast,
            "g",
            b"report-%d" % i,
            label="report.workload",
        )
    scheduler.run(until=10.0)
    correct = {0, 1, 2, 3}
    return {
        "Table 2 (delivery)": delivery_violations(trace, correct),
        "Table 4 (membership)": membership_violations(trace, correct, faulty={4}),
        "Table 5 (detector)": detector_violations(trace, correct, faulty={4}),
    }


def run(quick=False):
    """Print every section; returns the Figure 7 shape check."""
    print(_section("Figure 7 — performance of the Immune system"))
    problems = figure7.run(quick=quick)["shape_problems"]

    print(_section("Table 1 — fault injection drills"))
    print(format_table1(run_all_drills()))

    print(_section("Tables 2, 4, 5 — protocol property checks"))
    for name, violations in run_property_checks().items():
        status = "all properties hold" if not violations else "; ".join(violations)
        print("  %-22s %s" % (name, status))

    print(_section("Table 3 — token fields"))
    print("  structural: see benchmarks/test_table3_tokens.py (codec-verified)")
    return {"bench": "paper-report", "shape_problems": problems}
