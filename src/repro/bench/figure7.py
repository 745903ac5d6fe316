"""Figure 7: performance of the Immune system.

Sweeps the interval between consecutive one-way invocations at the
client and reports the throughput measured at the server for the four
survivability cases::

    python -m repro.bench figure7            # full sweep
    python -m repro.bench figure7 --smoke    # abbreviated sweep

The shape to compare against the paper (absolute numbers depend on the
calibrated cost model, not on the authors' UltraSPARC testbed):

* case 1 (no replication, no Immune) is the highest throughput;
* cases 2 and 3 track each other closely — the interception,
  replication, multicast, and digest overheads are modest;
* case 4 is far below the others and nearly flat: RSA signature
  generation dominates CPU and caps throughput regardless of load;
* at small intervals, cases 1-3 show batching transients from the
  ORB's coalescing of one-way invocations.
"""

from repro.bench.harness import format_series, packet_case, run_packet_driver_case
from repro.core.config import SurvivabilityCase

#: the paper varies the interval over roughly this range (microseconds)
FULL_INTERVALS_US = (50, 75, 100, 150, 200, 300, 500, 800, 1200)
QUICK_INTERVALS_US = (100, 300, 1200)


def run_figure7(quick=False):
    """Run the sweep over the four cases; returns {case: [CaseResult, ...]}."""
    intervals_us = QUICK_INTERVALS_US if quick else FULL_INTERVALS_US
    window = dict(duration=0.2, warmup=0.1) if quick else {}
    return {
        case: [
            run_packet_driver_case(packet_case(case, us * 1e-6, **window))
            for us in intervals_us
        ]
        for case in SurvivabilityCase
    }


def check_shape(results):
    """Assert the qualitative relationships the paper demonstrates.

    Returns a list of violated expectations (empty = shape holds).
    """
    problems = []

    def series(case):
        return {round(r.interval_us): r.throughput for r in results[case]}

    case1 = series(SurvivabilityCase.UNREPLICATED)
    case2 = series(SurvivabilityCase.ACTIVE_REPLICATION)
    case3 = series(SurvivabilityCase.MAJORITY_VOTING)
    case4 = series(SurvivabilityCase.FULL_SURVIVABILITY)
    for us in case1:
        if not case1[us] >= case2[us] * 0.95:
            problems.append("case 1 below case 2 at %dus" % us)
        if not case2[us] >= case4[us]:
            problems.append("case 2 below case 4 at %dus" % us)
        if not case3[us] >= case4[us]:
            problems.append("case 3 below case 4 at %dus" % us)
    # Case 4 is CPU-bound on signatures: its throughput must be nearly
    # flat across offered loads where the others still scale.
    c4 = [case4[us] for us in sorted(case4)]
    if c4 and max(c4) > 0 and (max(c4) - min(c4)) > 0.5 * max(c4):
        problems.append("case 4 is not flat (signature-bound)")
    return problems


def run(quick=False):
    """Print the sweep and its shape check; returns the plotted points."""
    results = run_figure7(quick=quick)
    print(format_series(results))
    problems = check_shape(results)
    print("shape check: %s" % ("; ".join(problems) or "matches the paper "
                               "(case1 > case2 ~ case3 >> case4 flat)"))
    return {
        "bench": "figure7",
        "throughput": {
            case.name: [[r.interval_us, r.throughput] for r in series]
            for case, series in results.items()
        },
        "shape_problems": problems,
    }
