"""Batch-signature throughput gate.

Runs the Figure-7 full-survivability case (the paper's case 4: signed
tokens, digests, majority voting — the most CPU-hungry configuration)
with per-visit token signatures and with batch certificates
(:mod:`repro.multicast.delivery` with ``batch_signatures=True``), and
requires the simulated invocations/second ratio to reach
:data:`MIN_RATIO`.  Both numbers are simulated, so the gate is
deterministic — it is enforced even under ``--smoke`` — and its report
``BENCH_pr7.json`` contains only simulated quantities, so repeated runs
must produce byte-identical files::

    python -m repro.bench perf            # writes BENCH_pr7.json
    python -m repro.bench perf --smoke    # CI-sized workload

Host wall-clock is not measured here: ``python3 -m ladder compare``
gates host time per invocation against a parent checkout.
``BENCH_pr2.json`` is the frozen record of PR 2's same-host
measurement (2.10x); the baseline implementations it timed are gone
(see ``docs/PERFORMANCE.md``).
"""

from repro.bench.harness import run_packet_driver_case
from repro.core.config import ImmuneConfig, SurvivabilityCase

#: the measured Figure-7 point: case 4 at a mid-range offered load
CASE = SurvivabilityCase.FULL_SURVIVABILITY
INTERVAL_US = 300
SEED = 7
#: batch certificates must deliver at least this many times the
#: throughput of per-visit signatures
MIN_RATIO = 3.0


def _sim_fingerprint(result):
    """Everything simulated the workload produces, for exact comparison."""
    return {
        "throughput": result.throughput,
        "offered": result.offered,
        "sent": result.sent,
        "received": result.received,
        "cpu_seconds_by_category": {k: result.cpu[k] for k in sorted(result.cpu)},
    }


BATCH_FULL = {"duration": 0.4, "warmup": 0.15}
BATCH_SMOKE = {"duration": 0.12, "warmup": 0.05}


def _run_batch_case(batch, duration, warmup):
    config = ImmuneConfig(case=CASE, seed=SEED, batch_signatures=batch)
    result = run_packet_driver_case(
        CASE,
        INTERVAL_US * 1e-6,
        duration=duration,
        warmup=warmup,
        seed=SEED,
        config=config,
    )
    return _sim_fingerprint(result)


def batch_report(smoke=False):
    """Gate the batch-signature pipeline's simulated throughput win.

    Runs the Figure-7 full-survivability workload with per-visit token
    signatures and with batch certificates, and compares the simulated
    invocations/second ratio with :data:`MIN_RATIO`.  Everything in the
    report is simulated, so it must be byte-identical across repeated
    runs, which an immediate re-run checks here.
    """
    params = BATCH_SMOKE if smoke else BATCH_FULL
    duration, warmup = params["duration"], params["warmup"]
    per_visit = _run_batch_case(False, duration, warmup)
    batched = _run_batch_case(True, duration, warmup)
    ratio = (
        batched["throughput"] / per_visit["throughput"]
        if per_visit["throughput"]
        else float("inf")
    )
    # Determinism: an immediate re-run (memos now warm) must reproduce
    # the simulated fingerprint exactly.
    rerun_equal = _run_batch_case(True, duration, warmup) == batched
    ratio_ok = ratio >= MIN_RATIO
    return {
        "bench": "pr7-batch-signature-pipeline",
        "workload": {
            "case": CASE.name,
            "interval_us": INTERVAL_US,
            "duration": duration,
            "warmup": warmup,
            "seed": SEED,
            "smoke": smoke,
        },
        "per_visit_signatures": per_visit,
        "batch_certificates": batched,
        "throughput_ratio": ratio,
        "min_ratio": MIN_RATIO,
        "ratio_ok": ratio_ok,
        "rerun_deterministic": rerun_equal,
        "ok": ratio_ok and rerun_equal,
    }


def run_batch_gate(smoke=False, output="BENCH_pr7.json"):
    """Write the gate's artefact to ``output`` as ``python -m repro.bench
    perf`` does; returns ``(report, exit status)``."""
    from repro.bench.scenarios import regenerate  # the table imports this module

    return regenerate("perf", smoke=smoke, out=output)
