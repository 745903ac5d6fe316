"""Batch-signature throughput gate.

Runs the Figure-7 full-survivability case (the paper's case 4: signed
tokens, digests, majority voting — the most CPU-hungry configuration)
with per-visit token signatures and with batch certificates
(:mod:`repro.multicast.delivery` with ``batch_signatures=True``), and
requires the simulated invocations/second ratio to reach
``--min-batch-ratio`` (default 3.0).  Both numbers are simulated, so
the gate is deterministic — it is enforced even under ``--smoke`` — and
its report ``BENCH_pr7.json`` contains only simulated quantities, so
repeated runs must produce byte-identical files::

    python -m repro.bench.perf            # writes BENCH_pr7.json
    python -m repro.bench.perf --smoke    # CI-sized workload

Host wall-clock is not measured here: ``python3 -m ladder compare``
gates host time per invocation against a parent checkout.
``BENCH_pr2.json`` is the frozen record of PR 2's same-host
measurement (2.10x); the baseline implementations it timed are gone
(see ``docs/PERFORMANCE.md``).
"""

import argparse
import json
import sys

from repro.bench.harness import run_packet_driver_case
from repro.core.config import ImmuneConfig, SurvivabilityCase

#: the measured Figure-7 point: case 4 at a mid-range offered load
CASE = SurvivabilityCase.FULL_SURVIVABILITY
INTERVAL_US = 300
SEED = 7


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


def run_batch_gate(smoke=False, min_ratio=3.0, output="BENCH_pr7.json"):
    """Gate the batch-signature pipeline's simulated throughput win.

    Runs the Figure-7 full-survivability workload with per-visit token
    signatures and with batch certificates, and requires the simulated
    invocations/second ratio to reach ``min_ratio``.  Everything in the
    report is simulated, so it must be byte-identical across repeated
    runs, which an immediate re-run checks here.
    """
    params = BATCH_SMOKE if smoke else BATCH_FULL
    duration, warmup = params["duration"], params["warmup"]
    print(
        "batch gate: %s @ %dus, duration=%.2fs%s"
        % (CASE.name, INTERVAL_US, duration, " (smoke)" if smoke else "")
    )

    per_visit = _run_batch_case(False, duration, warmup)
    batched = _run_batch_case(True, duration, warmup)
    ratio = (
        batched["throughput"] / per_visit["throughput"]
        if per_visit["throughput"]
        else float("inf")
    )
    print("  per-visit signatures: %8.1f inv/s" % per_visit["throughput"])
    print("  batch certificates:   %8.1f inv/s" % batched["throughput"])
    print("  ratio: %.2fx (gate: %.1fx)" % (ratio, min_ratio))

    # Determinism: an immediate re-run (memos now warm) must reproduce
    # the simulated fingerprint exactly.
    rerun_equal = _run_batch_case(True, duration, warmup) == batched
    print("  rerun deterministic: %s" % rerun_equal)

    ratio_ok = ratio >= min_ratio
    ok = ratio_ok and rerun_equal
    report = {
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
        "min_ratio": min_ratio,
        "ratio_ok": ratio_ok,
        "rerun_deterministic": rerun_equal,
        "ok": ok,
    }
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("  wrote %s" % output)

    if not ratio_ok:
        print(
            "FAIL: batch ratio %.2fx below the %.1fx gate" % (ratio, min_ratio),
            file=sys.stderr,
        )
    if not rerun_equal:
        print("FAIL: batch gate results are not deterministic", file=sys.stderr)
    if ok:
        print("PASS")
    return report, 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="abbreviated CI workload"
    )
    parser.add_argument("--min-batch-ratio", type=float, default=3.0)
    parser.add_argument("--batch-output", default="BENCH_pr7.json")
    args = parser.parse_args(argv)
    _, status = run_batch_gate(
        smoke=args.smoke, min_ratio=args.min_batch_ratio, output=args.batch_output
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
