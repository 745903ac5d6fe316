"""The benchmark's commands.

``pass`` is one pass over one workload's ladder in this process, with
the driver's contract: ``--workload --seed --seconds --trace``, the
result as one JSON object on the last line.  ``run`` and ``trace``
repeat it in fresh subprocesses over all workloads and keep a result
file; ``compare`` judges two result files by the metrics' bounds.
"""

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from ladder import metrics, trace
from ladder.workloads import WORKLOADS, Rung

#: ``run_seconds`` of BENCHMARK.json.  ``--seconds`` fixes the simulated
#: work, not a deadline: windows are the pinned ones times seconds/20,
#: sized so that a pass costs about ``seconds`` of host CPU at the seed
#: commit.  A faster simulator finishes sooner, with the same simulated
#: results, and ``host_cal_per_inv`` says by how much.
RUN_SECONDS = 20
SMOKE_SECONDS = 2
#: the traced pass runs its rungs three times over, so it runs them shorter
TRACE_SCALE = 0.4

GENERATOR = (
    "open loop at a constant rate; due times are on the simulated clock, "
    "so the generator is never late"
)
HOST_FIELDS = ("setup_s", "host_s", "host_cal")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _simulated_differences(rung, again):
    """(field, value, other value) wherever two runs of one rung disagree
    on something that is on the simulated clock."""
    return [
        (field, rung[field], again[field])
        for field in rung
        if field not in HOST_FIELDS and rung[field] != again[field]
    ]


def measured_pass(workload, seed, scale, import_s):
    """Walk the whole ladder untraced; the end-to-end metrics."""
    rungs = [Rung(workload, rate, seed, scale).run() for rate in workload.rates]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rungs, metrics.end_to_end(
        workload, rungs, import_s + sum(rung["setup_s"] for rung in rungs), peak_rss_mb
    )


def traced_pass(workload, seed, scale):
    """Reference and top rungs at reduced length: plain, under cProfile,
    with observability toggled, and, where the workload has a lossy
    build, under message loss; the per-layer metrics.

    The lossy rung is returned apart from the others: what fails in it
    is a measurement, not a verdict on the pass.
    """
    scale *= TRACE_SCALE
    rates = sorted({workload.reference, workload.rates[-1]})
    plain, counts = [], None
    for rate in rates:
        rung = Rung(workload, rate, seed, scale)
        plain.append(rung.run())
        if rate == workload.reference:
            counts = rung.layer_counts()
    profile = cProfile.Profile()
    traced = [Rung(workload, rate, seed, scale).run(profile) for rate in rates]
    for a, b in zip(plain, traced):
        b["problems"] += [
            "%s differs under the profiler: %r != %r" % difference
            for difference in _simulated_differences(a, b)
        ]
    reference = plain[rates.index(workload.reference)]
    toggled = Rung(workload, workload.reference, seed, scale, obs=not workload.obs).run()
    with_obs, without = (reference, toggled) if workload.obs else (toggled, reference)
    lossy = None
    if workload.lossy_build is not None:
        rung = Rung(workload, workload.reference, seed, scale, lossy=True)
        lossy = rung.run()
        lossy["retransmits"] = rung.layer_counts()["delivery.retransmits"]
    values = metrics.per_layer(
        reference,
        counts,
        lossy,
        trace.host_shares(profile),
        trace.micro(seed),
        obs_overhead=with_obs["host_cal"] / without["host_cal"] - 1.0,
        trace_overhead=sum(r["host_s"] for r in traced) / sum(r["host_s"] for r in plain) - 1.0,
    )
    return plain + traced + [toggled], values, lossy


def cmd_pass(args, import_s):
    workload = WORKLOADS[args.workload]
    scale = args.seconds / RUN_SECONDS
    lossy = None
    if args.trace:
        rungs, values, lossy = traced_pass(workload, args.seed, scale)
    else:
        rungs, values = measured_pass(workload, args.seed, scale, import_s)
    problems = ["%d inv/s: %s" % (r["rate"], p) for r in rungs for p in r["problems"]]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in rungs),
        "failed": sum(r["failed"] for r in rungs),
        "metrics": values,
        "rungs": rungs,
        # under message loss; informational, not gated
        "lossy": lossy,
    }
    print("%s seed %d: %s" % (workload.name, args.seed, GENERATOR))
    print("  tail is p%d, limit %g ms" % (round(100 * workload.tail), workload.limit_ms))
    for rung in rungs:
        print(
            "  %5d inv/s: %5d of %5d done, %8.1f inv/s, p50 %s ms, tail %s ms (n=%d), "
            "%s, host %.2f s"
            % (
                rung["rate"], rung["completed"], rung["attempted"], rung["throughput_inv_s"],
                _fmt(rung["p50_ms"]), _fmt(rung["tail_ms"]), rung["samples"],
                "sustained" if rung["sustained"] else "not sustained", rung["host_s"],
            )
        )
    for name, value in values.items():
        print("  %-44s %14s %s" % (name, _fmt(value), metrics.UNITS[name]))
    if not args.trace:
        print("  raw host CPU, not gated: %s us per invocation" % _fmt(_raw_us_per_inv(rungs)))
    if lossy is not None:
        print(
            "  under message loss, not gated: %d of %d failed%s"
            % (lossy["failed"], lossy["attempted"], "".join("; " + p for p in lossy["problems"]))
        )
    for problem in problems:
        print("  INCORRECT at %s" % problem)
    print("detail: " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": detail["correct"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if detail["correct"] else 1


def _raw_us_per_inv(rungs):
    return 1e6 * sum(r["host_s"] for r in rungs) / sum(r["completed"] for r in rungs)


def _fmt(value):
    return "-" if value is None else "%.6g" % value


def _subprocess_pass(name, seed, seconds, traced):
    """One pass in a fresh single-threaded interpreter; its detail record."""
    done = subprocess.run(
        [sys.executable, "-m", "ladder", "pass", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True, text=True,
    )
    details = [line for line in done.stdout.splitlines() if line.startswith("detail: ")]
    if not details:
        raise SystemExit(
            "%s: the pass printed no result (exit %d)\n%s" % (name, done.returncode, done.stderr)
        )
    detail = json.loads(details[-1][len("detail: "):])
    if not detail["correct"]:
        raise SystemExit("%s fails its correctness gate at %s" % (name, detail["problems"]))
    return detail


def _commit():
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cmd_run(args, traced):
    """Every workload, three passes (one if traced or smoke), round-robin,
    never two at once."""
    seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    passes = 1 if traced or args.smoke else 3
    per_workload = {name: [] for name in WORKLOADS}
    for index in range(passes):
        for name in WORKLOADS:
            detail = _subprocess_pass(name, args.seed, seconds, traced)
            first = (per_workload[name] or [detail])[0]
            _determinism_gate(name, first, detail)
            per_workload[name].append(detail)
            print("pass %d/%d %s done" % (index + 1, passes, name), file=sys.stderr)

    result = {
        "seed": args.seed,
        "seconds": seconds,
        "passes": passes,
        "traced": traced,
        "smoke": args.smoke,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "generator": GENERATOR,
        "workloads": {},
    }
    for name, details in per_workload.items():
        workload = WORKLOADS[name]
        first = details[0]
        values = {}
        for metric in first["metrics"]:
            per_pass = [d["metrics"][metric] for d in details]
            values[metric] = {
                "value": statistics.median(per_pass),
                "unit": metrics.UNITS[metric],
                "passes": per_pass,
            }
        entry = {
            "rates": list(workload.rates),
            "reference": workload.reference,
            "tail_percentile": workload.tail,
            "limit_ms": workload.limit_ms,
            "attempted": first["attempted"],
            "failed": first["failed"],
            "lossy": first["lossy"],
            "metrics": values,
            # informational, not gated: the Figure-7 axis, per rung
            "curves": [
                dict(rung, host_s=[d["rungs"][i]["host_s"] for d in details])
                for i, rung in enumerate(first["rungs"])
            ],
        }
        if "host_cal_per_inv" in values:
            entry["ladder.host_spread_frac"] = _spread(values["host_cal_per_inv"]["passes"])
            # raw CPU time, for the reader; too noisy on a shared box to gate on
            entry["host_cpu_us_per_inv"] = [_raw_us_per_inv(d["rungs"]) for d in details]
        result["workloads"][name] = entry
        print("%s: %d attempted, %d failed" % (name, entry["attempted"], entry["failed"]))
        if entry["lossy"] is not None:
            print("  under message loss, not gated: %d attempted, %d failed"
                  % (entry["lossy"]["attempted"], entry["lossy"]["failed"]))
        for metric, value in values.items():
            low, high = min(value["passes"]), max(value["passes"])
            print(
                "  %-44s %14s %-6s [min %s, max %s]"
                % (metric, _fmt(value["value"]), value["unit"], _fmt(low), _fmt(high))
            )
        if "ladder.host_spread_frac" in entry:
            print("  %-44s %14s" % ("ladder.host_spread_frac", _fmt(entry["ladder.host_spread_frac"])))
            print("  raw host CPU, not gated: %s us per invocation"
                  % ", ".join(_fmt(us) for us in entry["host_cpu_us_per_inv"]))
    if args.out:
        with open(args.out, "w") as out:
            json.dump(result, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0


def _spread(values):
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def _determinism_gate(name, first, again):
    """Everything on the simulated clock must repeat bit for bit."""
    for metric, value in first["metrics"].items():
        if metric.startswith("sim_") and again["metrics"][metric] != value:
            raise SystemExit(
                "determinism: %s %s was %r, now %r" % (name, metric, value, again["metrics"][metric])
            )
    for a, b in zip(first["rungs"], again["rungs"]):
        for difference in _simulated_differences(a, b):
            raise SystemExit(
                "determinism: %s at %d inv/s, %s was %r, now %r" % ((name, a["rate"]) + difference)
            )


#: what two result files must agree on before their numbers can be compared
SAME_RUN = ("seed", "seconds", "passes", "traced", "smoke")


def compare(before, after):
    """Rows of (workload, metric, a, b, ratio, bound, verdict) for two result files."""
    for key in SAME_RUN:
        if before[key] != after[key]:
            raise SystemExit(
                "not comparable: %s is %r in one file and %r in the other"
                % (key, before[key], after[key])
            )
    rows = []
    for name in before["workloads"]:
        a, b = before["workloads"][name], after["workloads"].get(name)
        if b is None:
            continue
        for metric, _unit, better, bound in metrics.END_TO_END:
            if metric not in a["metrics"] or metric not in b["metrics"]:
                continue  # a file from ``trace`` holds layer metrics, which have no bounds
            va, vb = a["metrics"][metric], b["metrics"][metric]
            ratio = vb["value"] / va["value"] if va["value"] else float("inf")
            worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
            if max(_spread(va["passes"]), _spread(vb["passes"])) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append((name, metric, va["value"], vb["value"], ratio, bound, verdict))
        counts = [("failed", a["failed"], b["failed"])]
        if a["lossy"] is not None and b["lossy"] is not None:
            counts.append(("failed under loss", a["lossy"]["failed"], b["lossy"]["failed"]))
        for label, fa, fb in counts:
            rows.append((name, label, fa, fb, None, 0.0, "worse" if fb > fa else "same"))
    return rows


def cmd_compare(args):
    with open(args.before) as fa, open(args.after) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print("%-24s %-24s %14s %14s %18s %6s  %s" % (
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"))
    for name, metric, a, b, ratio, bound, verdict in rows:
        base = "-" if ratio is None else "%.4f of %s" % (ratio, _fmt(a))
        print("%-24s %-24s %14s %14s %18s %6g  %s" % (
            name, metric, _fmt(a), _fmt(b), base, bound, verdict))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def main(argv, import_s=0.0):
    parser = argparse.ArgumentParser(prog="python3 -m ladder", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    one = commands.add_parser("pass", help="one pass of one workload, in this process")
    one.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), required=True)
    for command, text in (
        ("run", "end-to-end metrics of every workload, median over three fresh-process passes"),
        ("trace", "per-layer metrics of every workload from one traced pass each"),
    ):
        many = commands.add_parser(command, help=text)
        many.add_argument("--seed", type=int, default=7)
        many.add_argument(
            "--smoke", action="store_true",
            help="one pass, windows a tenth as long, except the fault drill's, which "
            "needs its 8 simulated seconds to recover; host numbers mean nothing",
        )
        many.add_argument("--out", help="write the result file here")
    micro = commands.add_parser("micro", help="the *_us timings of the layers' public functions")
    micro.add_argument("--seed", type=int, default=7)
    pair = commands.add_parser("compare", help="judge result file B against A by the bounds")
    pair.add_argument("before")
    pair.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "pass":
        return cmd_pass(args, import_s)
    if args.command == "micro":
        for name, value in trace.micro(args.seed).items():
            print("%-32s %10.3f us" % (name, value))
        return 0
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_run(args, traced=args.command == "trace")
