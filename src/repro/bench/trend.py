"""Performance trajectory across the stacked benchmark artefacts.

Each optimisation PR leaves a ``BENCH_*.json`` report at the repo root
(``BENCH_pr2.json`` is PR 2's frozen measurement, ``repro.bench.perf``
writes ``BENCH_pr7.json``, ``repro.bench.cluster`` writes
``BENCH_pr5.json``).  Those files gate
their own PRs, but nothing shows the trajectory — whether the stack of
changes is still compounding or a later PR quietly gave back an
earlier win.  This module aggregates every recognised artefact into
one table::

    python -m repro.bench.trend              # print table, write BENCH_trend.json
    python -m repro.bench.trend --dir PATH   # scan another directory
    python -m repro.bench.trend --no-write   # table only

Per-PR headline figures are extracted by the ``bench`` field of each
report (``pr2-hot-path-overhaul`` → wall-clock speedup,
``cluster-scaling`` → 2-ring/4-ring aggregate-throughput scaling,
``pr7-batch-signature-pipeline`` → simulated throughput ratio) so the
trend survives unrelated schema growth inside the artefacts; any
artefact without a registered extractor contributes its own
self-describing ``headline`` rows (``repro.bench.wan`` writes them), so
future benches appear here without touching this module.  The
output ``BENCH_trend.json`` is deterministic: rows sort by source
filename and the JSON is dumped with sorted keys, so re-running on the
same artefacts is byte-identical.
"""

import argparse
import glob
import json
import os
import sys


def _rows_pr2(report):
    return [
        {
            "metric": "hot-path wall-clock speedup",
            "value": report["speedup"],
            "unit": "x",
            "gate": report.get("min_speedup"),
            "ok": bool(report.get("ok")),
        }
    ]


def _rows_cluster(report):
    rows = []
    for rings, key in ((2, "scaling_2_rings"), (4, "scaling_4_rings")):
        if key in report:
            rows.append(
                {
                    "metric": "aggregate throughput scaling, %d rings" % rings,
                    "value": report[key],
                    "unit": "x",
                    "gate": None,
                    "ok": True,
                }
            )
    return rows


def _rows_pr7(report):
    return [
        {
            "metric": "batch-signature simulated throughput ratio",
            "value": report["throughput_ratio"],
            "unit": "x",
            "gate": report.get("min_ratio"),
            "ok": bool(report.get("ok")),
        }
    ]


def _rows_headline(report):
    """The generic fallback: any artefact may carry its own ``headline``
    list of ``{metric, value, unit, gate, ok}`` rows (``repro.bench.wan``
    does), so future benches join the trend without a code change here.
    Malformed rows are skipped rather than crashing the aggregate."""
    rows = []
    for row in report.get("headline", ()):
        if not isinstance(row, dict):
            continue
        metric, value = row.get("metric"), row.get("value")
        if not isinstance(metric, str) or not isinstance(value, (int, float)):
            continue
        gate = row.get("gate")
        if isinstance(gate, bool) or not isinstance(gate, (int, float, str)):
            gate = None
        rows.append(
            {
                "metric": metric,
                "value": value,
                "unit": str(row.get("unit", "")),
                "gate": gate,
                "ok": bool(row.get("ok")),
            }
        )
    return rows


#: ``bench`` field -> row extractor; artefacts without one fall back to
#: their self-describing ``headline`` rows, and an artefact with neither
#: is listed but contributes no rows (the trend degrades, never crashes)
_EXTRACTORS = {
    "pr2-hot-path-overhaul": _rows_pr2,
    "cluster-scaling": _rows_cluster,
    "pr7-batch-signature-pipeline": _rows_pr7,
}


class TrendInputError(Exception):
    """An artefact that exists but cannot be aggregated."""


def collect(directory):
    """Scan ``directory`` for ``BENCH_*.json`` and extract trend rows.

    Returns a list of per-artefact entries sorted by filename.  The
    aggregate's own output (``BENCH_trend.json``) and any ``-rerun``
    scratch copies CI leaves behind are skipped.
    """
    entries = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)
        stem = name[: -len(".json")]
        if stem == "BENCH_trend" or stem.endswith("-rerun"):
            continue
        try:
            with open(path, "r") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            raise TrendInputError("cannot read %s: %s" % (name, exc))
        bench = report.get("bench")
        extractor = _EXTRACTORS.get(bench, _rows_headline)
        entries.append(
            {
                "file": name,
                "bench": bench,
                "rows": extractor(report),
            }
        )
    return entries


def render_table(entries):
    """The human-facing perf-trajectory table, one line per headline."""
    lines = []
    lines.append("perf trajectory (%d artefact(s))" % len(entries))
    lines.append("")
    header = "%-16s %-44s %9s  %-6s" % ("artefact", "metric", "value", "gate")
    lines.append(header)
    lines.append("-" * len(header))
    for entry in entries:
        if not entry["rows"]:
            lines.append(
                "%-16s %-44s %9s  %-6s"
                % (entry["file"], "(no recognised headline: bench=%r)" % entry["bench"], "-", "-")
            )
            continue
        for row in entry["rows"]:
            # Registered extractors report numeric minimums; headline
            # rows may carry the full comparison as a string ("<=0.05").
            gate = row["gate"]
            if gate is None:
                gate = "-"
            elif not isinstance(gate, str):
                gate = ">=%.2f" % gate
            flag = "" if row["ok"] else "  FAIL"
            lines.append(
                "%-16s %-44s %8.2f%s  %-6s%s"
                % (entry["file"], row["metric"], row["value"], row["unit"], gate, flag)
            )
    return "\n".join(lines)


def build_report(entries):
    rows = [
        dict(row, file=entry["file"], bench=entry["bench"])
        for entry in entries
        for row in entry["rows"]
    ]
    return {
        "bench": "trend",
        "artifacts": [entry["file"] for entry in entries],
        "rows": rows,
        "all_gates_ok": all(row["ok"] for row in rows),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json (default: .)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_trend.json inside --dir)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print the table only"
    )
    args = parser.parse_args(argv)
    try:
        entries = collect(args.dir)
    except TrendInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not entries:
        print("error: no BENCH_*.json artefacts in %s" % args.dir, file=sys.stderr)
        return 2
    print(render_table(entries))
    report = build_report(entries)
    if not args.no_write:
        out = args.out or os.path.join(args.dir, "BENCH_trend.json")
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print()
        print("wrote %s (%d headline row(s))" % (out, len(report["rows"])))
    return 0 if report["all_gates_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
