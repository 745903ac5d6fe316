"""Performance trajectory across the stacked benchmark artefacts.

Each optimisation PR leaves a ``BENCH_*.json`` report at the repo root.
Those files gate their own PRs, but nothing shows the trajectory —
whether the stack of changes is still compounding or a later PR quietly
gave back an earlier win.  This module aggregates every recognised
artefact into one table::

    python -m repro.bench trend              # print table, write BENCH_trend.json
    python -m repro.bench trend --dir PATH   # aggregate another directory

An artefact named in the scenario table (:mod:`repro.bench.scenarios`)
contributes that scenario's headline rows; any other artefact, and the
ones whose scenario writes its rows into the file, contributes its own
self-describing ``headline`` rows, so future benches appear here
without touching this module.  The output ``BENCH_trend.json`` is
deterministic: rows sort by source filename and the JSON is dumped with
sorted keys, so re-running on the same artefacts is byte-identical.
"""

import glob
import json
import os


def _rows_headline(report):
    """The generic reader: any artefact may carry its own ``headline``
    list of ``{metric, value, unit, gate, ok}`` rows (``BENCH_wan.json``
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


class TrendInputError(Exception):
    """An artefact that exists but cannot be aggregated."""


def collect(directory):
    """Scan ``directory`` for ``BENCH_*.json`` and extract trend rows.

    Returns a list of per-artefact entries sorted by filename.  The
    aggregate's own output (``BENCH_trend.json``), the benchmark
    ladder's smoke result (``BENCH_ladder.json``, which CI compares
    with a fresh run of its own) and any ``-rerun`` scratch copies are
    skipped.
    """
    from repro.bench.scenarios import SCENARIOS  # the table imports this module

    headlines = {
        s.artefact: s.headline for s in SCENARIOS.values() if s.headline and not s.embed
    }
    entries = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)
        stem = name[: -len(".json")]
        if stem in ("BENCH_trend", "BENCH_ladder") or stem.endswith("-rerun"):
            continue
        try:
            with open(path, "r") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            raise TrendInputError("cannot read %s: %s" % (name, exc))
        entries.append(
            {
                "file": name,
                "bench": report.get("bench"),
                "rows": headlines.get(name, _rows_headline)(report),
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
            # Scenario rows report numeric minimums; headline rows may
            # carry the full comparison as a string ("<=0.05").
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


def run(directory="."):
    """Print the table over ``directory``'s artefacts; returns the report."""
    entries = collect(directory)
    if not entries:
        raise TrendInputError("no BENCH_*.json artefacts in %s" % directory)
    print(render_table(entries))
    return build_report(entries)


def main(argv=()):
    """``python -m repro.bench trend`` with ``argv`` after the name."""
    from repro.bench.scenarios import main as bench_main

    return bench_main(["trend", *argv])
