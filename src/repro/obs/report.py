"""``python -m repro.obs.report --input PATH`` — render a JSONL artefact.

Reads an export written by ``python -m repro.bench report`` (or
``slo``) and prints its console dashboard; ``--json`` prints the run
description and summary as machine-readable JSON instead::

    PYTHONPATH=src python -m repro.obs.report --input report.jsonl [--json]

A missing or unreadable file, or one with no summary or nothing for it
to summarise, exits 2 with a message.
"""

import argparse
import json
import sys

from repro.obs.export import JsonlInputError, read_jsonl, render_dashboard


def load_summary(path):
    """Load ``(summary, run_info)`` back out of a JSONL artefact.

    Raises :class:`~repro.obs.export.JsonlInputError` when the file
    cannot be read (:func:`~repro.obs.export.read_jsonl`) or carries no
    ``summary`` record or nothing for it to summarise.
    """
    summary = None
    run_info = None
    payload_records = 0
    for record in read_jsonl(path):
        kind = record.pop("record", None)
        if kind == "summary":
            summary = record
        elif kind == "run":
            run_info = record
        elif kind in ("series", "span"):
            payload_records += 1
    if summary is None:
        raise JsonlInputError(
            "JSONL input %s has no summary record (not a repro.obs artefact?)"
            % path
        )
    if payload_records == 0:
        # A summary over nothing is a broken export, not a quiet run:
        # every instrumented run records at least its invocation spans.
        raise JsonlInputError(
            "JSONL input %s has no series or span records — the export is "
            "empty; re-run the report" % path
        )
    return summary, run_info


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render the dashboard of a repro.obs JSONL artefact.",
    )
    parser.add_argument(
        "--input", required=True, metavar="PATH",
        help="JSONL artefact from python -m repro.bench report or slo",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary JSON instead of the dashboard",
    )
    args = parser.parse_args(argv)
    try:
        summary, run_info = load_summary(args.input)
    except JsonlInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {"run": run_info or {}, "summary": summary}, sort_keys=True, indent=2
        ))
    else:
        print(render_dashboard(summary, run_info=run_info))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
