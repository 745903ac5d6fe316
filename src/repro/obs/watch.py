"""``python -m repro.obs.watch`` — replay a JSONL export as a live dashboard.

The JSONL artefact written by ``python -m repro.bench slo`` carries
the full ring-buffered time series and every SLO alert; this CLI turns
that into a scrolling terminal dashboard, replaying the run tick by
tick as if the telemetry were arriving live.  Each frame redraws the
sparkline block grown up to the current simulated time, the in-flight
invocation backlog, and the alert board (pending → FIRING → resolved),
so a crash drill reads the way it would on a real pager rotation:
curves flatline, the backlog climbs, the availability page fires, the
membership heals, the alert resolves.

Usage::

    PYTHONPATH=src python -m repro.obs.watch --replay report.jsonl [--frames N]

Frames are printed one after another, separated by a rule, with no
terminal control codes and no delay: the output is deterministic.
"""

import argparse
import sys

from repro.obs.export import (
    _PREVIEW_FAMILIES,
    JsonlInputError,
    family_curve,
    family_sites,
    read_jsonl,
)
from repro.obs.series import Series, sparkline

#: sparkline width in glyphs, as in the report dashboard
WIDTH = 48


class ReplaySampler:
    """A read-only stand-in for :class:`~repro.obs.series.SeriesSampler`
    rebuilt from JSONL ``series`` records — just enough surface
    (``times``, ``period``, ``dropped_ticks``, :meth:`family`) for
    :func:`~repro.obs.export.family_curve` to run unchanged."""

    def __init__(self, series_list, period):
        self._series = list(series_list)
        self.period = period
        ticks = set()
        for series in self._series:
            for point in series.points:
                ticks.add(point[0])
        self.times = sorted(ticks)
        self.dropped_ticks = max(
            (series.dropped for series in self._series), default=0
        )

    def family(self, name):
        return [series for series in self._series if series.name == name]

    def truncated(self, until):
        """A copy holding only points at or before ``until`` — one
        replay frame's worth of history."""
        clipped = []
        for series in self._series:
            copy = Series(series.name, series.kind, series.labels,
                          series.max_points)
            copy.dropped = series.dropped
            for point in series.points:
                if point[0] <= until:
                    copy.points.append(point)
            clipped.append(copy)
        return ReplaySampler(clipped, self.period)


def load_replay(path):
    """Parse a report JSONL artefact into ``(sampler, alerts, run_info)``."""
    series_list = []
    alerts = []
    run_info = None
    period = None
    for index, record in enumerate(read_jsonl(path), start=1):
        kind = record.get("record")
        if kind == "series":
            period = record.get("period", period)
            try:
                series_list.append(Series.from_dict(record))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise JsonlInputError(
                    "JSONL input %s: line %d is not a well-formed series record "
                    "(%s: %s)" % (path, index, type(exc).__name__, exc)
                )
        elif kind == "alert":
            alerts.append(record)
        elif kind == "run":
            run_info = {k: v for k, v in record.items() if k != "record"}
    if not series_list:
        raise JsonlInputError(
            "JSONL input %s has no series records — re-run the report with "
            "series sampling (e.g. --slo)" % path
        )
    alerts.sort(key=lambda a: (a["fired_at"], a["slo"], a["severity"]))
    sampler = ReplaySampler(series_list, period or 0.0)
    if not sampler.times:
        # Series records with zero sample points would "replay" zero
        # frames and exit clean — surface the broken export instead.
        raise JsonlInputError(
            "JSONL input %s has series records but no sample points — "
            "the export is empty; re-run the report" % path
        )
    return sampler, alerts, run_info


def _alert_board(alerts, now):
    """Alert lines for one frame: FIRING while active, resolved after."""
    rows = []
    for alert in alerts:
        if alert["fired_at"] > now:
            continue
        resolved_at = alert.get("resolved_at")
        if resolved_at is not None and resolved_at <= now:
            state = "resolved t=%.3f" % resolved_at
        else:
            state = "FIRING"
        rows.append("  [%-6s] %-24s fired t=%.3f  %s" % (
            alert["severity"], alert["slo"], alert["fired_at"], state,
        ))
    return rows


def render_frame(sampler, alerts, now, run_info=None):
    """One dashboard frame: the run replayed up to simulated time ``now``."""
    frame = sampler.truncated(now)
    lines = []
    add = lines.append
    add("Immune system telemetry replay   t=%8.3f s" % now)
    if run_info:
        add("  " + "  ".join(
            "%s=%s" % (k, run_info[k]) for k in sorted(run_info)
        ))
    add("")
    for name, mode in _PREVIEW_FAMILIES:
        curve = family_curve(frame, name, mode)
        if not curve:
            continue
        label = "%s (%s)" % (name, mode)
        add("  %-32s %s" % (label, sparkline(curve, width=WIDTH) or " "))
        add("  %-32s last %.4g" % ("", curve[-1]))
        # Federation exports carry site= labels: one sub-row per site,
        # so a partitioned or compromised site flatlines visibly.
        for site in family_sites(frame, name):
            site_curve = family_curve(frame, name, mode, site=site)
            if not site_curve or not any(site_curve):
                continue
            add("  %-32s %s" % (
                "  site=%s" % site, sparkline(site_curve, width=WIDTH) or " "))
    add("")
    board = _alert_board(alerts, now)
    firing = sum(1 for row in board if row.endswith("FIRING"))
    add("Alerts (%d fired, %d firing now):" % (len(board), firing))
    lines.extend(board or ["  (none yet)"])
    return "\n".join(lines)


def replay_frames(sampler, alerts, run_info=None, frames=None):
    """Yield ``(now, text)`` dashboard frames over the sampled ticks.

    ``frames`` caps the count by striding evenly across the ticks (the
    final tick is always included, so the last frame is the full run).
    """
    ticks = sampler.times
    if not ticks:
        return
    if frames is not None and frames > 0 and len(ticks) > frames:
        stride = (len(ticks) - 1) / float(frames - 1) if frames > 1 else None
        if stride is None:
            ticks = [ticks[-1]]
        else:
            ticks = sorted({ticks[int(round(i * stride))]
                            for i in range(frames)})
    for now in ticks:
        yield now, render_frame(sampler, alerts, now, run_info=run_info)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Replay a repro.obs JSONL artefact as a scrolling "
                    "terminal dashboard.",
    )
    parser.add_argument(
        "--replay", required=True, metavar="PATH",
        help="JSONL artefact from python -m repro.bench slo (or report)",
    )
    parser.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="cap the replay to N evenly-strided frames (default: every tick)",
    )
    args = parser.parse_args(argv)

    try:
        sampler, alerts, run_info = load_replay(args.replay)
    except JsonlInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    count = 0
    for _now, frame in replay_frames(
        sampler, alerts, run_info=run_info, frames=args.frames
    ):
        if count:
            print("-" * 72)
        print(frame)
        count += 1
    print("replayed %d frame(s) from %s" % (count, args.replay))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
