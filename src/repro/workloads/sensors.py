"""Sensor fusion — a command-and-control style workload.

The paper's introduction motivates survivability for critical
distributed applications; a classic instance is a fusion service that
aggregates sensor reports and answers track queries.  Sensor feeds are
replicated client objects (one-way reports exercise input voting at
high rates); the fusion centre is a replicated server whose query
answers exercise output voting.  A corrupted fusion replica reporting a
bogus track is outvoted; a corrupted sensor replica is outvoted by its
peers within the same sensor group.
"""

from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.orb.schema import Schema

FUSION_IDL = InterfaceDef(
    "FusionCentre",
    [
        OperationDef(
            "report",
            [
                ParamDef("sensor", "string"),
                ParamDef("track_id", "ulong"),
                ParamDef("x_mm", "long"),
                ParamDef("y_mm", "long"),
            ],
            oneway=True,
        ),
        OperationDef(
            "track_position",
            [ParamDef("track_id", "ulong")],
            result=("struct", (("x_mm", "long"), ("y_mm", "long"), ("reports", "ulong"))),
        ),
        OperationDef("track_count", [], result="ulong"),
    ],
)

#: the fusion servant's checkpoint: each track's running sums, by track
_TRACK = (
    "record",
    (("track", "ulong"), ("sum_x", "longlong"), ("sum_y", "longlong"), ("count", "ulong")),
)
_STATE = Schema(("tracks", ("sequence", _TRACK)))


class FusionServant:
    """Deterministic running-average fusion of track reports."""

    def __init__(self):
        self._tracks = {}

    def report(self, sensor, track_id, x_mm, y_mm):
        sum_x, sum_y, count = self._tracks.get(track_id, (0, 0, 0))
        self._tracks[track_id] = (sum_x + x_mm, sum_y + y_mm, count + 1)

    def track_position(self, track_id):
        sum_x, sum_y, count = self._tracks.get(track_id, (0, 0, 0))
        if count == 0:
            return {"x_mm": 0, "y_mm": 0, "reports": 0}
        return {"x_mm": sum_x // count, "y_mm": sum_y // count, "reports": count}

    def track_count(self):
        return len(self._tracks)

    # checkpointing for reallocation
    def get_state(self):
        return _STATE.pack(([(t, *sums) for t, sums in sorted(self._tracks.items())],))

    def set_state(self, state):
        (tracks,) = _STATE.unpack(state)
        self._tracks = {t: (sx, sy, c) for t, sx, sy, c in tracks}


def scripted_track(track_id, steps, stride_mm=250):
    """A deterministic straight-line trajectory for test scripts."""
    return [
        (track_id, 1000 + step * stride_mm, 2000 + step * stride_mm // 2)
        for step in range(steps)
    ]
