"""Property: a flight recorder's ring of columns keeps exactly what a
deque of row tuples would.

:class:`DequeRecorder` is the straightforward recorder — one
``(index, time, ring, seq, shard, etype, fields)`` tuple per record in
one deque per retention class, the oldest popped once a deque outgrows
the capacity.  Hypothesis drives it and a real
:class:`~repro.obs.forensics.FlightRecorder` through the same history
(keyword and dict records of routine and notable kinds, context and
clock changes between them) and every read must agree: the events with
every attribute and field, ``len``, the drop counter and window, and
``to_dict()``.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.obs.forensics import ROUTINE_KINDS, ForensicEvent, ForensicsHub

ROUTINE = sorted(ROUTINE_KINDS)[:3]
NOTABLE = ["suspect", "membership_install", "vote_divergence"]


class Clock:
    now = 0.0


class DequeRecorder:
    """The model: rows as tuples in two deques."""

    def __init__(self, proc_id, clock, capacity):
        self.proc_id = proc_id
        self.capacity = capacity
        self.clock = clock
        self.rows = {True: deque(), False: deque()}
        self.recorded = 0
        self.dropped = 0
        self.first_dropped_time = None
        self.last_dropped_time = None
        self.ring = self.seq = self.shard = 0

    def record_fields(self, etype, fields):
        rows = self.rows[etype in ROUTINE_KINDS]
        self.recorded += 1
        rows.append(
            (self.recorded, self.clock.now, self.ring, self.seq, self.shard, etype, fields)
        )
        if len(rows) > self.capacity:
            evicted = rows.popleft()[1]
            self.dropped += 1
            if self.first_dropped_time is None or evicted < self.first_dropped_time:
                self.first_dropped_time = evicted
            if self.last_dropped_time is None or evicted > self.last_dropped_time:
                self.last_dropped_time = evicted

    def __len__(self):
        return sum(len(rows) for rows in self.rows.values())

    @property
    def events(self):
        return [
            ForensicEvent(time, self.proc_id, ring, seq, etype, fields, shard)
            for _, time, ring, seq, shard, etype, fields in sorted(
                [*self.rows[True], *self.rows[False]], key=lambda row: row[0]
            )
        ]

    def to_dict(self):
        return {
            "proc": self.proc_id,
            "capacity": self.capacity,
            "events": len(self),
            "dropped_events": self.dropped,
            "first_dropped_time": self.first_dropped_time,
            "last_dropped_time": self.last_dropped_time,
        }


field_values = st.one_of(st.integers(-5, 1 << 40), st.sampled_from(["a", "b"]), st.none())
field_dicts = st.dictionaries(st.sampled_from(["visit", "suspect", "reason", "seq"]),
                              field_values, max_size=3)
#: a token's seq is a wire ``ulonglong``: the top of its range included
token_seqs = st.one_of(
    st.integers(0, 1 << 40), st.sampled_from([(1 << 63) - 1, 1 << 63, (1 << 64) - 1])
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("clock"), st.floats(0.0, 10.0)),
        st.tuples(st.just("context"), st.integers(0, 3), token_seqs, st.integers(0, 2)),
        st.tuples(st.just("record"), st.sampled_from(ROUTINE + NOTABLE), field_dicts),
        st.tuples(st.just("fields"), st.sampled_from(ROUTINE + NOTABLE), field_dicts),
        st.tuples(st.just("shared"), st.sampled_from(ROUTINE + NOTABLE)),
    ),
    max_size=40,
)


@settings(max_examples=300)
@given(capacity=st.integers(1, 8), history=steps)
def test_the_column_rings_keep_what_a_deque_of_tuples_keeps(capacity, history):
    clock = Clock()
    hub = ForensicsHub(capacity=capacity).bind(clock)
    recorder = hub.recorder(5)
    model = DequeRecorder(5, clock, capacity)
    shared = {"visit": 9, "holder": 1}
    for step in history:
        if step[0] == "clock":
            clock.now = step[1]
        elif step[0] == "context":
            _, ring, seq, shard = step
            recorder.set_context(ring=ring, seq=seq)
            recorder.shard = shard
            model.ring, model.seq, model.shard = ring, seq, shard
        elif step[0] == "record":
            recorder.record(step[1], **step[2])
            model.record_fields(step[1], dict(step[2]))
        elif step[0] == "fields":
            fields = dict(step[2])
            recorder.record_fields(step[1], fields)
            model.record_fields(step[1], fields)
        else:
            recorder.record_fields(step[1], shared)
            model.record_fields(step[1], shared)

    events, expected = recorder.events, model.events
    assert len(recorder) == len(model) == len(events)
    assert [_attributes(e) for e in events] == [_attributes(e) for e in expected]
    assert [e.to_dict() for e in events] == [e.to_dict() for e in expected]
    for event, twin in zip(events, expected):
        if twin.fields is shared:
            assert event.fields is shared
    assert recorder.dropped == model.dropped
    assert recorder.first_dropped_time == model.first_dropped_time
    assert recorder.last_dropped_time == model.last_dropped_time
    assert recorder.to_dict() == model.to_dict()


def _attributes(event):
    """Every attribute of an event, the fields in their recorded order."""
    return (event.time, event.proc, event.ring, event.seq, event.shard, event.etype,
            list(event.fields.items()))
