"""The token history keeps exactly the visits the two-step rule keeps.

A processor holds the bytes of recent token visits in ``_visits`` and
sweeps everything more than one window below the newest chain head;
``_history_low`` is the watermark the table holds no key under.  The
rule is written here from its two-step statement, with nothing
imported from the delivery module:

* *harvest*: holding a visit's bytes lowers the watermark to the visit
  if it lies below, then stores the visit;
* *prune*: a new chain head ``newest`` sweeps ``[low, newest - 64)``
  and raises the watermark to ``newest - 64``, when that range is not
  empty.

A Hypothesis property drives one protocol per ring kind (tokens that
are only digested, and unsigned batch-ring tokens) with generated
receipts — fresh chain heads, duplicates, missed visits inside the
window and below it, and jumps far ahead — and after every step
compares the table's keys and the watermark with the model's.
"""

from hypothesis import example, given, settings, strategies as st

from repro.multicast.config import SecurityLevel
from tests.unit.test_delivery_batch import BatchHarness
from tests.unit.test_delivery_protocol import Harness

WINDOW = 64


class HistoryModel:
    """The two-step rule: which visits are held, and the watermark."""

    def __init__(self):
        self.held = set()
        self.low = 0
        self.newest = None

    def harvest(self, visit):
        if visit < self.low:
            self.low = visit
        self.held.add(visit)

    def prune(self, newest):
        floor = newest - WINDOW
        if floor > self.low:
            self.held = {v for v in self.held if not self.low <= v < floor}
            self.low = floor

    def receive(self, visit):
        """A token for ``visit`` arrives with the bytes every copy of it has."""
        if visit in self.held:
            return  # a duplicate: nothing changes
        if self.newest is not None and visit <= self.newest:
            self.harvest(visit)  # a missed visit, absorbed below the chain head
            return
        self.harvest(visit)
        self.prune(visit)
        self.newest = visit


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("fresh"), st.integers(1, 3)),
        st.tuples(st.just("duplicate"), st.integers(0, 70)),
        st.tuples(st.just("missed"), st.integers(0, WINDOW - 1)),
        st.tuples(st.just("below"), st.integers(WINDOW, 3 * WINDOW)),
        st.tuples(st.just("ahead"), st.integers(WINDOW + 1, 4 * WINDOW)),
    ),
    max_size=40,
)


def _harness(kind):
    if kind == "batch":
        return BatchHarness()
    return Harness(security=SecurityLevel.DIGESTS)


def _visit_for(step, model):
    """The visit a step's token is for, relative to the model's chain head."""
    kind, offset = step
    newest = model.newest or 0
    if kind in ("fresh", "ahead"):
        return newest + offset
    if kind == "duplicate":
        held = sorted(model.held)
        return held[offset % len(held)] if held else newest + 1
    return max(1, newest - offset)


def _drive(kind, steps):
    h = _harness(kind)
    model = HistoryModel()
    for step in steps:
        visit = _visit_for(step, model)
        # Every copy of a visit's token carries the same bytes: its holder
        # is fixed by the visit, its fields by nothing else.
        h.feed_token(visit % 3, visit=visit, seq=0)
        model.receive(visit)
        protocol = h.protocol
        assert sorted(protocol._visits) == sorted(model.held), step
        assert protocol._history_low == model.low, step


@given(steps=_steps)
@settings(max_examples=80, deadline=None)
# A missed visit below the window lowers the watermark, and the next
# chain head sweeps from there: it and the window's old bottom go.
@example(steps=[("ahead", 100), ("below", 80), ("fresh", 1), ("fresh", 1)])
# A jump far ahead sweeps a whole window at once.
@example(steps=[("fresh", 1), ("fresh", 2), ("ahead", 200), ("missed", 3)])
def test_the_history_keeps_what_harvest_then_prune_keeps(steps):
    for kind in ("digests", "batch"):
        _drive(kind, steps)
