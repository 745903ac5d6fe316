"""The visit-cost counter (``tools/visit_cost.py``) repeats to the bytecode.

It is run twice over the same seeded four-processor ring, each time from
a fresh world and cold memo tables, and both tables must be the same
text: what it reports is a count, not a timing.
"""

import importlib.util
import os

from repro import perf
from repro.multicast.config import SecurityLevel
from tests.support import MulticastWorld

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SPEC = importlib.util.spec_from_file_location(
    "visit_cost", os.path.join(ROOT, "tools", "visit_cost.py")
)
visit_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(visit_cost)

RECEIPTS = 150
ORIGINATIONS = 50


def _table():
    perf.clear_caches()
    world = MulticastWorld(num=4, security=SecurityLevel.DIGESTS, seed=5).start()
    for i in range(40):
        world.scheduler.at(0.02 + 0.005 * i, world.endpoints[i % 4].multicast, "g", b"m%d" % i)
    world.run(until=0.05)
    scheduler = world.scheduler

    def step():
        executed = scheduler.events_executed
        scheduler.run(until=1.0, max_events=50)
        return scheduler.events_executed > executed

    sampler = visit_cost.sample(step, RECEIPTS, ORIGINATIONS)
    assert sampler.sampled == {"receipt": RECEIPTS, "origination": ORIGINATIONS}
    return sampler.table()


def test_two_runs_print_the_same_counts():
    first = _table()
    assert first == _table()
    lines = first.splitlines()
    assert lines[0].startswith("per token receipt (%d sampled): " % RECEIPTS)
    receipt = lines[: lines.index(next(line for line in lines if line.startswith("per orig")))]
    # Every sampled receipt reached the token handler, once.
    assert any(line.split()[1:] == ["1.00", "DeliveryProtocol.on_token"] for line in receipt)
    assert any(line.endswith("  DeliveryProtocol._originate_token") for line in lines)
