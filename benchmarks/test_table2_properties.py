"""Table 2: message delivery protocol properties, checked on histories.

Runs the delivery protocol under loss, corruption, and clean conditions
and asserts the Table 2 properties (integrity, authentication via the
uniqueness of contents, reliable delivery, total order) over the full
recorded history.
"""

from repro.bench.properties import delivery_violations
from repro.sim.faults import FaultPlan, LinkFaults
from tests.support import MulticastWorld


def run_history(seed, loss, corrupt, num=4, count=20):
    plan = FaultPlan(
        default=LinkFaults(loss_prob=loss, corrupt_prob=corrupt), active_until=1.5
    )
    world = MulticastWorld(num=num, fault_plan=plan, seed=seed).start()
    for i in range(count):
        sender = i % num
        world.scheduler.at(
            0.1 + 0.03 * i, world.endpoints[sender].multicast, "g", b"m%03d" % i
        )
    world.run(until=7.0)
    return world


def test_table2_under_loss_and_corruption(benchmark, show):
    """Seed 21 puts ``m019`` above the cut (18) of the reconfiguration a
    transient ``fail_to_send`` suspicion of P3 starts at t=1.176; its
    originator sends it again on ring 4, so all 20 are delivered."""
    world = benchmark.pedantic(
        lambda: run_history(seed=21, loss=0.15, corrupt=0.1), rounds=1, iterations=1
    )
    correct = set(range(4))
    violations = delivery_violations(world.trace, correct)
    delivered = [len(world.delivered[p]) for p in range(4)]
    show(
        "\nTable 2 (loss=15%%, corruption=10%%): delivered per processor %s, "
        "%d retransmissions, %d digest discards, violations=%s"
        % (
            delivered,
            sum(e.delivery.stats["retransmits"] for e in world.endpoints.values()),
            sum(e.delivery.stats["digest_discards"] for e in world.endpoints.values()),
            violations,
        )
    )
    assert violations == []
    assert all(d == 20 for d in delivered)


def test_table2_property_names(show):
    """Document the property-to-check mapping (one line per Table 2 row)."""
    rows = [
        ("Integrity", "every correct processor delivers each message at most once"),
        ("Authentication", "delivered contents come from the authenticated originator"),
        ("Uniqueness", "no two correct processors deliver different contents for one seq"),
        ("Reliable Delivery", "same membership history => same delivered set"),
        ("Total Order", "all correct processors deliver in the same seq order"),
    ]
    show("\nTable 2 properties checked by delivery_violations():")
    for name, meaning in rows:
        show("  %-18s %s" % (name, meaning))
