"""Table 1 fault drills: every fault class, injected and handled.

Table 1 of the paper is the system's contract: for each fault class it
names the mechanisms that cope with it.  Each row of :data:`ROWS` is one
drill, as data: the deployment :data:`DRILL` (three-way replicated
tally service, three-way replicated client, six processors, full
survivability) with exactly one fault class injected, the invocations
sent into it, and a check that both the *service stayed correct* and
the *named mechanism visibly engaged* (retransmissions counted, digests
discarded, suspicions raised, memberships installed, votes
outvoted...).

The Table 1 bench (``benchmarks/test_table1_faults.py``) runs every row
through :func:`run` and asserts each one.
"""

from collections import namedtuple
from dataclasses import replace

from repro.bench.build import Scenario, build
from repro.workloads.open_loop import OpenLoopDriver

#: The common deployment: the three-way tally service, its three-way
#: client, six processors, full survivability.
DRILL = Scenario(seed=13, service="tally")

#: One Table 1 row.  ``faults`` are :class:`~repro.bench.build.Scenario`
#: fault tuples and the run ends at ``tail``.  A burst ``(start, count,
#: prefix)`` bumps the tally ``count`` times, 20 ms apart from
#: ``start``, with the tags ``prefix-0 ..`` (without a prefix it asks
#: for the total instead).  ``check(built, expected, totals)`` gets the
#: tags every server replica should hold and the totals replied, and
#: returns ``(handled, evidence)``.
Row = namedtuple("Row", "classification fault mechanisms faults tail bursts check")

#: Outcome of one Table 1 drill.
DrillResult = namedtuple(
    "DrillResult", "classification fault mechanisms handled evidence"
)


def run(row):
    """Drill ``row``: its :class:`DrillResult`."""
    built = build(replace(DRILL, faults=row.faults, tail=row.tail))
    expected, drivers = [], []
    for start, count, prefix in row.bursts:
        if prefix is None:
            invoke = _ask_total
        else:
            tags = ["%s-%d" % (prefix, k) for k in range(count)]
            expected += tags
            invoke = _bumps(tags)
        driver = OpenLoopDriver(built.system, built.stubs, invoke, "drill.workload")
        drivers.append(driver.run(start, count, 0.02))
    built.run()
    totals = [value for driver in drivers for _k, _pid, value, _latency in driver.replies]
    handled, evidence = row.check(built, expected, totals)
    return DrillResult(row.classification, row.fault, row.mechanisms, handled, evidence)


def _bumps(tags):
    return lambda stub, k, _reply: stub.bump(tags[k])


def _ask_total(stub, _k, reply):
    stub.total(reply_to=reply)


def _agree(built, expected, *skip):
    """Every server replica on a live processor but the ``skip`` ones
    holds the ``expected`` tags, and there is one."""
    held = [
        list(getattr(servant, "_inner", servant).tags)
        for pid, servant in built.server.servants.items()
        if pid not in skip and not built.system.processors[pid].crashed
    ]
    return bool(held) and all(tags == expected for tags in held)


def _stat(built, key):
    return sum(e.delivery.stats[key] for e in built.system.endpoints.values())


def _agreed(evidence):
    """Handled when every live server replica holds the expected tags
    (which no forged or corrupted invocation is among)."""
    return lambda built, expected, _totals: (_agree(built, expected), evidence)


def _excluded(pid, evidence):
    """Handled when P``pid`` is out of the membership and every other
    live server replica holds the expected tags; ``evidence`` formats
    the membership."""

    def check(built, expected, _totals):
        members = built.system.surviving_members()
        return (
            pid not in members and _agree(built, expected, pid),
            evidence % (list(members),),
        )

    return check


def _loss(built, expected, _totals):
    retransmits = _stat(built, "retransmits")
    return (
        _agree(built, expected) and retransmits > 0,
        "25%% loss for 2s; %d retransmissions; all replicas consistent" % retransmits,
    )


def _corruption(built, expected, _totals):
    corrupted = built.system.network.stats["corrupted"]
    return (
        _agree(built, expected) and corrupted > 0,
        "%d frames corrupted in transit, %d digest discards; all replicas consistent"
        % (corrupted, _stat(built, "digest_discards")),
    )


def _crash(built, expected, _totals):
    members = built.system.surviving_members()
    group = built.system.group_members("tally")
    return (
        _agree(built, expected) and 1 not in members and group == (0, 2),
        "P1 crashed at t=0.8; membership=%s, tally group=%s; service continued"
        % (list(members), list(group)),
    )


def _mutant(built, expected, _totals):
    members = built.system.surviving_members()
    endpoints = built.system.endpoints
    seen = any("mutant_token" in endpoints[pid].detector.reasons_for(2) for pid in members)
    return (
        2 not in members and seen and _agree(built, expected, 2),
        "P2 sent two signed tokens for one visit; provably suspected and excluded "
        "(membership=%s)" % (list(members),),
    )


def _replica_crash(built, expected, _totals):
    group = built.system.group_members("tally")
    return (
        group == (0, 2) and _agree(built, expected, 1),
        "tally replica on P1 crashed (processor stayed up); group=%s; "
        "remaining replicas consistent" % (list(group),),
    )


def _server_value_fault(built, _expected, totals):
    members = built.system.surviving_members()
    return (
        bool(totals) and all(total == 3 for total in totals) and 2 not in members,
        "server replica on P2 answered +666-corrupted totals; clients saw the "
        "voted value 3; P2 excluded (membership=%s)" % (list(members),),
    )


_SURVIVE = "processor membership, object group membership, replicas on other processors"

#: Table 1, by row id.
ROWS = {
    # communication faults
    "message_loss": Row(
        "communication", "message loss", "reliable delivery, message retransmission",
        (("loss", 0.25, 0.0, 2.0),), 6.0, ((0.3, 12, "op"),), _loss,
    ),
    "message_corruption": Row(
        "communication", "message corruption",
        "message digest in token, message retransmission",
        (("corruption", 0.15, 0.0, 2.0),), 6.0, ((0.3, 12, "op"),), _corruption,
    ),
    # processor faults
    "processor_crash": Row(
        "processor", "processor crash", _SURVIVE,
        (("crash", 1, 0.8),), 8.0, ((0.3, 6, "pre"), (3.5, 6, "post")), _crash,
    ),
    "receive_omission": Row(
        "processor", "failure to receive (receive omission)", _SURVIVE,
        (("receive_omission", 1, 0.3),), 12.0, ((0.4, 8, "pre"),),
        _excluded(1, "P1 stopped receiving messages; eventually excluded (membership=%s)"),
    ),
    "fail_to_send": Row(
        "processor", "failure to send (swallowed token)",
        "processor membership (fail-to-send timeout)",
        (("silent", 4, 0.5),), 12.0, ((0.1, 4, "pre"),),
        _excluded(4, "P4 swallowed the token from t=0.5; excluded (membership=%s)"),
    ),
    "mutant_tokens": Row(
        "processor", "malicious: mutant tokens (equivocation)",
        "signature in token, previous token digest, checking mechanisms",
        (("mutant_token", 2, 0.5),), 12.0, ((0.1, 4, "pre"),), _mutant,
    ),
    "masquerade": Row(
        "processor", "malicious: masquerade as another processor",
        "message digests in signed token (forged message never matches)",
        (("masquerade", 4, 0.5, 0, "FORGED"),), 6.0, ((0.1, 4, "pre"),),
        _agreed("P4 injected a message claiming P0 sent it; never delivered anywhere"),
    ),
    "malformed_token": Row(
        "processor", "malicious: improperly formed token",
        "token-form checking in the Byzantine fault detector",
        (("malformed_token", 5, 0.5),), 12.0, ((0.1, 4, "pre"),),
        _excluded(5, "P5 sent a signed but malformed token; suspected and excluded "
                     "(membership=%s)"),
    ),
    # object replica faults
    "replica_crash": Row(
        "object replica", "replica crash",
        "object group membership, replicas on other processors",
        (("replica_crash", 1, 1.2),), 6.0, ((0.3, 4, "pre"), (2.5, 4, "post")),
        _replica_crash,
    ),
    "send_omission": Row(
        "object replica", "send omission (client replica stops sending)",
        "majority voting on all invocations and responses",
        (("send_omission", 3, 0.2),), 6.0, ((0.3, 8, "op"),),
        _agreed("client replica on P3 sent nothing; vote completed from the other "
                "two replicas' copies"),
    ),
    "client_value_fault": Row(
        "object replica", "value fault (corrupt client invocation)",
        "majority voting on invocations, value fault detection",
        (("client_corrupt", 3, 2),), 12.0, ((0.3, 8, "op"),),
        _excluded(3, "client replica on P3 corrupted its invocations; outvoted, "
                     "attributed, and P3 excluded (membership=%s)"),
    ),
    "server_value_fault": Row(
        "object replica", "value fault (corrupt server response)",
        "majority voting on responses, value fault detection",
        (("value_fault", 2, 0, "total"),), 12.0, ((0.3, 3, "op"), (1.5, 1, None)),
        _server_value_fault,
    ),
}
