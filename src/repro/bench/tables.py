"""Table 1 fault drills: every fault class, injected and handled.

Table 1 of the paper is the system's contract: for each fault class it
names the mechanisms that cope with it.  Each drill here builds a full
deployment (three-way replicated counter service, three-way replicated
client, six or seven processors, full survivability), injects exactly
one fault class, and checks both that the *service stayed correct* and
that the *named mechanism visibly engaged* (retransmissions counted,
digests discarded, suspicions raised, memberships installed, votes
outvoted...).

The Table 1 bench (``benchmarks/test_table1_faults.py``) runs every
drill of :data:`ALL_DRILLS` and asserts each one.
"""

from dataclasses import replace

from repro.bench.build import Scenario, build
from repro.workloads.open_loop import OpenLoopDriver

#: The common deployment: the three-way tally service, its three-way
#: client, six processors, full survivability.
DRILL = Scenario(seed=13, service="tally")


class DrillResult:
    """Outcome of one Table 1 drill."""

    def __init__(self, classification, fault, mechanisms, handled, evidence):
        self.classification = classification
        self.fault = fault
        self.mechanisms = mechanisms
        self.handled = handled
        self.evidence = evidence


def _drill(seed, tail, *faults):
    """The built deployment of one drill: :data:`DRILL` at ``seed`` with
    ``faults``, run until ``tail`` by :meth:`~repro.bench.build.Built.run`."""
    return build(replace(DRILL, seed=seed, faults=faults, tail=tail))


def send_bumps(drill, start, count, spacing=0.02, prefix="op"):
    tags = ["%s-%d" % (prefix, k) for k in range(count)]
    OpenLoopDriver(
        drill.system, drill.stubs,
        lambda stub, k, _reply: stub.bump(tags[k]), "drill.workload",
    ).run(start, count, spacing)
    return tags


def surviving_server_tags(drill):
    out = {}
    for pid, servant in drill.server.servants.items():
        if not drill.system.processors[pid].crashed:
            inner = getattr(servant, "_inner", servant)
            out[pid] = list(inner.tags)
    return out


def _consistent(tags_by_pid, expected):
    values = list(tags_by_pid.values())
    return bool(values) and all(v == expected for v in values)


# ----------------------------------------------------------------------
# communication faults
# ----------------------------------------------------------------------

def drill_message_loss(seed=13):
    drill = _drill(seed, 6.0, ("loss", 0.25, 0.0, 2.0))
    expected = send_bumps(drill, 0.3, 12)
    tags = surviving_server_tags(drill.run())
    retransmits = sum(
        e.delivery.stats["retransmits"] for e in drill.system.endpoints.values()
    )
    handled = _consistent(tags, expected) and retransmits > 0
    return DrillResult(
        "communication",
        "message loss",
        "reliable delivery, message retransmission",
        handled,
        "25%% loss for 2s; %d retransmissions; all replicas consistent" % retransmits,
    )


def drill_message_corruption(seed=13):
    drill = _drill(seed, 6.0, ("corruption", 0.15, 0.0, 2.0))
    expected = send_bumps(drill, 0.3, 12)
    tags = surviving_server_tags(drill.run())
    discards = sum(
        e.delivery.stats["digest_discards"] for e in drill.system.endpoints.values()
    )
    corrupted = drill.system.network.stats["corrupted"]
    handled = _consistent(tags, expected) and corrupted > 0
    return DrillResult(
        "communication",
        "message corruption",
        "message digest in token, message retransmission",
        handled,
        "%d frames corrupted in transit, %d digest discards; all replicas consistent"
        % (corrupted, discards),
    )


# ----------------------------------------------------------------------
# processor faults
# ----------------------------------------------------------------------

def drill_processor_crash(seed=13):
    drill = _drill(seed, 8.0, ("crash", 1, 0.8))
    expected = send_bumps(drill, 0.3, 6, prefix="pre")
    expected += send_bumps(drill, 3.5, 6, prefix="post")
    tags = surviving_server_tags(drill.run())
    members = drill.system.surviving_members()
    group = drill.system.group_members("tally")
    handled = (
        _consistent(tags, expected)
        and 1 not in members
        and group == (0, 2)
    )
    return DrillResult(
        "processor",
        "processor crash",
        "processor membership, object group membership, replicas on other processors",
        handled,
        "P1 crashed at t=0.8; membership=%s, tally group=%s; service continued"
        % (list(members), list(group)),
    )


def drill_receive_omission(seed=13):
    drill = _drill(seed, 12.0, ("receive_omission", 1, 0.3))
    expected = send_bumps(drill, 0.4, 8, prefix="pre")
    members = drill.run().system.surviving_members()
    tags = {pid: t for pid, t in surviving_server_tags(drill).items() if pid != 1}
    handled = 1 not in members and _consistent(tags, expected)
    return DrillResult(
        "processor",
        "failure to receive (receive omission)",
        "processor membership, object group membership, replicas on other processors",
        handled,
        "P1 stopped receiving messages; eventually excluded (membership=%s)"
        % (list(members),),
    )


def drill_fail_to_send(seed=13):
    drill = _drill(seed, 12.0, ("silent", 4, 0.5))
    expected = send_bumps(drill, 0.1, 4, prefix="pre")
    members = drill.run().system.surviving_members()
    tags = surviving_server_tags(drill)
    handled = 4 not in members and _consistent(tags, expected)
    return DrillResult(
        "processor",
        "failure to send (swallowed token)",
        "processor membership (fail-to-send timeout)",
        handled,
        "P4 swallowed the token from t=0.5; excluded (membership=%s)"
        % (list(members),),
    )


def drill_mutant_tokens(seed=13):
    drill = _drill(seed, 12.0, ("mutant_token", 2, 0.5))
    expected = send_bumps(drill, 0.1, 4, prefix="pre")
    members = drill.run().system.surviving_members()
    suspects = {
        pid: drill.system.endpoints[pid].detector.reasons_for(2)
        for pid in members
    }
    mutant_seen = any("mutant_token" in reasons for reasons in suspects.values())
    tags = {pid: t for pid, t in surviving_server_tags(drill).items() if pid != 2}
    handled = 2 not in members and mutant_seen and _consistent(tags, expected)
    return DrillResult(
        "processor",
        "malicious: mutant tokens (equivocation)",
        "signature in token, previous token digest, checking mechanisms",
        handled,
        "P2 sent two signed tokens for one visit; provably suspected and excluded "
        "(membership=%s)" % (list(members),),
    )


def drill_masquerade(seed=13):
    drill = _drill(seed, 6.0, ("masquerade", 4, 0.5, 0, "FORGED"))
    expected = send_bumps(drill, 0.1, 4, prefix="pre")
    tags = surviving_server_tags(drill.run())
    forged_delivered = any(
        "FORGED" in str(t) for t in tags.values()
    )
    handled = not forged_delivered and _consistent(tags, expected)
    return DrillResult(
        "processor",
        "malicious: masquerade as another processor",
        "message digests in signed token (forged message never matches)",
        handled,
        "P4 injected a message claiming P0 sent it; never delivered anywhere",
    )


def drill_malformed_token(seed=13):
    drill = _drill(seed, 12.0, ("malformed_token", 5, 0.5))
    expected = send_bumps(drill, 0.1, 4, prefix="pre")
    members = drill.run().system.surviving_members()
    tags = surviving_server_tags(drill)
    handled = 5 not in members and _consistent(tags, expected)
    return DrillResult(
        "processor",
        "malicious: improperly formed token",
        "token-form checking in the Byzantine fault detector",
        handled,
        "P5 sent a signed but malformed token; suspected and excluded "
        "(membership=%s)" % (list(members),),
    )


# ----------------------------------------------------------------------
# object replica faults
# ----------------------------------------------------------------------

def drill_replica_crash(seed=13):
    drill = _drill(seed, 6.0, ("replica_crash", 1, 1.2))
    expected = send_bumps(drill, 0.3, 4, prefix="pre")
    expected += send_bumps(drill, 2.5, 4, prefix="post")
    group = drill.run().system.group_members("tally")
    tags = {pid: t for pid, t in surviving_server_tags(drill).items() if pid != 1}
    handled = group == (0, 2) and _consistent(tags, expected)
    return DrillResult(
        "object replica",
        "replica crash",
        "object group membership, replicas on other processors",
        handled,
        "tally replica on P1 crashed (processor stayed up); group=%s; "
        "remaining replicas consistent" % (list(group),),
    )


def drill_send_omission(seed=13):
    drill = _drill(seed, 6.0, ("send_omission", 3, 0.2))
    expected = send_bumps(drill, 0.3, 8)
    tags = surviving_server_tags(drill.run())
    handled = _consistent(tags, expected)
    return DrillResult(
        "object replica",
        "send omission (client replica stops sending)",
        "majority voting on all invocations and responses",
        handled,
        "client replica on P3 sent nothing; vote completed from the other "
        "two replicas' copies",
    )


def drill_client_value_fault(seed=13):
    drill = _drill(seed, 12.0, ("client_corrupt", 3, 2))
    expected = send_bumps(drill, 0.3, 8)
    members = drill.run().system.surviving_members()
    tags = surviving_server_tags(drill)
    handled = 3 not in members and _consistent(tags, expected)
    return DrillResult(
        "object replica",
        "value fault (corrupt client invocation)",
        "majority voting on invocations, value fault detection",
        handled,
        "client replica on P3 corrupted its invocations; outvoted, attributed, "
        "and P3 excluded (membership=%s)" % (list(members),),
    )


def drill_server_value_fault(seed=13):
    drill = _drill(seed, 12.0, ("value_fault", 2, 0, "total"))
    results = []

    def query():
        for pid, stub in drill.stubs:
            if not drill.system.processors[pid].crashed:
                stub.total(reply_to=results.append)

    send_bumps(drill, 0.3, 3)
    drill.system.scheduler.at(1.5, query, label="drill.query")
    members = drill.run().system.surviving_members()
    handled = (
        bool(results)
        and all(r == 3 for r in results)
        and 2 not in members
    )
    return DrillResult(
        "object replica",
        "value fault (corrupt server response)",
        "majority voting on responses, value fault detection",
        handled,
        "server replica on P2 answered %s-corrupted totals; clients saw the "
        "voted value 3; P2 excluded (membership=%s)" % ("+666", list(members)),
    )


ALL_DRILLS = (
    drill_message_loss,
    drill_message_corruption,
    drill_processor_crash,
    drill_receive_omission,
    drill_fail_to_send,
    drill_mutant_tokens,
    drill_masquerade,
    drill_malformed_token,
    drill_replica_crash,
    drill_send_omission,
    drill_client_value_fault,
    drill_server_value_fault,
)

