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

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.core.replica import (
    ClientInvocationCorrupter,
    SendOmissionTap,
    ValueFaultServant,
    crash_replica,
)
from repro.multicast.adversary import (
    MalformedTokenBehaviour,
    MasqueradeBehaviour,
    MutantTokenBehaviour,
    ReceiveOmissionBehaviour,
    SilentBehaviour,
)
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan, LinkFaults
from repro.workloads.open_loop import OpenLoopDriver

TALLY_IDL = InterfaceDef(
    "Tally",
    [
        OperationDef("bump", [ParamDef("tag", "string")], oneway=True),
        OperationDef("total", [], result="long"),
    ],
)


class TallyServant:
    def __init__(self):
        self.tags = []

    def bump(self, tag):
        self.tags.append(tag)

    def total(self):
        return len(self.tags)

    def get_state(self):
        return ("\n".join(self.tags)).encode("utf-8")

    def set_state(self, state):
        self.tags = state.decode("utf-8").split("\n") if state else []


class DrillResult:
    """Outcome of one Table 1 drill."""

    def __init__(self, classification, fault, mechanisms, handled, evidence):
        self.classification = classification
        self.fault = fault
        self.mechanisms = mechanisms
        self.handled = handled
        self.evidence = evidence


class _Drill:
    """Common deployment for one fault drill."""

    def __init__(self, seed=13, num_processors=6, fault_plan=None,
                 server_procs=(0, 1, 2), client_procs=(3, 4, 5),
                 servant_factory=None):
        config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed)
        # The drills assert over the trace history, so tracing stays on;
        # the cap merely bounds memory if a drill is run much longer.
        self.immune = ImmuneSystem(
            num_processors=num_processors,
            config=config,
            fault_plan=fault_plan,
            trace_max_records=200_000,
        )
        self.servants = {}

        def default_factory(pid):
            servant = TallyServant()
            self.servants[pid] = servant
            return servant

        factory = servant_factory or default_factory
        self.server = self.immune.deploy("tally", TALLY_IDL, factory, list(server_procs))
        self.client = self.immune.deploy_client("driver", list(client_procs))
        self.immune.start()
        self.stubs = self.immune.client_stubs(self.client, TALLY_IDL, self.server)

    def send_bumps(self, start, count, spacing=0.02, prefix="op"):
        tags = ["%s-%d" % (prefix, k) for k in range(count)]
        OpenLoopDriver(
            self.immune, self.stubs,
            lambda stub, k, _reply: stub.bump(tags[k]), "drill.workload",
        ).run(start, count, spacing)
        return tags

    def run(self, until):
        self.immune.run(until=until)
        return self

    def surviving_server_tags(self):
        out = {}
        for pid, servant in self.servants.items():
            if not self.immune.processors[pid].crashed:
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
    plan = FaultPlan(
        default=LinkFaults(loss_prob=0.25), active_from=0.0, active_until=2.0
    )
    drill = _Drill(seed=seed, fault_plan=plan)
    expected = drill.send_bumps(0.3, 12)
    drill.run(until=6.0)
    tags = drill.surviving_server_tags()
    retransmits = sum(
        e.delivery.stats["retransmits"] for e in drill.immune.endpoints.values()
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
    plan = FaultPlan(
        default=LinkFaults(corrupt_prob=0.15), active_from=0.0, active_until=2.0
    )
    drill = _Drill(seed=seed, fault_plan=plan)
    expected = drill.send_bumps(0.3, 12)
    drill.run(until=6.0)
    tags = drill.surviving_server_tags()
    discards = sum(
        e.delivery.stats["digest_discards"] for e in drill.immune.endpoints.values()
    )
    corrupted = drill.immune.network.stats["corrupted"]
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
    plan = FaultPlan().schedule_crash(1, 0.8)
    drill = _Drill(seed=seed, fault_plan=plan)
    expected = drill.send_bumps(0.3, 6, prefix="pre")
    expected += drill.send_bumps(3.5, 6, prefix="post")
    drill.run(until=8.0)
    tags = drill.surviving_server_tags()
    members = drill.immune.surviving_members()
    group = drill.immune.group_members("tally")
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
    drill = _Drill(seed=seed)
    ReceiveOmissionBehaviour(at_time=0.3).compromise(drill.immune.endpoints[1])
    expected = drill.send_bumps(0.4, 8, prefix="pre")
    drill.run(until=12.0)
    members = drill.immune.surviving_members()
    tags = {pid: t for pid, t in drill.surviving_server_tags().items() if pid != 1}
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
    drill = _Drill(seed=seed)
    SilentBehaviour(at_time=0.5).compromise(drill.immune.endpoints[4])
    expected = drill.send_bumps(0.1, 4, prefix="pre")
    drill.run(until=12.0)
    members = drill.immune.surviving_members()
    tags = drill.surviving_server_tags()
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
    drill = _Drill(seed=seed)
    behaviour = MutantTokenBehaviour(at_time=0.5).compromise(drill.immune.endpoints[2])
    expected = drill.send_bumps(0.1, 4, prefix="pre")
    drill.run(until=12.0)
    behaviour.restore()
    members = drill.immune.surviving_members()
    suspects = {
        pid: drill.immune.endpoints[pid].detector.reasons_for(2)
        for pid in members
    }
    mutant_seen = any("mutant_token" in reasons for reasons in suspects.values())
    tags = {pid: t for pid, t in drill.surviving_server_tags().items() if pid != 2}
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
    drill = _Drill(seed=seed)
    MasqueradeBehaviour(
        victim_id=0, dest_group="tally", payload=b"FORGED", at_time=0.5
    ).compromise(drill.immune.endpoints[4])
    expected = drill.send_bumps(0.1, 4, prefix="pre")
    drill.run(until=6.0)
    tags = drill.surviving_server_tags()
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
    drill = _Drill(seed=seed)
    MalformedTokenBehaviour(at_time=0.5).compromise(drill.immune.endpoints[5])
    expected = drill.send_bumps(0.1, 4, prefix="pre")
    drill.run(until=12.0)
    members = drill.immune.surviving_members()
    tags = drill.surviving_server_tags()
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
    drill = _Drill(seed=seed)
    expected = drill.send_bumps(0.3, 4, prefix="pre")
    drill.immune.scheduler.at(
        1.2, crash_replica, drill.immune, "tally", 1, label="drill.crash"
    )
    expected += drill.send_bumps(2.5, 4, prefix="post")
    drill.run(until=6.0)
    group = drill.immune.group_members("tally")
    tags = {pid: t for pid, t in drill.surviving_server_tags().items() if pid != 1}
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
    drill = _Drill(seed=seed)
    SendOmissionTap(drill.immune.managers[3], from_time=0.2)
    expected = drill.send_bumps(0.3, 8)
    drill.run(until=6.0)
    tags = drill.surviving_server_tags()
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
    drill = _Drill(seed=seed)
    ClientInvocationCorrupter(drill.immune.managers[3], from_op=2)
    expected = drill.send_bumps(0.3, 8)
    drill.run(until=12.0)
    members = drill.immune.surviving_members()
    tags = {pid: t for pid, t in drill.surviving_server_tags().items()}
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
    wrapped = {}

    def factory(pid):
        servant = TallyServant()
        if pid == 2:
            faulty = ValueFaultServant(servant, corrupt_operations={"total"})
            wrapped[pid] = faulty
            return faulty
        wrapped[pid] = servant
        return servant

    drill = _Drill(seed=seed, servant_factory=factory)
    drill.servants = wrapped
    results = []
    scheduler = drill.immune.scheduler

    def query():
        for pid, stub in drill.stubs:
            if not drill.immune.processors[pid].crashed:
                stub.total(reply_to=results.append)

    drill.send_bumps(0.3, 3)
    scheduler.at(1.5, query, label="drill.query")
    drill.run(until=12.0)
    members = drill.immune.surviving_members()
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

