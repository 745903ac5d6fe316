"""Integration tests: replica reallocation via ordered state transfer.

Section 3.1 of the paper: "The replicas that are lost due to a
Byzantine processor must be reallocated to correct processors."  The
Replication Manager implements this with a join marker and a state
checkpoint flowing through the same totally-ordered stream as the
application's operations, so the fresh replica resumes at a consistent
cut and replays everything after it.
"""

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan

LEDGER_IDL = InterfaceDef(
    "Ledger",
    [
        OperationDef("append", [ParamDef("entry", "string")], oneway=True),
        OperationDef("size", [], result="long"),
    ],
)


class LedgerServant:
    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)

    def size(self):
        return len(self.entries)

    def get_state(self):
        encoder = CdrEncoder()
        encoder.write(("sequence", "string"), self.entries)
        return encoder.getvalue()

    def set_state(self, state):
        self.entries = CdrDecoder(state).read(("sequence", "string"))

    @classmethod
    def from_state(cls, state):
        servant = cls()
        servant.set_state(state)
        return servant


def build(num=7, seed=17, fault_plan=None):
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed)
    immune = ImmuneSystem(num_processors=num, config=config, fault_plan=fault_plan)
    ledger = immune.deploy("ledger", LEDGER_IDL, lambda pid: LedgerServant(), [0, 1, 2])
    writer = immune.deploy_client("writer", [3, 4, 5])
    immune.start()
    return immune, ledger, writer


def write_entries(immune, writer, ledger, start, entries, spacing=0.05):
    stubs = immune.client_stubs(writer, LEDGER_IDL, ledger)
    for i, entry in enumerate(entries):

        def fire(entry=entry):
            for pid, stub in stubs:
                if not immune.processors[pid].crashed:
                    stub.append(entry)

        immune.scheduler.at(start + i * spacing, fire)


def test_join_transfers_state_and_replays_tail():
    immune, ledger, writer = build()
    before = ["pre-%d" % i for i in range(4)]
    after = ["post-%d" % i for i in range(4)]
    write_entries(immune, writer, ledger, 0.3, before)
    immune.scheduler.at(1.5, immune.reallocate, "ledger", 6, LedgerServant.from_state)
    write_entries(immune, writer, ledger, 3.0, after)
    immune.run(until=6.0)
    assert immune.group_members("ledger") == (0, 1, 2, 6)
    fresh = ledger.servants[6]
    assert fresh.entries == before + after
    for pid in (0, 1, 2):
        assert ledger.servants[pid].entries == before + after


def test_joined_replica_counts_in_subsequent_votes():
    immune, ledger, writer = build()
    immune.scheduler.at(0.5, immune.reallocate, "ledger", 6, LedgerServant.from_state)
    write_entries(immune, writer, ledger, 2.0, ["x"])
    results = []

    def query():
        for pid, stub in immune.client_stubs(writer, LEDGER_IDL, ledger):
            stub.size(reply_to=results.append)

    immune.scheduler.at(3.0, query)
    immune.run(until=5.0)
    assert immune.group_members("ledger") == (0, 1, 2, 6)
    assert results == [1, 1, 1]
    # With degree 4 the majority is 3: the fresh replica's responses
    # participate (voter stats show copies from four senders).
    voter = immune.managers[3].voter_for("writer")
    assert voter is not None


def test_reallocation_after_crash_restores_degree():
    plan = FaultPlan().schedule_crash(2, 0.8)
    immune, ledger, writer = build(fault_plan=plan)
    before = ["a", "b"]
    write_entries(immune, writer, ledger, 0.3, before)
    # Wait out the exclusion, then re-establish three-way replication.
    immune.scheduler.at(4.0, immune.reallocate, "ledger", 6, LedgerServant.from_state)
    after = ["c", "d"]
    write_entries(immune, writer, ledger, 6.0, after)
    immune.run(until=9.0)
    assert 2 not in immune.surviving_members()
    assert immune.group_members("ledger") == (0, 1, 6)
    assert ledger.servants[6].entries == before + after
    assert ledger.servants[0].entries == before + after


def test_a_malformed_checkpoint_from_another_member_is_dropped():
    """P5 hosts no ledger replica, yet keeps multicasting a truncated
    checkpoint for P6's join: P6 drops each one (counted) and installs
    the honest donor's state when it arrives."""
    from repro.core.identifiers import BASE_GROUP, KIND_STATE_TRANSFER, ImmuneMessage

    immune, ledger, writer = build()
    write_entries(immune, writer, ledger, 0.3, ["a", "b"])
    immune.scheduler.at(1.5, immune.reallocate, "ledger", 6, LedgerServant.from_state)
    forged = ImmuneMessage(KIND_STATE_TRANSFER, "ledger", 6, 5, BASE_GROUP, b"\x01\x07")

    def forge(at):
        immune.managers[5].endpoint.multicast(BASE_GROUP, forged.encode())
        if at < 2.5:
            immune.scheduler.at(at + 0.02, forge, at + 0.02)

    immune.scheduler.at(1.5, forge, 1.5)
    immune.run(until=4.0)
    assert immune.group_members("ledger") == (0, 1, 2, 6)
    assert ledger.servants[6].entries == ["a", "b"]
    assert immune.managers[6].stats["checkpoints_refused"] > 0


def test_reallocating_client_group_is_rejected():
    immune, ledger, writer = build()
    from repro.core.config import ConfigError

    with pytest.raises(ConfigError):
        immune.reallocate("writer", 6, LedgerServant.from_state)
