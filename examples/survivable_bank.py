"""A survivable bank that keeps its invariants under replica corruption.

Scenario:

1. A three-way replicated bank service opens accounts and processes
   transfers, driven by a three-way replicated teller client.
2. The bank replica on P2 is *corrupted*: every result it computes is
   wrong (a value fault, Table 1's hardest replica fault).
3. Output majority voting masks every wrong answer; the value fault
   detector attributes the fault; the membership protocol evicts P2.
4. A fresh replica is reallocated onto spare processor P6 via ordered
   state transfer, restoring three-way replication.
5. The books still balance: total assets are conserved through it all.

Run:  python examples/survivable_bank.py
"""

from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.workloads.bank import BANK_IDL, BankServant


def main():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=2026)
    immune = ImmuneSystem(num_processors=7, config=config)

    def factory(pid):
        servant = BankServant()
        if pid == 2:
            return ValueFaultServant(servant, corrupt_from=4)
        return servant

    bank = immune.deploy("bank", BANK_IDL, factory, on_procs=[0, 1, 2])
    teller = immune.deploy_client("teller", on_procs=[3, 4, 5])
    immune.start()

    stubs = immune.client_stubs(teller, BANK_IDL, bank)
    voted = {pid: [] for pid, _ in stubs}

    def everywhere(op, *args):
        for pid, stub in stubs:
            getattr(stub, op)(*args, reply_to=voted[pid].append)

    # Day 1: open accounts and move money around.
    everywhere("open_account", "alice", 1000)
    everywhere("open_account", "bob", 500)
    everywhere("transfer", 1, 2, 250)
    everywhere("withdraw", 2, 100)
    everywhere("deposit", 1, 40)
    everywhere("total_assets")
    immune.run(until=4.0)

    print("voted replies at each teller replica:")
    for pid in sorted(voted):
        print("  P%d: %r" % (pid, voted[pid]))
    assert all(v == voted[3] for v in voted.values()), "teller replicas diverged"
    assert voted[3][-1] == 1440, "money was created or destroyed!"

    members = immune.surviving_members()
    print("membership after the value faults surfaced:", list(members))
    assert 2 not in members, "corrupt P2 should have been evicted"
    print("bank group after eviction:", list(immune.group_members("bank")))

    # Recovery: reallocate the lost replica onto spare processor P6.
    immune.reallocate("bank", 6, BankServant.from_state)
    immune.run(until=8.0)
    print("bank group after reallocation:", list(immune.group_members("bank")))
    assert immune.group_members("bank") == (0, 1, 6)

    # The books still balance — including on the fresh replica.
    for pid in voted:
        voted[pid].clear()
    everywhere("total_assets")
    immune.run(until=12.0)
    finals = [voted[pid][-1] for pid in sorted(voted)]
    print("total assets after recovery, voted:", finals)
    assert finals == [1440, 1440, 1440]
    new_replica = bank.servants[6]
    print("fresh replica on P6 reports total:", new_replica.total_assets())
    assert new_replica.total_assets() == 1440
    print("OK: corruption masked, intruder evicted, replica restored, books balanced.")


if __name__ == "__main__":
    main()
