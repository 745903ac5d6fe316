"""The multi-branch bank: conservation across rings through the gateway."""

from repro.cluster import ClusterConfig, ClusterManager
from repro.core.config import SurvivabilityCase
from repro.workloads.bank import MultiBranchBank


def build_bank(case=SurvivabilityCase.MAJORITY_VOTING, corrupt_gateway=False, seed=13):
    cluster = ClusterManager(ClusterConfig(num_rings=2, case=case, seed=seed))
    bank = MultiBranchBank(
        cluster,
        branches=2,
        branch_homes={"branch0": 0, "branch1": 1},
        teller_home=0,
    )
    if corrupt_gateway:
        cluster.corrupt_gateway(0, 1, index=0)
    cluster.start()
    return cluster, bank


def test_branches_span_rings_and_seed_identically():
    cluster, bank = build_bank()
    assert bank.branches["branch0"].ring == 0
    assert bank.branches["branch1"].ring == 1
    cluster.run(until=0.5)
    assert bank.replicas_agree()
    assert bank.conserved()
    for by_pid in bank.branch_totals().values():
        assert set(by_pid.values()) == {200}


def test_cross_ring_transfer_conserves_total_assets():
    cluster, bank = build_bank()
    # Operations spaced beyond a cross-ring round trip (the replica
    # determinism contract documented on schedule_transfer).
    bank.schedule_deposit(0.2, "branch0", 1, 50)        # same-ring op
    bank.schedule_withdraw(0.7, "branch1", 2, 25)       # cross-ring op
    bank.schedule_transfer(1.2, "branch0", 1, "branch1", 1, 40)
    bank.schedule_transfer(2.2, "branch1", 2, "branch0", 2, 10)
    cluster.run(until=4.0)

    assert bank.failed == []
    assert bank.replicas_agree()
    # The withdraw destroyed 25; transfers only moved money.
    totals = bank.branch_totals()
    branch0 = set(totals["branch0"].values()).pop()
    branch1 = set(totals["branch1"].values()).pop()
    assert branch0 == 200 + 50 - 40 + 10
    assert branch1 == 200 - 25 + 40 - 10
    assert branch0 + branch1 == bank.expected_total() + 50 - 25


def test_overdraft_transfer_is_a_cluster_wide_noop():
    cluster, bank = build_bank()
    bank.schedule_transfer(0.2, "branch0", 1, "branch1", 1, 10**6)
    cluster.run(until=1.5)
    # The refused withdraw is recorded; no replica issued the deposit.
    assert bank.failed and all(label.endswith(":w") for label, _ in bank.failed)
    assert bank.conserved()
    assert bank.replicas_agree()


def test_transfers_survive_a_byzantine_gateway():
    cluster, bank = build_bank(
        case=SurvivabilityCase.FULL_SURVIVABILITY, corrupt_gateway=True
    )
    bank.schedule_transfer(0.3, "branch0", 1, "branch1", 1, 30)
    bank.schedule_transfer(1.3, "branch1", 2, "branch0", 2, 20)
    cluster.run(until=3.5)

    assert bank.failed == []
    assert bank.replicas_agree()
    assert bank.conserved()  # a duplicated or lost hop would break this
    totals = bank.branch_totals()
    assert set(totals["branch0"].values()) == {200 - 30 + 20}
    assert set(totals["branch1"].values()) == {200 + 30 - 20}
