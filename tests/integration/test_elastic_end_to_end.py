"""Integration tests for the elasticity subsystem.

Covers the three runtime-reshaping mechanisms end to end on live
simulated clusters:

* **live migration** — a replicated group moves between rings with
  invocations in flight before, during, and after the hold window;
  zero loss, zero duplication, and the hold priced into the critical
  path under the ``migration`` cause;
* **churn** — a brand-new processor joins a live ring through the
  membership protocol (timeouts re-derived for the larger population)
  and is later retired by planned silence (membership excludes it, the
  derived timeouts stay at the larger values, and the forensic
  scorecard attributes the exclusion as a true positive);
* **autoscaling** — a telemetry-fed autoscaler splits a hot ring and
  merges it back under the ramp workload, with the bank-conservation
  identity checked at every migration epoch.
"""

import pytest

from repro.core.replica import crash_replica
from repro.elastic import ElasticCluster, ElasticConfig, MigrationError
from repro.multicast.config import MulticastConfig
from repro.obs import Observability, SeriesSampler
from repro.obs.critpath import attribute_spans
from repro.obs.forensics import ForensicsHub, merge_timeline, score
from repro.workloads.bank import BANK_IDL, BankServant
from repro.workloads.ramp import RampBank
from tests.support import MulticastWorld


def build_cluster(max_rings=2, seed=7):
    obs = Observability(forensics=ForensicsHub())
    config = ElasticConfig(
        initial_rings=1,
        max_rings=max_rings,
        procs_per_ring=6,
        gateway_degree=3,
        seed=seed,
    )
    return ElasticCluster(config=config, obs=obs), obs


# ----------------------------------------------------------------------
# live migration
# ----------------------------------------------------------------------


def test_live_migration_zero_loss_zero_dup_with_inflight_traffic():
    cluster, obs = build_cluster()
    server = cluster.deploy(
        "bank", BANK_IDL, lambda pid: BankServant(),
        servant_from_state=BankServant.from_state,
    )
    client = cluster.deploy_client("driver")
    cluster.start()
    stubs = cluster.client_stubs(client, BANK_IDL, server)
    acct = {}
    for _pid, stub in stubs:
        stub.open_account("alice", 100, reply_to=lambda v: acct.setdefault("id", v))
    cluster.run(until=0.5)

    new_ring = cluster.add_ring()
    results = []

    def fire_deposits():
        for _pid, stub in stubs:
            stub.deposit(acct["id"], 7, reply_to=results.append)

    # before the hold, inside the hold window, and after cutover
    cluster.scheduler.at(1.05, fire_deposits, label="t.dep")
    cluster.scheduler.at(1.12, fire_deposits, label="t.dep")
    cluster.scheduler.at(1.40, fire_deposits, label="t.dep")
    done = []
    cluster.scheduler.at(
        1.10, lambda: cluster.migrate("bank", new_ring, done=done.append),
        label="t.mig",
    )
    cluster.run(until=3.0)

    assert done and done[0]["dst_ring"] == new_ring
    assert done[0]["held"] > 0  # the mid-window deposits were parked
    # one reply per client replica per round, every deposit applied once
    assert len(results) == 9 and all(value >= 0 for value in results)
    handle = cluster.group("bank")
    assert cluster.directory.home_ring("bank") == new_ring
    balances = {s.balance(acct["id"]) for s in handle.servants.values()}
    assert balances == {100 + 3 * 7}

    # the parked invocations marked the migration_held stage (one span
    # per logical operation; ``held`` counts frames per replica) and
    # the hold is attributed to the migration critical-path cause
    held_spans = [
        span for span in obs.spans.spans() if "migration_held" in span.marks
    ]
    assert held_spans and all(span.key[0] == "driver" for span in held_spans)
    report = attribute_spans(obs.spans, merge_timeline(obs.forensics))
    migration_seconds = sum(
        row["seconds"] for row in report["per_cause"]
        if row["cause"] == "migration"
    )
    assert migration_seconds > 0.0


def test_migration_round_trip_returns_home():
    cluster, _obs = build_cluster()
    server = cluster.deploy(
        "bank", BANK_IDL, lambda pid: BankServant(),
        servant_from_state=BankServant.from_state,
    )
    client = cluster.deploy_client("driver")
    cluster.start()
    stubs = cluster.client_stubs(client, BANK_IDL, server)
    acct = {}
    for _pid, stub in stubs:
        stub.open_account("alice", 50, reply_to=lambda v: acct.setdefault("id", v))
    cluster.run(until=0.5)
    new_ring = cluster.add_ring()
    records = []
    cluster.migrate("bank", new_ring, done=records.append)
    cluster.run(until=1.5)
    cluster.migrate("bank", 0, done=records.append)
    cluster.run(until=2.5)
    assert [r["dst_ring"] for r in records] == [new_ring, 0]
    assert cluster.directory.home_ring("bank") == 0
    results = []
    for _pid, stub in stubs:
        stub.deposit(acct["id"], 5, reply_to=results.append)
    cluster.run(until=3.0)
    assert results and all(value == 55 for value in results)


def test_migration_rejects_client_and_stateless_groups():
    cluster, _obs = build_cluster()
    cluster.deploy("plain", BANK_IDL, lambda pid: BankServant())
    cluster.deploy_client("driver")
    cluster.add_ring()
    with pytest.raises(MigrationError, match="client group"):
        cluster.migrate("driver", 1)
    with pytest.raises(MigrationError, match="servant_from_state"):
        cluster.migrate("plain", 1)
    with pytest.raises(MigrationError, match="never bound"):
        cluster.migrate("ghost", 1)


class _OpaqueBank(BankServant):
    """A bank whose state cannot be read out: no ``get_state``."""

    get_state = None


def test_migration_of_a_servant_without_get_state_is_refused_before_any_hold():
    cluster, _obs = build_cluster()
    server = cluster.deploy(
        "bank", BANK_IDL, lambda pid: _OpaqueBank(),
        servant_from_state=BankServant.from_state,
    )
    client = cluster.deploy_client("driver")
    cluster.start()
    stubs = cluster.client_stubs(client, BANK_IDL, server)
    acct = {}
    for _pid, stub in stubs:
        stub.open_account("alice", 100, reply_to=lambda v: acct.setdefault("id", v))
    cluster.run(until=0.5)
    new_ring = cluster.add_ring()

    with pytest.raises(MigrationError, match="get_state"):
        cluster.migrate("bank", new_ring)
    assert not cluster.coordinator.busy
    cluster.run(until=1.5)  # at the parent _cutover raised out of here at t=0.56
    assert cluster.directory.home_ring("bank") == 0

    results = []
    for _pid, stub in stubs:
        stub.deposit(acct["id"], 5, reply_to=results.append)
    cluster.run(until=2.0)
    assert results == [105] * len(client.replica_procs)


def test_cutover_without_a_live_donor_fails_the_job_and_frees_the_cluster():
    obs = Observability(forensics=ForensicsHub())
    config = ElasticConfig(
        initial_rings=1, max_rings=2, procs_per_ring=7, gateway_degree=3, seed=7,
    )
    cluster = ElasticCluster(config=config, obs=obs)
    workers = cluster.config.worker_pids(0)
    doomed_hosts, safe_hosts = workers[:2], workers[2:] + cluster.config.gateway_pids(0)[:1]
    cluster.deploy(
        "doomed", BANK_IDL, lambda pid: BankServant(), on_procs=doomed_hosts,
        servant_from_state=BankServant.from_state,
    )
    server = cluster.deploy(
        "bank", BANK_IDL, lambda pid: BankServant(), on_procs=safe_hosts,
        servant_from_state=BankServant.from_state,
    )
    client = cluster.deploy_client("driver", on_procs=safe_hosts)
    cluster.start()
    stubs = cluster.client_stubs(client, BANK_IDL, server)
    acct = {}
    for _pid, stub in stubs:
        stub.open_account("alice", 100, reply_to=lambda v: acct.setdefault("id", v))
    cluster.run(until=0.5)
    new_ring = cluster.add_ring()
    for pid in doomed_hosts:
        cluster.processors[pid].crash()

    records, heard = [], []
    cluster.coordinator.listeners.append(heard.append)
    cluster.migrate("doomed", new_ring, done=records.append)
    cluster.migrate("bank", new_ring, done=records.append)  # queued behind it
    cluster.run(until=6.0)  # at the parent the first cutover raised out of here

    failed, moved = records
    assert failed["group"] == "doomed" and "no live replica" in failed["error"]
    assert moved["group"] == "bank" and "error" not in moved
    assert heard == records
    assert [r["group"] for r in cluster.coordinator.completed] == ["bank"]
    assert not cluster.coordinator.busy
    assert cluster.directory.home_ring("doomed") == 0
    assert cluster.directory.home_ring("bank") == new_ring
    for immune in cluster.rings:
        for manager in immune.managers.values():
            assert manager.held_for("doomed") == 0 and manager.held_for("bank") == 0

    results = []
    for _pid, stub in stubs:
        stub.deposit(acct["id"], 5, reply_to=results.append)
    cluster.run(until=7.0)
    assert results == [105] * len(client.replica_procs)


def _bank_with_an_account(seed=7):
    """A one-ring elastic cluster with ``bank`` deployed, a three-replica
    ``driver`` client, and one account of 100 opened by t=0.5."""
    cluster, obs = build_cluster(seed=seed)
    server = cluster.deploy(
        "bank", BANK_IDL, lambda pid: BankServant(),
        servant_from_state=BankServant.from_state,
    )
    client = cluster.deploy_client("driver")
    cluster.start()
    stubs = cluster.client_stubs(client, BANK_IDL, server)
    acct = {}
    for _pid, stub in stubs:
        stub.open_account("alice", 100, reply_to=lambda v: acct.setdefault("id", v))
    cluster.run(until=0.5)
    return cluster, server, stubs, acct["id"]


def _deposit(cluster, stubs, account, amount, until):
    results = []
    for _pid, stub in stubs:
        stub.deposit(account, amount, reply_to=results.append)
    cluster.run(until=until)
    return results


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_a_migration_after_a_replica_crash_takes_state_from_a_live_replica(seed):
    cluster, server, stubs, account = _bank_with_an_account(seed)
    crashed = server.replica_procs[0]
    stale = server.servants[crashed]
    crash_replica(cluster.rings[0], "bank", crashed)
    assert crashed not in server.replica_procs and crashed not in server.servants
    assert _deposit(cluster, stubs, account, 5, until=1.0) == [105] * 3
    assert stale.balance(account) == 100  # the crashed replica missed it

    new_ring = cluster.add_ring()
    records = []
    cluster.migrate("bank", new_ring, done=records.append)
    cluster.run(until=2.0)  # at the parent the cutover raised TypeError here

    (record,) = records
    assert "error" not in record and cluster.directory.home_ring("bank") == new_ring
    # the degree the group was placed with, not what survived the crash
    assert len(server.replica_procs) == 3
    assert set(server.replica_procs) <= set(cluster.config.ring_pids(new_ring))
    assert {s.balance(account) for s in server.servants.values()} == {105}
    assert _deposit(cluster, stubs, account, 5, until=3.0) == [110] * 3


def test_a_migration_withdraws_a_replica_that_joined_by_reallocation():
    cluster, server, stubs, account = _bank_with_an_account()
    ring0 = cluster.rings[0]
    crash_replica(ring0, "bank", server.replica_procs[-1])
    spare = min(set(cluster.config.ring_pids(0)) - set(server.replica_procs))
    cluster.run(until=1.0)
    ring0.reallocate("bank", spare, BankServant.from_state)
    cluster.run(until=1.5)
    joined = server.servants[spare]
    assert ring0.managers[spare].hosts("bank")

    cluster.migrate("bank", cluster.add_ring())
    cluster.run(until=2.5)

    assert not ring0.managers[spare].hosts("bank")
    assert spare not in server.replica_procs
    assert ring0.orbs[spare].adapter.skeleton(b"bank") is None
    assert _deposit(cluster, stubs, account, 5, until=3.5) == [105] * 3
    # at the parent the left-behind replica executed this deposit too
    assert joined.balance(account) == 100


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------


def test_churn_join_rederives_timeouts_and_retire_keeps_them():
    cluster, obs = build_cluster()
    server = cluster.deploy(
        "bank", BANK_IDL, lambda pid: BankServant(),
        servant_from_state=BankServant.from_state,
    )
    client = cluster.deploy_client("driver")
    cluster.start()
    stubs = cluster.client_stubs(client, BANK_IDL, server)
    acct = {}
    for _pid, stub in stubs:
        stub.open_account("alice", 100, reply_to=lambda v: acct.setdefault("id", v))
    cluster.run(until=0.5)

    ring0 = cluster.rings[0]
    anchor = cluster.config.ring_pids(0)[0]
    endpoint = ring0.endpoints[anchor]
    before = endpoint.config.token_rotation_timeout

    new_pid = cluster.grow_processor(0)
    cluster.run(until=1.5)
    assert new_pid in endpoint.members
    grown = endpoint.config.token_rotation_timeout
    assert grown > before  # re-derived for the larger population
    # the joiner resynced the group table from a donor
    assert ring0.managers[new_pid].groups.members("bank")

    # invocations keep working on the enlarged ring
    results = []
    for _pid, stub in stubs:
        stub.deposit(acct["id"], 5, reply_to=results.append)
    cluster.run(until=2.0)
    assert results and all(value == 105 for value in results)

    # planned retirement: silence, exclusion, no timeout tightening
    cluster.retire_processor(new_pid)
    cluster.run(until=4.0)
    assert new_pid not in endpoint.members
    # the shrink re-derives for the smaller population, but derivation
    # is growth-only: a live ring never tightens its timeouts
    assert endpoint.config.token_rotation_timeout == grown
    card = score(obs.forensics)
    assert card["precision"] == 1.0 and card["recall"] == 1.0

    results2 = []
    for _pid, stub in stubs:
        stub.deposit(acct["id"], 5, reply_to=results2.append)
    cluster.run(until=4.5)
    assert results2 and all(value == 110 for value in results2)


def test_membership_shrink_keeps_derived_timeouts():
    # The endpoint-level shrink path: every installation re-derives the
    # timeouts for the installed population, and re-derivation for a
    # *smaller* ring must keep the larger values (growth-only), so a
    # shrinking ring never tightens under a live protocol.
    world = MulticastWorld(num=4, seed=3).start()
    world.run(until=1.0)
    endpoint = world.endpoints[0]
    four = endpoint.config.token_rotation_timeout
    fresh_three = MulticastConfig(security=world.config.security)
    fresh_three.resolve_timeouts(world.crypto_costs, 3)
    assert four > fresh_three.token_rotation_timeout

    world.processors[3].crash()
    world.run(until=6.0)
    assert 3 not in endpoint.members
    assert len(endpoint.members) == 3
    # the exclusion installed a 3-member ring and re-derived: unchanged
    assert endpoint.config.token_rotation_timeout == four


# ----------------------------------------------------------------------
# autoscaling under the ramp workload
# ----------------------------------------------------------------------


def test_autoscaler_splits_and_merges_with_conservation_at_every_epoch():
    cluster, obs = build_cluster()
    ramp = RampBank(cluster, streams=3, period=0.3)
    sampler = SeriesSampler(
        obs.registry, period=0.1, families={"rm.delivered_to_orb"}
    )
    sampler.start(cluster.scheduler)
    cluster.enable_autoscaler(sampler)

    audits = []
    cluster.coordinator.listeners.append(
        lambda record: audits.append(ramp.audit())
    )
    ramp.schedule(until=3.0)
    cluster.start()
    cluster.run(until=6.0)

    actions = [action for _at, action, _detail in cluster.autoscaler.decisions]
    assert "split" in actions and "merge" in actions
    assert len(cluster.coordinator.completed) >= 3
    assert sorted(cluster.active_rings) == [0]  # merged back after the ramp
    assert audits and all(audit["conserved"] for audit in audits)
    verdict = ramp.settled()
    assert verdict["ok"], verdict
