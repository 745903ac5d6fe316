"""Unit tests for cluster layout and deterministic group placement."""

import pytest

from repro.cluster.config import ClusterConfig, ClusterConfigError
from repro.cluster.placement import (
    PlacementEngine,
    rendezvous_ranking,
    rendezvous_score,
)
from repro.core.config import SurvivabilityCase


# ----------------------------------------------------------------------
# cluster layout
# ----------------------------------------------------------------------


def test_ring_pids_are_disjoint_and_contiguous():
    config = ClusterConfig(num_rings=3, procs_per_ring=5)
    assert config.ring_pids(0) == (0, 1, 2, 3, 4)
    assert config.ring_pids(1) == (5, 6, 7, 8, 9)
    assert config.ring_pids(2) == (10, 11, 12, 13, 14)
    for pid in range(15):
        assert pid in config.ring_pids(config.ring_of_pid(pid))


def test_gateway_pids_are_the_ring_tail_and_workers_the_rest():
    config = ClusterConfig(num_rings=2, procs_per_ring=6, gateway_degree=3)
    assert config.gateway_pids(0) == (3, 4, 5)
    assert config.worker_pids(0) == (0, 1, 2)
    assert config.gateway_pids(1) == (9, 10, 11)
    assert config.worker_pids(1) == (6, 7, 8)


def test_single_ring_cluster_has_no_gateways():
    config = ClusterConfig(num_rings=1, procs_per_ring=6)
    assert config.gateway_degree == 0
    assert config.gateway_pids(0) == ()
    assert config.worker_pids(0) == config.ring_pids(0)


def test_voting_cluster_rejects_undersized_gateway_quorum():
    # Two gateway copies cannot outvote one Byzantine gateway.
    with pytest.raises(ClusterConfigError):
        ClusterConfig(num_rings=2, gateway_degree=2)
    # A non-voting replicated case may run thinner gateways.
    ClusterConfig(
        num_rings=2,
        gateway_degree=2,
        case=SurvivabilityCase.ACTIVE_REPLICATION,
    )


def test_multi_ring_cluster_requires_replication():
    with pytest.raises(ClusterConfigError):
        ClusterConfig(num_rings=2, case=SurvivabilityCase.UNREPLICATED)


def test_ring_config_is_fresh_per_ring():
    # resolve_timeouts mutates the MulticastConfig in place; rings must
    # not share one instance or the first ring's sizes leak into others.
    config = ClusterConfig(num_rings=2)
    assert config.ring_config(0).multicast is not config.ring_config(1).multicast


# ----------------------------------------------------------------------
# rendezvous hashing
# ----------------------------------------------------------------------


def test_rendezvous_score_is_stable_across_processes():
    # SHA-256 of "ledger|ring:0|0": a fixed literal value pins
    # cross-platform and cross-run stability (hash() randomisation must
    # not leak in), and the hashed token's "|0" suffix with it.
    assert rendezvous_score("ledger", "ring:0") == 589150983848570041
    assert rendezvous_score("ledger", "ring:1") == 14767507122915209139


def test_rendezvous_ranking_orders_by_descending_score():
    buckets = list(range(8))
    ranking = rendezvous_ranking("svc", buckets)
    assert sorted(ranking) == buckets
    scores = [rendezvous_score("svc", b) for b in ranking]
    assert scores == sorted(scores, reverse=True)


def test_rendezvous_minimal_disruption_when_a_ring_is_removed():
    # Removing one bucket only moves the groups that lived on it.
    groups = ["g%d" % k for k in range(40)]
    before = {g: rendezvous_ranking(g, range(4))[0] for g in groups}
    after = {g: rendezvous_ranking(g, range(3))[0] for g in groups}
    for g in groups:
        if before[g] != 3:
            assert after[g] == before[g]


# ----------------------------------------------------------------------
# the placement engine
# ----------------------------------------------------------------------


def make_engine(mode="rendezvous", num_rings=2, **kwargs):
    config = ClusterConfig(num_rings=num_rings, placement_mode=mode, **kwargs)
    return PlacementEngine(config)


def test_placement_is_deterministic():
    a = make_engine()
    b = make_engine()
    for name in ("alpha", "beta", "gamma"):
        pa, pb = a.place(name), b.place(name)
        assert (pa.ring, pa.procs) == (pb.ring, pb.procs)


def test_placement_keeps_group_on_one_ring_one_replica_per_proc():
    engine = make_engine(num_rings=3)
    for k in range(12):
        placement = engine.place("group%d" % k)
        rings = {engine.config.ring_of_pid(pid) for pid in placement.procs}
        assert rings == {placement.ring}
        assert len(set(placement.procs)) == len(placement.procs)


def test_placement_prefers_worker_pids():
    engine = make_engine()
    placement = engine.place("svc", degree=3)
    workers = set(engine.config.worker_pids(placement.ring))
    assert set(placement.procs) <= workers


def test_placement_spills_to_gateways_only_when_workers_exhausted():
    engine = make_engine()  # 6 procs: 3 workers + 3 gateways per ring
    placement = engine.place("wide", degree=5)
    workers = set(engine.config.worker_pids(placement.ring))
    assert workers <= set(placement.procs)
    assert len(placement.procs) == 5


def test_placement_rejects_oversized_groups_and_duplicates():
    engine = make_engine()
    with pytest.raises(ClusterConfigError):
        engine.place("huge", degree=7)  # > procs_per_ring
    engine.place("once")
    with pytest.raises(ClusterConfigError):
        engine.place("once")


def test_voting_case_rejects_unvotable_degree():
    engine = make_engine()
    with pytest.raises(ClusterConfigError):
        engine.place("solo", degree=1)


def test_balanced_mode_splits_evenly():
    engine = make_engine(mode="balanced", num_rings=2)
    for k in range(8):
        engine.place("pair%d" % k)
    distribution = engine.distribution()
    assert len(distribution[0]) == 4
    assert len(distribution[1]) == 4


def test_explicit_ring_pin_overrides_the_hash():
    engine = make_engine(num_rings=2)
    placement = engine.place("pinned", ring=1)
    assert placement.ring == 1
    with pytest.raises(ClusterConfigError):
        engine.place("nowhere", ring=5)


def test_to_dict_is_json_shaped():
    engine = make_engine()
    engine.place("svc")
    data = engine.to_dict()
    assert data["mode"] == "rendezvous"
    assert data["placements"][0]["group"] == "svc"
    assert isinstance(data["placements"][0]["procs"], list)


# ----------------------------------------------------------------------
# elasticity: rebalance deltas, moves, layout proposals
# ----------------------------------------------------------------------


def test_rebalance_delta_lists_only_changed_groups_sorted():
    old = {"a": 0, "b": 1, "c": 0, "gone": 1}
    new = {"a": 1, "b": 1, "c": 2, "fresh": 0}
    delta = PlacementEngine.rebalance_delta(old, new)
    # changed groups only, sorted; deploys/retirements are not moves
    assert delta == [("a", 0, 1), ("c", 0, 2)]
    assert PlacementEngine.rebalance_delta(new, new) == []


def test_move_rerecords_placement_and_load():
    engine = make_engine(num_rings=2)
    placement = engine.place("svc")
    src = placement.ring
    dst = 1 - src
    procs = engine.replica_procs("svc", dst, len(placement.procs))
    moved = engine.move("svc", dst, procs)
    assert moved.ring == dst and moved.procs == tuple(procs)
    assert engine.layout() == {"svc": dst}
    assert engine.load[src] == 0
    assert engine.load[dst] == len(procs)
    with pytest.raises(ClusterConfigError):
        engine.move("never-placed", dst, procs)


def test_add_ring_opens_a_load_bucket_without_clobbering():
    engine = make_engine(num_rings=2)
    engine.place("svc", ring=1)
    engine.add_ring(2)
    assert engine.load[2] == 0
    engine.add_ring(1)  # re-adding an accounted ring is a no-op
    assert engine.load[1] > 0


def test_propose_layout_is_pure_rendezvous_and_stable():
    # The proposal must depend only on (group, rings): engines
    # with different modes and load histories agree, and repeating the
    # call cannot oscillate.
    a = make_engine(mode="balanced", num_rings=2)
    b = make_engine(mode="rendezvous", num_rings=2)
    for k in range(4):
        a.place("g%d" % k)
    groups = ["g0", "g1", "g2", "g3"]
    proposal = a.propose_layout([0, 1], groups)
    assert proposal == b.propose_layout([0, 1], groups)
    assert proposal == a.propose_layout([1, 0], groups)
    assert set(proposal) == set(groups)
    assert set(proposal.values()) <= {0, 1}
