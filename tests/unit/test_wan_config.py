"""Validation of the WAN federation knobs and the inter-site topology.

Every federation tunable must reject nonsense with an error that names
the field, the accepted range, and the offending value — duplicate
site names, holes in an asymmetric link matrix, negative latency, and
a site-gateway degree too small to outvote one Byzantine replica all
fail at construction, not deep inside simulation setup.
"""

import pytest

from repro.cluster.config import ClusterConfig, ClusterConfigError
from repro.core.config import SurvivabilityCase
from repro.sim.faults import FaultPlan
from repro.sim.network import SimulationError, WanTopology
from repro.wan import SiteSpec, WanConfig, WanConfigError


def test_defaults_are_valid():
    config = WanConfig()
    assert config.site_names() == ("alpha", "beta")
    assert config.wan_gateway_degree == 3
    assert config.pid_base(0) == 0
    assert config.pid_base(1) == 10
    assert config.ring_base(1) == 1


def test_duplicate_site_names_rejected():
    with pytest.raises(WanConfigError) as excinfo:
        WanConfig(sites=("alpha", "beta", "alpha"))
    assert "duplicate site name" in str(excinfo.value)
    assert "alpha" in str(excinfo.value)


def test_single_site_rejected():
    with pytest.raises(WanConfigError) as excinfo:
        WanConfig(sites=("alone",))
    assert "at least 2 sites" in str(excinfo.value)


@pytest.mark.parametrize("name", ["", None, 7])
def test_bad_site_name_rejected(name):
    with pytest.raises(WanConfigError) as excinfo:
        SiteSpec(name)
    assert "non-empty string" in str(excinfo.value)


@pytest.mark.parametrize("value", [0, -1, 4097, "2", True])
def test_site_spec_ranges_named(value):
    with pytest.raises(WanConfigError) as excinfo:
        SiteSpec("alpha", num_rings=value)
    message = str(excinfo.value)
    assert "num_rings[alpha]" in message
    assert "1" in message and "4096" in message


@pytest.mark.parametrize("degree", [1, 2])
def test_voting_needs_three_site_gateways(degree, monkeypatch):
    monkeypatch.setattr(WanConfig, "wan_gateway_degree", degree)
    with pytest.raises(WanConfigError) as excinfo:
        WanConfig()
    message = str(excinfo.value)
    assert "wan_gateway_degree" in message
    assert ">= 3" in message
    # a non-voting case accepts smaller degrees
    WanConfig(case=SurvivabilityCase.ACTIVE_REPLICATION)


def test_cluster_config_rejects_small_wan_gateway_degree():
    with pytest.raises(ClusterConfigError) as excinfo:
        ClusterConfig(wan_gateway_degree=2)
    assert "wan_gateway_degree" in str(excinfo.value)


def test_asymmetric_matrix_missing_entry_rejected():
    latency = {("alpha", "beta"): 0.010}  # no return route
    with pytest.raises(WanConfigError) as excinfo:
        WanConfig(latency=latency)
    message = str(excinfo.value)
    assert "latency" in message
    assert "beta" in message and "alpha" in message


def test_negative_latency_rejected():
    with pytest.raises(WanConfigError) as excinfo:
        WanConfig(latency=-0.010)
    assert "latency" in str(excinfo.value)


def test_wan_gateway_pids_are_backbone_reserved():
    config = WanConfig(sites=("alpha", "beta"))
    alpha = config.cluster_config(0)
    beta = config.cluster_config(1)
    assert len(alpha.wan_gateway_pids()) == 3
    # disjoint global numbering: beta's pids start above alpha's range
    assert min(beta.ring_pids(0)) >= alpha.procs_per_ring * alpha.num_rings
    # WAN gateway hosts are not placement workers
    for pid in alpha.wan_gateway_pids():
        assert pid not in alpha.worker_pids(0)


def test_topology_transit_and_rtt():
    topology = WanTopology(
        ("alpha", "beta"),
        latency={("alpha", "beta"): 0.030, ("beta", "alpha"): 0.010},
        bandwidth_bps=8_000_000,
        header_bytes=0,
    )
    assert topology.transit_time("alpha", "beta", 1000) == pytest.approx(0.031)
    assert topology.rtt("alpha", "beta") == pytest.approx(0.040)


def test_topology_rejects_unknown_and_duplicate_sites():
    with pytest.raises(SimulationError):
        WanTopology(("alpha", "alpha"))
    topology = WanTopology(("alpha", "beta"))
    with pytest.raises(SimulationError):
        topology.transit_time("alpha", "nowhere", 10)


def test_partition_window_blocks_then_heals():
    plan = FaultPlan()
    plan.schedule_partition("alpha", "beta", start=1.0, heal=2.0)
    topology = WanTopology(("alpha", "beta", "gamma"), fault_plan=plan)
    assert not topology.partitioned("alpha", "beta", 0.5)
    assert topology.partitioned("alpha", "beta", 1.5)
    assert topology.partitioned("beta", "alpha", 1.5)  # symmetric
    assert not topology.partitioned("alpha", "gamma", 1.5)  # scoped
    assert not topology.partitioned("alpha", "beta", 2.5)  # healed


def test_site_isolation_partitions_from_every_peer():
    plan = FaultPlan()
    plan.schedule_partition("gamma", start=1.0, heal=None)
    topology = WanTopology(("alpha", "beta", "gamma"), fault_plan=plan)
    assert topology.partitioned("gamma", "alpha", 5.0)
    assert topology.partitioned("beta", "gamma", 5.0)
    assert not topology.partitioned("alpha", "beta", 5.0)


class ScriptedRng:
    """Hands out the scripted draws in order and counts them."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.taken = 0

    def random(self):
        self.taken += 1
        return self.draws.pop(0)


def test_correlated_loss_drops_a_burst_on_one_directed_link():
    topology = WanConfig(loss_prob=0.5, loss_burst=0.1).topology()
    link = topology.params("alpha", "beta")
    assert (link.loss_prob, link.loss_burst) == (0.5, 0.1)
    rng = ScriptedRng(0.2, 0.9, 0.9)
    # a drawn loss opens the burst window on alpha -> beta
    assert topology.should_drop("alpha", "beta", 1.0, rng)
    assert rng.taken == 1
    # inside the window every send on that link drops without a draw
    assert topology.should_drop("alpha", "beta", 1.05, rng)
    assert topology.should_drop("alpha", "beta", 1.099, rng)
    assert rng.taken == 1
    # the reverse link is untouched: it draws for itself, and survives
    assert not topology.should_drop("beta", "alpha", 1.05, rng)
    assert rng.taken == 2
    # once the window closes, draws resume
    assert not topology.should_drop("alpha", "beta", 1.1, rng)
    assert rng.taken == 3


def test_a_loss_free_wan_never_consumes_a_draw():
    # what keeps loss-free runs byte-identical: the loss stream is untouched
    topology = WanConfig().topology()
    rng = ScriptedRng()
    for now in (0.0, 1.0, 2.0):
        assert not topology.should_drop("alpha", "beta", now, rng)
        assert not topology.should_drop("beta", "alpha", now, rng)
    assert rng.taken == 0
