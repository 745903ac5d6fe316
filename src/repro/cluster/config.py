"""Cluster-level configuration: how many rings, and who gates them.

A cluster runs several independent SecureRings in one simulation — the
paper's single token-circulation bottleneck, multiplied out the way
Ring Paxos composes rings.  Each ring keeps the paper's resilience
arithmetic locally: ``n`` processors tolerate ``floor((n-1)/3)``
Byzantine faults, every object group lives entirely on one ring, and a
group of ``r`` replicas needs ``ceil((r+1)/2)`` correct ones.

Cross-ring invocations travel through *gateway replicas* (see
:mod:`repro.cluster.gateway`): ``gateway_degree`` processors per ring
re-originate voted traffic onto the peer ring, so the gateway hop is
itself replicated and majority-voted — at least three gateways are
required for a multi-ring voting cluster, masking one Byzantine
gateway exactly as three object replicas mask one corrupted replica.
"""

from repro.core.config import ImmuneConfig, SurvivabilityCase


class ClusterConfigError(Exception):
    """Raised when a cluster layout violates the resilience rules."""


def _checked_int(name, value, minimum, maximum, error=ClusterConfigError):
    """Validate an integer knob; the error names the field and the range."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(
            "%s must be an integer between %d and %d, got %r"
            % (name, minimum, maximum, value)
        )
    if not minimum <= value <= maximum:
        raise error(
            "%s must be between %d and %d, got %d" % (name, minimum, maximum, value)
        )
    return value


def _check_link_degree(field, degree, room, case):
    """The sizing rules of one level's voted links — the same for a
    cluster's ``gateway_degree`` and a site's ``wan_gateway_degree``."""
    if not case.replicated:
        raise ClusterConfigError(
            "%s needs a replicated case (2-4): gateways re-originate "
            "through the multicast stack" % field
        )
    if degree < 1:
        raise ClusterConfigError("%s must be at least 1" % field)
    if case.voting and degree < 3:
        raise ClusterConfigError(
            "a voting deployment needs %s >= 3 so a majority of gateway "
            "copies masks one Byzantine gateway replica (got %d)" % (field, degree)
        )
    if degree > room:
        raise ClusterConfigError(
            "%s %d exceeds the %d processors free on its ring" % (field, degree, room)
        )


class ClusterConfig:
    """Layout and survivability knobs of one multi-ring cluster."""

    #: replicas of a group the placement engine picks when a deployment
    #: names neither ``on_procs`` nor ``degree``
    replication_degree = 3

    def __init__(
        self,
        num_rings=2,
        procs_per_ring=6,
        gateway_degree=3,
        case=SurvivabilityCase.MAJORITY_VOTING,
        seed=0,
        placement_mode="rendezvous",
        pid_base=0,
        wan_gateway_degree=0,
        site=None,
    ):
        """``pid_base``, ``wan_gateway_degree`` and ``site`` exist for
        :mod:`repro.wan`: a federation numbers each site's cluster from
        a disjoint global pid range, reserves ``wan_gateway_degree``
        backbone (ring 0) processors as the site's voted WAN gateway
        hosts, and labels the site's telemetry with its name."""
        _checked_int("num_rings", num_rings, 1, 4096)
        _checked_int("procs_per_ring", procs_per_ring, 1, 4096)
        _checked_int("gateway_degree", gateway_degree, 0, 4096)
        _checked_int("pid_base", pid_base, 0, 2**31)
        _checked_int("wan_gateway_degree", wan_gateway_degree, 0, 4096)
        if num_rings > 1:
            _check_link_degree("gateway_degree", gateway_degree, procs_per_ring, case)
        else:
            gateway_degree = 0
        if case.replicated and self.replication_degree > procs_per_ring:
            raise ClusterConfigError(
                "replication_degree %d needs %d processors but rings have %d "
                "(at most one replica per processor)"
                % (self.replication_degree, self.replication_degree, procs_per_ring)
            )
        if wan_gateway_degree:
            # Site gateways live on the backbone (ring 0), beside the
            # cluster gateways already reserved there.
            _check_link_degree(
                "wan_gateway_degree", wan_gateway_degree,
                procs_per_ring - gateway_degree, case,
            )
        self.num_rings = num_rings
        self.procs_per_ring = procs_per_ring
        self.gateway_degree = gateway_degree
        self.case = case
        self.seed = seed
        self.placement_mode = placement_mode
        self.pid_base = pid_base
        self.wan_gateway_degree = wan_gateway_degree
        self.site = site

    # ------------------------------------------------------------------
    # processor numbering: rings draw from disjoint global pid ranges
    # ------------------------------------------------------------------

    def ring_pids(self, ring_index):
        """The global processor ids of ring ``ring_index``."""
        self._check_ring(ring_index)
        base = self.pid_base + ring_index * self.procs_per_ring
        return tuple(range(base, base + self.procs_per_ring))

    def gateway_pids(self, ring_index):
        """The ring's gateway hosts: its highest ``gateway_degree`` pids."""
        pids = self.ring_pids(ring_index)
        if not self.gateway_degree:
            return ()
        return pids[-self.gateway_degree:]

    def wan_gateway_pids(self):
        """The site's WAN gateway hosts: the highest backbone (ring 0)
        pids that are not already cluster gateways."""
        if not self.wan_gateway_degree:
            return ()
        cluster_gateways = set(self.gateway_pids(0))
        free = [p for p in self.ring_pids(0) if p not in cluster_gateways]
        return tuple(free[-self.wan_gateway_degree:])

    def worker_pids(self, ring_index):
        """The ring's non-gateway pids, preferred for replica placement."""
        reserved = set(self.gateway_pids(ring_index))
        if ring_index == 0:
            reserved.update(self.wan_gateway_pids())
        return tuple(p for p in self.ring_pids(ring_index) if p not in reserved)

    def ring_of_pid(self, pid):
        ring = (pid - self.pid_base) // self.procs_per_ring
        self._check_ring(ring)
        return ring

    def _check_ring(self, ring_index):
        if not 0 <= ring_index < self.num_rings:
            raise ClusterConfigError(
                "ring %r out of range (cluster has %d rings)"
                % (ring_index, self.num_rings)
            )

    # ------------------------------------------------------------------
    # per-ring Immune configuration
    # ------------------------------------------------------------------

    def ring_config(self, ring_index):
        """A fresh :class:`ImmuneConfig` for one ring.

        Each ring gets its own :class:`~repro.multicast.config.
        MulticastConfig` (built by the :class:`ImmuneConfig`) because
        timeout resolution mutates it in place, scaled to that ring's
        membership size — the bug class the scaled-defaults regression
        tests pin down.
        """
        self._check_ring(ring_index)
        return ImmuneConfig(case=self.case, seed=self.seed)

    def __repr__(self):
        return "ClusterConfig(%d rings x %d procs, %s, gateways=%d)" % (
            self.num_rings,
            self.procs_per_ring,
            self.case.name,
            self.gateway_degree,
        )
