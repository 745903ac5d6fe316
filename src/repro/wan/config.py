"""WAN federation configuration: named sites and the links between them.

A federation is a *ring of rings*: every site runs its own multi-ring
cluster (a :class:`~repro.cluster.config.ClusterConfig` per site), and
the sites are joined by directed WAN links with their own latency and
correlated-loss parameters.  The knobs here size both
levels and are validated up front with named-range errors — a bad site
list or a hole in an asymmetric latency matrix fails at construction,
not deep inside simulation setup.

Two federation-specific resilience rules mirror the cluster's gateway
arithmetic one level up:

* each site reserves ``wan_gateway_degree`` backbone (ring 0)
  processors as its *site gateway* hosts — at least three under
  majority voting, so the receiving site's voters mask one Byzantine
  site-gateway replica exactly as three object replicas mask one
  corrupted replica;
* sites draw disjoint global processor-id ranges (``pid_base``), so
  flight recorders, trace shards, and metric labels stay unambiguous
  across the federation.
"""

from functools import partial

from repro.cluster.config import ClusterConfig, ClusterConfigError, _checked_int
from repro.core.config import SurvivabilityCase
from repro.sim.network import SimulationError, WanTopology


class WanConfigError(Exception):
    """Raised when a federation layout violates the resilience rules."""


_checked = partial(_checked_int, error=WanConfigError)


class SiteSpec:
    """The local shape of one site: its name and its cluster layout."""

    __slots__ = ("name", "num_rings")

    #: processors per ring, and cluster gateways per ring, at every site
    procs_per_ring = 10
    gateway_degree = 3

    def __init__(self, name, num_rings=1):
        if not isinstance(name, str) or not name:
            raise WanConfigError("site name must be a non-empty string, got %r" % (name,))
        self.name = name
        self.num_rings = _checked("num_rings[%s]" % name, num_rings, 1, 4096)

    def __repr__(self):
        return "SiteSpec(%r, %d rings x %d procs)" % (
            self.name,
            self.num_rings,
            self.procs_per_ring,
        )


class WanConfig:
    """Layout and survivability knobs of one multi-site federation.

    ``sites`` is a list of :class:`SiteSpec` (or bare site names, which
    take the default cluster shape).  ``latency``/``loss_prob``/
    ``loss_burst`` are either one scalar for every directed link or a
    complete ``{(src, dst): value}`` matrix — asymmetric routes are
    first-class, and a missing directed entry or a negative value is
    rejected here by name.  Every link has
    :class:`~repro.sim.network.WanTopology`'s bandwidth and header size.
    """

    #: replicas of a group placed without ``on_procs`` or ``degree``
    replication_degree = ClusterConfig.replication_degree
    #: backbone processors of every site that host its site gateways
    wan_gateway_degree = 3

    def __init__(
        self,
        sites=("alpha", "beta"),
        case=SurvivabilityCase.MAJORITY_VOTING,
        seed=0,
        latency=0.030,
        loss_prob=0.0,
        loss_burst=0.0,
    ):
        self.sites = tuple(
            spec if isinstance(spec, SiteSpec) else SiteSpec(spec) for spec in sites
        )
        if len(self.sites) < 2:
            raise WanConfigError(
                "a federation needs at least 2 sites, got %d" % len(self.sites)
            )
        names = [spec.name for spec in self.sites]
        for name in names:
            if names.count(name) > 1:
                raise WanConfigError("duplicate site name %r" % name)
        self.case = case
        self.seed = seed
        self.latency = latency
        self.loss_prob = loss_prob
        self.loss_burst = loss_burst
        # Probe the link matrices and per-site cluster layouts now:
        # WanTopology rejects missing directed entries and negative
        # values by name, ClusterConfig enforces the per-site gateway
        # arithmetic — surfacing both here instead of deep in setup.
        try:
            self.topology()
        except SimulationError as exc:
            raise WanConfigError(str(exc))
        try:
            for index in range(len(self.sites)):
                self.cluster_config(index)
        except ClusterConfigError as exc:
            raise WanConfigError(str(exc))

    # ------------------------------------------------------------------
    # derived layouts
    # ------------------------------------------------------------------

    def site_names(self):
        return tuple(spec.name for spec in self.sites)

    def pid_base(self, index):
        """First global pid of site ``index``: sites stack disjointly."""
        return sum(
            spec.num_rings * spec.procs_per_ring for spec in self.sites[:index]
        )

    def ring_base(self, index):
        """Cumulative ring count before site ``index`` — the first
        globally-unique shard index of that site's rings."""
        return sum(spec.num_rings for spec in self.sites[:index])

    def cluster_config(self, index):
        """The :class:`ClusterConfig` of one site, globally numbered."""
        spec = self.sites[index]
        return ClusterConfig(
            num_rings=spec.num_rings,
            procs_per_ring=spec.procs_per_ring,
            gateway_degree=spec.gateway_degree,
            case=self.case,
            seed=self.seed,
            pid_base=self.pid_base(index),
            wan_gateway_degree=self.wan_gateway_degree,
            site=spec.name,
        )

    def topology(self, fault_plan=None):
        """A fresh :class:`~repro.sim.network.WanTopology` for a run."""
        return WanTopology(
            self.site_names(),
            latency=self.latency,
            loss_prob=self.loss_prob,
            loss_burst=self.loss_burst,
            fault_plan=fault_plan,
        )

    def __repr__(self):
        return "WanConfig(%s, %s, wan_gateways=%d)" % (
            "+".join(self.site_names()),
            self.case.name,
            self.wan_gateway_degree,
        )
