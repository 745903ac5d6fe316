"""The federation facade: several sites' clusters behind one API.

A :class:`WanManager` owns one :class:`~repro.cluster.manager.
ClusterManager` per site — all driven by a single shared discrete-event
scheduler (one timeline across the whole federation), numbered from
disjoint global processor-id ranges, sharing one key directory and one
observability bundle — plus a :class:`~repro.cluster.gateway.VotedLink`
per site pair carrying the voted inter-site traffic over the
:class:`~repro.sim.network.WanTopology`.  Workloads use it exactly like
a single cluster::

    wan = WanManager(WanConfig(sites=("alpha", "beta")))
    server = wan.deploy("ledger", LEDGER_IDL, factory, site="alpha")
    client = wan.deploy_client("driver", site="beta")
    wan.start()
    for pid, stub in wan.client_stubs(client, LEDGER_IDL, server):
        stub.add(1)
    wan.run(until=5.0)

Whether ``driver`` and ``ledger`` share a site is invisible to the
caller: a remote group is registered at every other site as homed on
that site's backbone with the site's WAN-gateway pids as members, so
local voters mask one Byzantine site-gateway replica, local cluster
gateways route other rings' traffic toward the backbone unchanged, and
the site-gateway links carry the voted winners across the WAN with
exactly-once semantics.
"""

from repro.cluster.gateway import LinkEnd
from repro.cluster.manager import ClusterManager, Directory, Federation
from repro.cluster.placement import rendezvous_ranking
from repro.wan.config import WanConfig, WanConfigError
from repro.wan.gateway import WanHop


class WanManager(Federation):
    """A multi-site Immune federation on one shared simulation."""

    _level, _links_gauge = "wan", "wan.links"
    _error = WanConfigError

    def __init__(self, config=None, obs=None, fault_plan=None):
        """``fault_plan`` supplies the WAN-level partition windows (and
        any scheduled crashes the caller arms); intra-site LAN fault
        plans belong to the sites' own workload drivers."""
        super().__init__(config or WanConfig(), obs)
        self.topology = self.config.topology(fault_plan)
        self.hop = WanHop(
            self.topology, self.scheduler, self.streams.spawn("wan").stream("loss")
        )
        #: site name -> ClusterManager, in configuration order
        self.sites = self._children = {}
        self.directory = Directory(self.sites)
        for index, spec in enumerate(self.config.sites):
            self.sites[spec.name] = site = ClusterManager(
                self.config.cluster_config(index),
                obs=obs,
                scheduler=self.scheduler,
                keystore=self.keystore,
                streams=self.streams.spawn("site:%s" % spec.name),
                ring_base=self.config.ring_base(index),
            )
            self.keystore = site.keystore
            self._join(spec.name)

    def _end(self, name):
        """A site attaches at its backbone: ring 0, WAN-gateway pids."""
        site = self.sites[name]
        return LinkEnd(
            name, site.rings[0], site.config.wan_gateway_pids(), site.ring_base
        )

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def site_of_shard(self):
        """Global shard index -> site name, for per-site attribution."""
        mapping = {}
        for name, cluster in self.sites.items():
            for ring in range(cluster.config.num_rings):
                mapping[cluster.ring_base + ring] = name
        return mapping

    def shard_of_group(self):
        """Group name -> global shard of its *true* home ring."""
        return {
            name: self.sites[self.directory.home(name)].ring_base
            + self.directory.home_ring(name)
            for name in self.directory.groups()
        }

    # ------------------------------------------------------------------
    # deployment: one API over all sites
    # ------------------------------------------------------------------

    def deploy(
        self,
        group_name,
        interface,
        servant_factory,
        site=None,
        ring=None,
        on_procs=None,
        degree=None,
    ):
        """Deploy a replicated server group on one site (rendezvous-
        chosen unless pinned) and advertise it to every other site."""
        site = self._resolve_site(group_name, site)
        handle = self.sites[site].deploy(
            group_name, interface, servant_factory,
            ring=ring, on_procs=on_procs, degree=degree,
        )
        return self._bind(handle, site)

    def deploy_client(self, group_name, site=None, ring=None, on_procs=None, degree=None):
        """Deploy a replicated client group (a pure invoker) on one site."""
        site = self._resolve_site(group_name, site)
        handle = self.sites[site].deploy_client(
            group_name, ring=ring, on_procs=on_procs, degree=degree
        )
        return self._bind(handle, site)

    def _resolve_site(self, group_name, site):
        if site is None:
            # Deterministic site choice, same rendezvous hash as rings.
            return rendezvous_ranking(group_name, list(self.sites))[0]
        if site not in self.sites:
            raise WanConfigError(
                "unknown site %r (federation has %s)" % (site, list(self.sites))
            )
        return site

    # ------------------------------------------------------------------
    # fault injection (drills and the bench's Byzantine sections)
    # ------------------------------------------------------------------

    def compromise_site(self, site, at_time=None):
        """Turn a *whole site* Byzantine: every forwarder carrying data
        out of ``site`` corrupts what it sends, each replica differently.

        Because the compromised copies disagree with each other, no
        receiving voter ever assembles a majority — the compromise
        degrades to omission (fail-safe), conservation invariants hold,
        and honest sites keep serving.  Ground truth is recorded under
        the non-detectable ``site_compromise`` kind: with no delivered
        wrong value and no completed vote there is nothing for the
        divergence detector to attribute, so the scorecard reports the
        injection as suppressed rather than missed.
        """
        self._resolve_site(None, site)
        forwarders = [
            replica.forwarder_from(site)
            for key, link in sorted(self.links.items())
            if site in key
            for replica in link.replicas
        ]
        self._arm(
            forwarders, at_time, "compromise", "site_compromise",
            self.sites[site].config.wan_gateway_pids(),
        )
        return forwarders
