"""The cluster facade: several SecureRings behind one bind/invoke API.

A :class:`ClusterManager` owns one :class:`~repro.core.immune.
ImmuneSystem` per ring, all driven by a single shared discrete-event
scheduler (one timeline, deterministic across rings), numbered from
disjoint global processor-id ranges, sharing one key directory (a
gateway host is the same principal on both of its rings) and one
observability bundle seen through per-ring scoped views.  Workloads use
it exactly like a single deployment::

    cluster = ClusterManager(ClusterConfig(num_rings=2))
    server = cluster.deploy("ledger", LEDGER_IDL, factory)   # placed by hash
    client = cluster.deploy_client("driver")
    cluster.start()
    for pid, stub in cluster.client_stubs(client, LEDGER_IDL, server):
        stub.add(1)
    cluster.run(until=2.0)

Whether ``driver`` and ``ledger`` landed on the same ring or not is
invisible to the caller: the placement engine shards groups across
rings, and the gateway links carry cross-ring invocations with the same
voted, duplicate-suppressed, exactly-once semantics as intra-ring ones.

A cluster is one level of a :class:`Federation` — children joined at
their backbone rings by voted links — and :class:`repro.wan.WanManager`
is the next: there a child is a whole cluster whose ring 0 is the
backbone.  Everything that is the same job at both levels lives in the
base class.
"""

from repro.cluster.config import ClusterConfig, ClusterConfigError
from repro.cluster.gateway import Hop, LinkEnd, VotedLink
from repro.cluster.placement import PlacementEngine
from repro.core.immune import ImmuneSystem
from repro.obs.forensics import fault_id_for
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler


class Directory:
    """Where every object group lives: group -> (home child, replicas).

    ``home`` is a key of the owning federation's children: a ring index
    in a cluster, a site name in a WAN federation.  A federation of
    clusters passes its ``children`` so :meth:`home_ring` can ask the
    home site instead of storing the ring twice.
    """

    def __init__(self, children=None):
        self._entries = {}
        self._children = children

    def record(self, group_name, home, procs):
        if group_name in self._entries:
            raise ClusterConfigError("group %r already bound" % group_name)
        self._entries[group_name] = (home, tuple(procs))

    def rehome(self, group_name, home, procs):
        """Atomically repoint a bound group (live migration cutover).

        The gateway forwarders consult :meth:`home` at delivery time, so
        a rehome instantly re-routes cross-ring traffic toward the new
        home — no per-link reconfiguration step exists to get half-done.
        """
        if group_name not in self._entries:
            raise ClusterConfigError("group %r was never bound" % group_name)
        self._entries[group_name] = (home, tuple(procs))

    def home(self, group_name):
        entry = self._entries.get(group_name)
        return None if entry is None else entry[0]

    def home_ring(self, group_name):
        """The ring the group's replicas really run on, within its home."""
        home = self.home(group_name)
        if home is None or self._children is None:
            return home
        return self._children[home].directory.home_ring(group_name)

    def procs(self, group_name):
        entry = self._entries.get(group_name)
        return () if entry is None else entry[1]

    def groups(self):
        return sorted(self._entries)


class Federation:
    """Children on one simulation, every pair joined by a voted link.

    A child is anything with ``start`` / ``client_stubs`` / ``group`` /
    ``register_remote_group``: an :class:`~repro.core.immune.
    ImmuneSystem` (a ring of a cluster) or a :class:`ClusterManager`
    (a site of a WAN federation).  Subclasses keep their children in
    ``self._children`` (indexable by key), describe a child's backbone
    with :meth:`_end`, and call :meth:`_join` after adding each one.
    """

    #: this level's link vocabulary and transport
    hop = Hop()
    #: metric prefix of this level's gauges, and the link-count gauge
    _level, _links_gauge = "cluster", "cluster.gateway_links"
    #: labels on this level's gauges
    _gauge_labels = {}
    _error = ClusterConfigError

    def __init__(self, config, obs, scheduler=None, keystore=None, streams=None):
        self.config = config
        self.obs = obs
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.streams = streams if streams is not None else RngStreams(config.seed)
        #: one key directory for every child; when none is injected the
        #: first ring built mints it and the rest share it
        self.keystore = keystore
        self.directory = Directory()
        #: child keys in creation order
        self._keys = []
        #: (earlier child, later child) -> VotedLink, every pair joined
        self.links = {}
        self._started = False
        if obs is not None:
            obs.bind(self.scheduler)
            obs.registry.add_collector(self._collect_metrics)

    # ------------------------------------------------------------------
    # the link mesh
    # ------------------------------------------------------------------

    def _join(self, key):
        """Link the new child ``key`` to every child built before it."""
        for other in self._keys:
            self.links[(other, key)] = VotedLink(
                self.hop, self.directory, self._end(other), self._end(key)
            )
        self._keys.append(key)

    def _link(self, a, b):
        link = self.links.get((a, b)) or self.links.get((b, a))
        if link is None:
            raise self._error(
                "no %s link between %r and %r" % (self.hop.family, a, b)
            )
        return link

    def members_seen_from(self, group_name, key):
        """The members child ``key`` registers for ``group_name``: the
        real replicas at home; elsewhere the child's own gateway pids
        toward the home, so re-originated copies flow through the
        existing voters, which take a majority across the gateway
        replicas."""
        home = self.directory.home(group_name)
        if key == home:
            return self.directory.procs(group_name)
        return self._link(home, key).side_pids(key)

    def _collect_metrics(self, registry):
        level, labels = self._level, self._gauge_labels
        registry.gauge("%s.%ss" % (level, self.hop.scope), **labels).set(
            len(self._children)
        )
        registry.gauge(level + ".groups", **labels).set(len(self.directory.groups()))
        registry.gauge(self._links_gauge, **labels).set(len(self.links))

    # ------------------------------------------------------------------
    # binding and invocation: one API over all children
    # ------------------------------------------------------------------

    def _bind(self, handle, home):
        """Stamp, record and advertise a group just deployed on ``home``."""
        setattr(handle, self.hop.scope, home)
        self.directory.record(handle.group_name, home, handle.replica_procs)
        self._advertise(handle.group_name, home)
        return handle

    def _advertise(self, group_name, home):
        """Register the group as *foreign* on every child but its home."""
        for key in self._keys:
            if key != home:
                self._children[key].register_remote_group(
                    group_name, self.members_seen_from(group_name, key)
                )

    def client_stubs(self, client_handle, interface, server_handle):
        """Stubs for every client replica; the target may live anywhere."""
        home = self.directory.home(client_handle.group_name)
        return self._children[home].client_stubs(
            client_handle, interface, server_handle
        )

    def group(self, group_name):
        home = self.directory.home(group_name)
        if home is None:
            raise KeyError(group_name)
        return self._children[home].group(group_name)

    # ------------------------------------------------------------------
    # gateway fault injection (drills and the benches' Byzantine sections)
    # ------------------------------------------------------------------

    def corrupt_gateway(self, a, b, index=0, at_time=None, direction=None):
        """Make one gateway replica of the ``a``-``b`` link Byzantine.

        With ``at_time`` the corruption is armed through the scheduler;
        otherwise it is immediate.  ``direction`` (a child key) limits
        it to the forwarder carrying traffic *out of* that child —
        replies flowing the other way stay honest.  ``value_fault``
        ground truth is recorded against the replica's pid on the
        *destination-facing* side of each direction it corrupts — the
        side where its forged copies are voted down and attributed.
        Attribution leads to conviction and membership exclusion there,
        which silences the replica's reverse path too, so a
        both-directions corruption (``direction=None``, recorded
        against both pids) can only ever be attributed on the side that
        voted first; drills that gate on recall should pick a direction.
        """
        replica = self._link(a, b).replicas[index]
        if direction is None:
            targets = [replica.forward_ab, replica.forward_ba]
            culprits = (replica.pid_a, replica.pid_b)
        else:
            targets = [replica.forwarder_from(direction)]
            culprits = (targets[0].dst_pid,)
        self._arm(targets, at_time, "corrupt", "value_fault", culprits)
        return replica

    def _arm(self, targets, at_time, what, kind, culprits):
        """Set ``corrupt`` on every target now or at ``at_time``, and
        record ``kind`` ground truth against each culprit pid."""

        def arm():
            for target in targets:
                target.corrupt = True

        if at_time is None:
            arm()
        else:
            self.scheduler.at(
                at_time, arm, label="%s.%s" % (self.hop.family, what)
            )
        self._ground_truth(
            kind, culprits, at_time if at_time is not None else self.scheduler.now
        )

    def _ground_truth(self, kind, culprits, when):
        if self.obs is not None and self.obs.forensics is not None:
            for pid in culprits:
                self.obs.forensics.record_ground_truth(
                    fault_id_for(kind, pid, when), kind, pid, when
                )

    def _forensic(self, pid, etype, **fields):
        """One event on ``pid``'s flight recorder, forensics permitting."""
        if self.obs is not None and self.obs.forensics is not None:
            self.obs.forensics.recorder(pid).record(etype, **fields)

    # ------------------------------------------------------------------
    # lifecycle and reporting
    # ------------------------------------------------------------------

    def start(self):
        if self._started:
            return self
        self._started = True
        for key in self._keys:
            self._children[key].start()
        return self

    def run(self, until=None, max_events=None):
        if not self._started:
            self.start()
        self.scheduler.run(until=until, max_events=max_events)
        return self

    def gateway_stats(self):
        return {
            "%s-%s" % key: link.stats() for key, link in sorted(self.links.items())
        }

    def __repr__(self):
        return "%s(%r, %d groups)" % (
            type(self).__name__,
            self.config,
            len(self.directory.groups()),
        )


class ClusterManager(Federation):
    """A multi-ring Immune deployment on one shared simulation."""

    def __init__(
        self,
        config=None,
        obs=None,
        fault_plans=None,
        scheduler=None,
        keystore=None,
        streams=None,
        ring_base=0,
    ):
        """``fault_plans`` maps ring index -> :class:`FaultPlan` so
        drills can crash or corrupt processors of a specific ring.

        ``scheduler``/``keystore``/``streams`` let :mod:`repro.wan`
        embed several clusters (one per site) in one simulation: all
        sites share a timeline and a key directory, while each site's
        ``streams`` subtree keeps its RNG draws independent of its
        peers'.  ``ring_base`` is the cumulative ring count of the
        sites constructed before this one, so flight-recorder and trace
        shard indices stay globally unique across the federation.
        """
        super().__init__(
            config or ClusterConfig(), obs,
            scheduler=scheduler, keystore=keystore, streams=streams,
        )
        self.site = self.config.site
        self.ring_base = ring_base
        # On a federation the cluster-level gauges carry the site name,
        # or every site's values would collide in one unlabelled gauge;
        # single-site clusters keep their label sets unchanged.
        self._gauge_labels = {} if self.site is None else {"site": self.site}
        self.placement = PlacementEngine(self.config)
        self.rings = self._children = []
        #: pid -> Processor across all rings (pids are globally unique)
        self.processors = {}
        fault_plans = fault_plans or {}
        for ring_index in range(self.config.num_rings):
            self._build_ring(ring_index, fault_plans.get(ring_index))

    def _end(self, ring_index):
        return LinkEnd(
            ring_index,
            self.rings[ring_index],
            self.config.gateway_pids(ring_index),
            ring_index,
        )

    def _build_ring(self, ring_index, fault_plan=None):
        """One ring's full stack — scoped observability, an
        :class:`~repro.core.immune.ImmuneSystem` on the shared
        scheduler/keystore, gateway links to every existing ring."""
        ring_obs = None
        if self.obs is not None:
            ring_obs = self.obs.scoped(
                ring_index, site=self.site, shard=self.ring_base + ring_index
            )
        immune = ImmuneSystem(
            self.config.procs_per_ring,
            config=self.config.ring_config(ring_index),
            fault_plan=fault_plan,
            trace_kinds=frozenset(),
            obs=ring_obs,
            scheduler=self.scheduler,
            proc_ids=self.config.ring_pids(ring_index),
            keystore=self.keystore,
            streams=self.streams.spawn("ring%d" % ring_index),
        )
        self.keystore = immune.keystore
        self.rings.append(immune)
        self.processors.update(immune.processors)
        self._join(ring_index)
        return immune

    # ------------------------------------------------------------------
    # deployment: one API over all rings
    # ------------------------------------------------------------------

    def deploy(self, group_name, interface, servant_factory, ring=None, on_procs=None, degree=None):
        """Deploy a replicated server group, sharded by the placement
        engine unless ``ring`` (and optionally ``on_procs``) pins it."""
        ring, procs = self._resolve_placement(group_name, ring, on_procs, degree)
        return self._bind(
            self.rings[ring].deploy(group_name, interface, servant_factory, procs), ring
        )

    def deploy_client(self, group_name, ring=None, on_procs=None, degree=None):
        """Deploy a replicated client group (a pure invoker)."""
        ring, procs = self._resolve_placement(group_name, ring, on_procs, degree)
        return self._bind(self.rings[ring].deploy_client(group_name, procs), ring)

    def _resolve_placement(self, group_name, ring, on_procs, degree):
        if on_procs is not None:
            if ring is None:
                rings = {self.config.ring_of_pid(pid) for pid in on_procs}
                if len(rings) != 1:
                    raise ClusterConfigError(
                        "replicas of %r span rings %s: an object group must "
                        "live entirely on one ring" % (group_name, sorted(rings))
                    )
                ring = rings.pop()
            else:
                for pid in on_procs:
                    if self.config.ring_of_pid(pid) != ring:
                        raise ClusterConfigError(
                            "replica pid %d of %r is not on ring %d"
                            % (pid, group_name, ring)
                        )
            self.placement.place(group_name, degree=len(list(on_procs)), ring=ring)
            # The caller's explicit pids override the hash's choice of
            # processors; the engine still accounts the ring's load.
            return ring, tuple(on_procs)
        placement = self.placement.place(group_name, degree=degree, ring=ring)
        return placement.ring, placement.procs

    def register_remote_group(self, group_name, backbone_members):
        """Adopt a group that really lives on *another site*.

        The federation homes the foreign group on this site's backbone
        (ring 0) with the site's WAN-gateway pids as its members: local
        voters then take a majority across the WAN-gateway copies —
        masking one Byzantine site-gateway replica — and the existing
        cluster gateways route the backbone-homed group's traffic from
        every other local ring exactly as they would any ring-0 group.
        """
        self.directory.record(group_name, 0, backbone_members)
        self.rings[0].register_remote_group(group_name, backbone_members)
        self._advertise(group_name, 0)

    # ------------------------------------------------------------------
    # elasticity: runtime ring growth and rebalance scheduling
    # ------------------------------------------------------------------

    def add_ring(self):
        """Create a brand-new ring at runtime (an autoscaling split target).

        Builds the ring's full stack and registers every already-bound
        group as foreign on it — its members there are the new ring's
        gateway pids toward the home ring, so its future clients route
        through the gateways immediately and voters mask a Byzantine
        gateway from day one.  Needs a configuration that reserves
        processor-id headroom for growth
        (:class:`repro.elastic.ElasticConfig`).
        """
        grow = getattr(self.config, "grow_ring", None)
        if grow is None:
            raise ClusterConfigError(
                "runtime ring growth needs an elastic configuration "
                "(repro.elastic.ElasticConfig)"
            )
        ring_index = grow()
        immune = self._build_ring(ring_index)
        for group_name in self.directory.groups():
            immune.register_remote_group(
                group_name, self.members_seen_from(group_name, ring_index)
            )
        self.placement.add_ring(ring_index)
        if self._started:
            immune.start()
        return ring_index

    def rebalance_delta(self, new_layout):
        """The migrations separating the recorded layout from ``new_layout``."""
        return self.placement.rebalance_delta(self.placement.layout(), new_layout)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def surviving_members(self, ring_index):
        return self.rings[ring_index].surviving_members()

    def group_members(self, group_name, ring_index=None):
        """The group's membership as seen on its home ring (or another)."""
        if ring_index is None:
            ring_index = self.directory.home_ring(group_name)
        return self.rings[ring_index].group_members(group_name)
