"""The elastic cluster facade: a ClusterManager that changes shape.

An :class:`ElasticCluster` is a :class:`~repro.cluster.manager.
ClusterManager` built on an :class:`~repro.elastic.config.ElasticConfig`
with three runtime capabilities layered on top:

* **churn** — :meth:`grow_processor` wires a brand-new processor into a
  live ring and admits it through the membership protocol (signed join,
  proposal/commit rounds, timeout re-derivation for the installed
  population); :meth:`retire_processor` takes one out by going silent
  and letting the same protocol detect and exclude it — reconfiguration
  is membership-driven in both directions;
* **migration** — :meth:`migrate` queues a live group move on the
  cluster's :class:`~repro.elastic.migration.MigrationCoordinator`;
  groups are migratable when deployed with a ``servant_from_state``
  factory (the state-transfer recipe);
* **autoscaling** — :meth:`enable_autoscaler` arms an
  :class:`~repro.elastic.autoscaler.Autoscaler` on a telemetry sampler.

``active_rings`` tracks which rings currently hold application groups:
a merge retires a ring from the set without tearing its membership
down, and the next split reuses a retired ring before growing the
configuration.
"""

from repro.cluster.manager import ClusterManager
from repro.elastic.autoscaler import Autoscaler
from repro.elastic.config import ElasticConfig
from repro.elastic.migration import MigrationCoordinator


class ElasticCluster(ClusterManager):
    """A multi-ring deployment that grows, shrinks, and rebalances."""

    def __init__(self, config=None, **kwargs):
        super().__init__(config=config or ElasticConfig(), **kwargs)
        #: rings currently holding (or eligible for) application groups
        self.active_rings = set(range(self.config.num_rings))
        #: group name -> servant_from_state factory (migratability)
        self._state_factories = {}
        self.coordinator = MigrationCoordinator(self)
        self.autoscaler = None
        self.stats = {"churn_joins": 0, "churn_retirements": 0}
        if self.obs is not None:
            self.obs.registry.derive_counters(
                self.stats, {key: "elastic." + key for key in self.stats}
            )

    # ------------------------------------------------------------------
    # deployment: migratability rides along
    # ------------------------------------------------------------------

    def deploy(self, group_name, interface, servant_factory, ring=None,
               on_procs=None, degree=None, servant_from_state=None):
        """Deploy a server group; ``servant_from_state(state_bytes)``
        makes it migratable (it is the adopt-side servant recipe)."""
        handle = super().deploy(
            group_name, interface, servant_factory,
            ring=ring, on_procs=on_procs, degree=degree,
        )
        if servant_from_state is not None:
            self._state_factories[group_name] = servant_from_state
        return handle

    def state_factory(self, group_name):
        return self._state_factories.get(group_name)

    def migratable_groups(self, ring_index):
        """Server groups homed on ``ring_index`` that can migrate."""
        return sorted(
            group
            for group in self._state_factories
            if self.directory.home_ring(group) == ring_index
        )

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------

    def grow_processor(self, ring_index):
        """Add a brand-new processor to a live ring; returns its pid.

        The admission is entirely membership-protocol-driven: the new
        principal's keys are provisioned, its signed join request goes
        through the proposal/commit rounds, and the installation
        re-derives the token-rotation timeouts for the larger
        population before resyncing the group table from a donor.
        """
        pid = self.config.allocate_churn_pid(ring_index)
        immune = self.rings[ring_index]
        immune.join_processor(pid)
        self.processors[pid] = immune.processors[pid]
        self.stats["churn_joins"] += 1
        self._forensic(pid, "churn_join", ring=ring_index)
        return pid

    def retire_processor(self, pid):
        """Take a processor out of service by planned silence.

        Retirement reuses the survivability machinery end to end: the
        processor goes silent, the membership protocol detects the
        silence and excludes it, and its timeouts stay at the larger
        derived values (re-derivation never tightens under a live
        protocol).  The planned crash is registered as ground truth so
        the forensic scorecard attributes the exclusion as a true
        positive instead of a phantom detection.
        """
        self._ground_truth("crash", (pid,), self.scheduler.now)
        self._forensic(pid, "churn_retire")
        self.stats["churn_retirements"] += 1
        self.processors[pid].crash()

    # ------------------------------------------------------------------
    # migration and autoscaling
    # ------------------------------------------------------------------

    def migrate(self, group_name, dst_ring, done=None):
        """Queue a live migration (see :mod:`repro.elastic.migration`)."""
        return self.coordinator.migrate(group_name, dst_ring, done=done)

    def enable_autoscaler(self, sampler):
        """Arm the autoscaler on ``sampler`` (a SeriesSampler)."""
        self.autoscaler = Autoscaler(self, self.coordinator, sampler).start()
        return self.autoscaler
