"""Live object-group migration: hold, drain, transfer, cut over.

A migration moves one replicated group between rings with zero dropped
and zero duplicated invocations.  The protocol runs in four phases, all
driven by the shared deterministic scheduler under one *migration
epoch*:

1. **hold** — every Replication Manager of every ring parks new
   outbound invocations addressed to the migrating group (interception
   and operation numbering still run, so replica determinism across the
   client group's members is untouched; only the multicast is
   deferred);
2. **drain** — the coordinator polls the managers' pending-invocation
   accounting until every two-way invocation already multicast toward
   the group has been answered, plus a minimum drain interval that
   gives one-way stragglers (and their gateway hops) time to land;
3. **transfer + cutover** — in a single scheduler instant: the lowest
   live donor replica checkpoints the servant state and operation
   counter, the source ring withdraws the group, the destination ring
   installs fresh replicas from the checkpoint, the cluster directory
   rehomes the group (which instantly re-routes the gateway forwarders
   — they consult the directory at delivery time), every ring's group
   table is atomically rewritten (true members on the new home ring,
   that ring's gateway pids everywhere else), and the placement engine
   records the move;
4. **release** — the parked invocations multicast in interception
   order.  Each one marks the ``migration_held`` span stage at release,
   so the hold it sat through is priced into the critical path under
   the ``migration`` cause.

Zero-loss follows from the hold (nothing new enters the old home) plus
the drain (everything that did enter is answered before the checkpoint,
so the transferred state reflects it); zero-duplication follows because
a held frame is multicast exactly once, after cutover, and the
per-group ``DuplicateFilter`` machinery stays in place as the backstop.
Migrations serialise: one epoch at a time, queued FIFO.
"""

from collections import deque

from repro.cluster.config import ClusterConfigError
from repro.core.manager import STATE_CHECKPOINT


class MigrationError(Exception):
    """Raised on invalid or impossible migration requests."""


class _Job:
    __slots__ = ("group_name", "dst_ring", "done", "epoch", "src_ring",
                 "t_submit", "t_hold", "held")

    def __init__(self, group_name, dst_ring, done):
        self.group_name = group_name
        self.dst_ring = dst_ring
        self.done = done
        self.epoch = None
        self.src_ring = None
        self.t_submit = None
        self.t_hold = None
        self.held = 0


class MigrationCoordinator:
    """Serialises and executes live group migrations on one cluster."""

    #: seconds between drain checks, and the least time a hold lasts
    drain_poll = 0.02
    min_drain = 0.05

    def __init__(self, cluster):
        self.cluster = cluster
        #: completed migration records, in completion order
        self.completed = []
        #: callbacks fired with each finished job's record (benches and
        #: workloads hook per-epoch audits here)
        self.listeners = []
        self.epoch = 0
        self._queue = deque()
        self._active = None
        self.stats = {
            "migrations_started": 0,
            "migrations_completed": 0,
            "invocations_held": 0,
        }
        if cluster.obs is not None:
            cluster.obs.registry.derive_counters(
                self.stats, {key: "elastic." + key for key in self.stats}
            )

    @property
    def busy(self):
        return self._active is not None or bool(self._queue)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def migrate(self, group_name, dst_ring, done=None):
        """Queue a live migration of ``group_name`` to ``dst_ring``."""
        self.cluster.config._check_ring(dst_ring)
        home = self.cluster.directory.home_ring(group_name)
        if home is None:
            raise MigrationError("group %r was never bound" % group_name)
        handle = self.cluster.rings[home].group(group_name)
        if handle.interface is None:
            raise MigrationError(
                "client group %r cannot migrate (its invokers are its "
                "identity; move the servers instead)" % group_name
            )
        if self.cluster.state_factory(group_name) is None:
            raise MigrationError(
                "group %r has no servant_from_state factory: deploy it "
                "with one to make it migratable" % group_name
            )
        # Refused here, before any hold: found at cutover it would cost
        # every client of the group a drain window for nothing.
        if any(getattr(s, "get_state", None) is None for s in handle.servants.values()):
            raise MigrationError(
                "servant of %r exposes no get_state; cannot transfer" % group_name
            )
        job = _Job(group_name, dst_ring, done)
        job.t_submit = self.cluster.scheduler.now
        self._queue.append(job)
        self._pump()
        return job

    def _pump(self):
        if self._active is not None or not self._queue:
            return
        job = self._queue.popleft()
        self._active = job
        # Begin on a fresh scheduler event so submissions made from
        # inside delivery upcalls hold at a clean instant.
        self.cluster.scheduler.after(0.0, self._begin, job, label="elastic.migrate")

    # ------------------------------------------------------------------
    # phase 1: hold
    # ------------------------------------------------------------------

    def _begin(self, job):
        group_name = job.group_name
        job.src_ring = self.cluster.directory.home_ring(group_name)
        if job.src_ring == job.dst_ring:
            # The group moved (or was already) there while queued.
            self._finish(job, skipped=True)
            return
        self.epoch += 1
        job.epoch = self.epoch
        job.t_hold = self.cluster.scheduler.now
        self.stats["migrations_started"] += 1
        for manager in self._all_managers():
            manager.hold_group(group_name)
        self._event(
            job,
            "migration_begin",
            src=job.src_ring,
            dst=job.dst_ring,
        )
        self._poll_later(job)

    # ------------------------------------------------------------------
    # phase 2: drain
    # ------------------------------------------------------------------

    def _poll(self, job):
        pending = sum(
            manager.pending_to(job.group_name)
            for manager in self._all_managers()
            if not manager.processor.crashed
        )
        now = self.cluster.scheduler.now
        if pending == 0 and now - job.t_hold >= self.min_drain:
            self._cutover(job)
        else:
            self._poll_later(job)

    def _poll_later(self, job):
        self.cluster.scheduler.after(
            self.drain_poll, self._poll, job, label="elastic.drain"
        )

    # ------------------------------------------------------------------
    # phases 3 and 4: transfer + cutover, then release
    # ------------------------------------------------------------------

    def _cutover(self, job):
        cluster = self.cluster
        group_name = job.group_name
        src_immune = cluster.rings[job.src_ring]
        dst_immune = cluster.rings[job.dst_ring]
        handle = src_immune.group(group_name)
        degree = len(cluster.placement.placements[group_name].procs)
        donor = next(
            (
                pid
                for pid in handle.replica_procs
                if not src_immune.processors[pid].crashed
            ),
            None,
        )
        if donor is None:
            # Nothing has moved yet, so the epoch is abandoned rather
            # than raised out of the scheduler: the parked frames go to
            # the unchanged home, and the queue behind this job runs.
            self._release(job)
            self._finish(
                job,
                error="group %r has no live replica left to donate state"
                % group_name,
            )
            return
        op_counter, servant_state = STATE_CHECKPOINT.unpack(
            src_immune.managers[donor].capture_state(group_name)
        )
        src_immune.export_group(group_name)
        new_procs = cluster.placement.replica_procs(
            group_name, job.dst_ring, degree
        )
        dst_immune.adopt_group(
            handle,
            new_procs,
            cluster.state_factory(group_name),
            servant_state,
            op_counter,
        )
        # The rehome is the routing cutover: gateway forwarders check
        # the directory at delivery time, so from this instant every
        # copy addressed to the group flows toward the new home.
        cluster.directory.rehome(group_name, job.dst_ring, new_procs)
        handle.ring = job.dst_ring
        for ring_index, immune in enumerate(cluster.rings):
            members = cluster.members_seen_from(group_name, ring_index)
            for pid in sorted(immune.managers):
                immune.managers[pid].reregister_group(group_name, members)
        cluster.placement.move(group_name, job.dst_ring, new_procs)
        self._event(
            job,
            "migration_cutover",
            donor=donor,
            procs=tuple(new_procs),
        )
        # Release in the same instant: the parked frames multicast in
        # interception order and route to the new home.
        self._release(job)
        self._finish(job)

    def _release(self, job):
        for manager in self._all_managers():
            job.held += manager.held_for(job.group_name)
            manager.release_group(job.group_name)
        self.stats["invocations_held"] += job.held

    def _finish(self, job, skipped=False, error=None):
        now = self.cluster.scheduler.now
        record = {
            "group": job.group_name,
            "epoch": job.epoch,
            "src_ring": job.src_ring,
            "dst_ring": job.dst_ring,
            "held": job.held,
            "skipped": skipped,
            "submitted": job.t_submit,
            "completed": now,
            "hold_seconds": 0.0 if job.t_hold is None else now - job.t_hold,
        }
        if error is not None:
            record["error"] = error
            self._event(job, "migration_failed", held=job.held, error=error)
        elif not skipped:
            self.completed.append(record)
            self.stats["migrations_completed"] += 1
            self._event(job, "migration_complete", held=job.held)
        self._active = None
        for fn in list(self.listeners):
            fn(record)
        if job.done is not None:
            job.done(record)
        self._pump()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _all_managers(self):
        for immune in self.cluster.rings:
            for pid in sorted(immune.managers):
                yield immune.managers[pid]

    def _event(self, job, etype, **fields):
        # Recorded against the group's current home-ring anchor pid so
        # the merged timeline shows the epoch on the affected shard.
        anchor_ring = self.cluster.directory.home_ring(job.group_name)
        self.cluster._forensic(
            self.cluster.config.ring_pids(anchor_ring)[0],
            etype, group=job.group_name, epoch=job.epoch, **fields
        )
