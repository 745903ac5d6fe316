"""Load-driven ring splits and merges over the live telemetry curves.

The :class:`Autoscaler` rides the shared scheduler at a fixed decision
period and reads per-ring delivered-invocation rates from a
:class:`~repro.obs.series.SeriesSampler` (the ``rm.delivered_to_orb``
family carries a ``ring=`` label on every clustered deployment).  Two
actions:

* **split** — when the hottest active ring's rate crosses
  ``split_threshold`` (a constant of :class:`AutoscalerPolicy`, like
  every threshold here) and the configuration has growth headroom, a
  new ring is created and the hot ring's migratable groups are rebalanced
  between the two along the deterministic rendezvous proposal
  (:meth:`~repro.cluster.placement.PlacementEngine.propose_layout` +
  :meth:`~repro.cluster.placement.PlacementEngine.rebalance_delta`);
* **merge** — when the two coldest active rings together stay under
  ``merge_threshold``, the coldest ring's groups migrate onto the
  other and the emptied ring is retired from the active set (its
  membership keeps running — a retired ring is a warm spare the next
  split can reuse before growing the configuration).

Every decision is a pure function of simulated time and seeded metric
values, so autoscaling reproduces byte-identically across runs and perf
modes.  Decisions are skipped while a migration epoch is in flight and
during the post-action cooldown, which keeps the migration schedule
serial and prevents oscillation.
"""


class AutoscalerPolicy:
    """The thresholds and pacing of every autoscaler."""

    #: seconds between decisions, and the rate window each one reads
    decision_period = 0.25
    window = 0.25
    #: split the hottest active ring at this many delivered invocations
    #: a second
    split_threshold = 60.0
    #: merge the two coldest active rings when together they stay at or
    #: under this rate (well below ``split_threshold``, or the
    #: autoscaler oscillates)
    merge_threshold = 5.0
    #: seconds after an action during which no decision is taken
    cooldown = 1.0
    #: never merge below this many active rings
    min_rings = 1
    #: the per-ring series whose rate is the load signal
    signal_family = "rm.delivered_to_orb"


class Autoscaler:
    """Splits hot rings and merges cold ones, deterministically."""

    #: the thresholds and pacing every decision reads
    policy = AutoscalerPolicy

    def __init__(self, cluster, coordinator, sampler):
        self.cluster = cluster
        self.coordinator = coordinator
        self.sampler = sampler
        self._handle = None
        self._last_action = None
        #: decision log for reports: (time, action, detail) tuples
        self.decisions = []
        self.stats = {"autoscaler_decisions": 0, "splits": 0, "merges": 0}
        if cluster.obs is not None:
            cluster.obs.registry.derive_counters(
                self.stats, {key: "elastic." + key for key in self.stats}
            )

    def start(self):
        """Arm the periodic decision loop on the cluster's scheduler."""
        if self._handle is None:
            self._handle = self.cluster.scheduler.every(
                self.policy.decision_period, self._decide, label="elastic.autoscale"
            )
        return self

    def stop(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # the signal
    # ------------------------------------------------------------------

    def ring_rates(self):
        """Per-active-ring delivered-invocation rates over the window."""
        now = self.cluster.scheduler.now
        t0 = now - self.policy.window
        rates = {ring: 0.0 for ring in sorted(self.cluster.active_rings)}
        for series in self.sampler.family(self.policy.signal_family):
            ring = dict(series.labels).get("ring")
            if ring is None:
                continue
            ring = int(ring)
            if ring in rates:
                rates[ring] += series.delta(t0, now) / self.policy.window
        return rates

    # ------------------------------------------------------------------
    # the decision loop
    # ------------------------------------------------------------------

    def _decide(self):
        self.stats["autoscaler_decisions"] += 1
        if self.coordinator.busy:
            return  # one reconfiguration at a time
        now = self.cluster.scheduler.now
        if (
            self._last_action is not None
            and now - self._last_action < self.policy.cooldown
        ):
            return
        rates = self.ring_rates()
        if not rates:
            return
        # Hottest first; ties break toward the lower ring index so the
        # choice is a pure function of the (deterministic) rates.
        ranked = sorted(rates, key=lambda r: (-rates[r], r))
        hottest = ranked[0]
        if rates[hottest] >= self.policy.split_threshold:
            self._split(hottest, now)
            return
        if len(ranked) > self.policy.min_rings:
            coldest = ranked[-1]
            second = ranked[-2]
            if rates[coldest] + rates[second] <= self.policy.merge_threshold:
                self._merge(coldest, second, now)

    def _split(self, hot_ring, now):
        cluster = self.cluster
        movable = cluster.migratable_groups(hot_ring)
        if not movable:
            return  # nothing this split could rebalance
        spare = sorted(
            set(range(cluster.config.num_rings)) - cluster.active_rings
        )
        if spare:
            new_ring = spare[0]  # reuse a ring retired by a merge
            cluster.active_rings.add(new_ring)
        elif cluster.config.can_grow():
            new_ring = cluster.add_ring()
            cluster.active_rings.add(new_ring)
        else:
            return  # at max_rings with no spares: nothing to split onto
        proposal = cluster.placement.propose_layout([hot_ring, new_ring], movable)
        moves = [
            (group, hot_ring, new_ring)
            for group, _, ring in cluster.rebalance_delta(proposal)
            if ring == new_ring
        ]
        if not moves:
            # Degenerate rendezvous outcome (every group preferred the
            # old ring): force the lexicographically last group over so
            # a split always relieves the hot ring.
            moves = [(sorted(movable)[-1], hot_ring, new_ring)]
        for group, _, dst in moves:
            self.coordinator.migrate(group, dst)
        self._acted(now, "split", {
            "hot_ring": hot_ring,
            "new_ring": new_ring,
            "groups": sorted(g for g, _, _ in moves),
        })
        self.stats["splits"] += 1

    def _merge(self, cold_ring, into_ring, now):
        cluster = self.cluster
        movable = cluster.migratable_groups(cold_ring)
        for group in movable:
            self.coordinator.migrate(group, into_ring)
        cluster.active_rings.discard(cold_ring)
        self._acted(now, "merge", {
            "cold_ring": cold_ring,
            "into_ring": into_ring,
            "groups": sorted(movable),
        })
        self.stats["merges"] += 1

    def _acted(self, now, action, detail):
        self._last_action = now
        self.decisions.append((now, action, detail))
        self.cluster._forensic(
            self.cluster.config.ring_pids(0)[0],
            "autoscale_" + action, **{
                key: value if not isinstance(value, list) else tuple(value)
                for key, value in detail.items()
            }
        )
