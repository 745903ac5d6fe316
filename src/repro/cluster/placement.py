"""Deterministic object-group placement across the cluster's rings.

Rendezvous (highest-random-weight) hashing maps every object group onto
one ring and onto a replica set inside that ring — the deterministic
group-to-processor mapping of Chord-style BFT service placement,
adapted to rings: each (group, bucket) pair gets a pseudo-random score
from a cryptographic hash, and the highest score wins.  The properties
that matter here:

* **deterministic** — the mapping is a pure function of the group name
  and the bucket id: every run of a seeded simulation places
  identically;
* **uniform** — scores are i.i.d. uniform per bucket, so groups spread
  evenly across rings without coordination;
* **minimally disruptive** — removing a ring only moves the groups that
  lived on it (every other group's winning score is unchanged), the
  classic rendezvous stability property.

The engine honours the paper's resilience arithmetic per ring: a group
is placed entirely within one ring (its voting and total order stay
single-ring), at most one replica per processor, and replicas prefer
the ring's non-gateway processors so a convicted gateway's exclusion
does not also cost application replicas.
"""

import hashlib

from repro.cluster.config import ClusterConfigError


def rendezvous_score(group_name, bucket):
    """The deterministic weight of ``group_name`` on ``bucket``.

    SHA-256 of ``group|bucket|0``, truncated to 64 bits — stable across
    processes, platforms, and Python hash randomisation (``hash()``
    would not be).  The ``|0`` suffix is part of the hashed token: every
    placement depends on it.
    """
    token = ("%s|%s|0" % (group_name, bucket)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


def rendezvous_ranking(group_name, buckets):
    """Buckets ordered by descending score (ties by bucket id)."""
    return sorted(buckets, key=lambda b: (-rendezvous_score(group_name, b), b))


class Placement:
    """Where one object group lives: its ring and its replica pids."""

    __slots__ = ("group_name", "ring", "procs")

    def __init__(self, group_name, ring, procs):
        self.group_name = group_name
        self.ring = ring
        self.procs = tuple(procs)

    def to_dict(self):
        return {
            "group": self.group_name,
            "ring": self.ring,
            "procs": list(self.procs),
        }

    def __repr__(self):
        return "Placement(%s -> ring %d on %s)" % (
            self.group_name,
            self.ring,
            list(self.procs),
        )


class PlacementEngine:
    """Assigns groups to rings and replica sets, deterministically.

    Two modes:

    * ``rendezvous`` — pure highest-random-weight choice of the ring;
      uniform in expectation, minimally disruptive under ring changes;
    * ``balanced`` — least-loaded ring first (load = replicas already
      placed), rendezvous score as the deterministic tie-break; used by
      the benches, where an even split across few rings matters more
      than stability.

    Within the chosen ring, replica pids are the group's rendezvous
    ranking over the ring's processors, preferring non-gateway pids
    whenever enough exist.
    """

    MODES = ("rendezvous", "balanced")

    def __init__(self, cluster_config):
        self.config = cluster_config
        self.mode = cluster_config.placement_mode
        if self.mode not in self.MODES:
            raise ClusterConfigError(
                "unknown placement mode %r (choose from %s)" % (self.mode, self.MODES)
            )
        #: ring index -> replicas placed so far (balanced mode's load)
        self.load = {ring: 0 for ring in range(cluster_config.num_rings)}
        #: group name -> Placement, in placement order
        self.placements = {}

    # ------------------------------------------------------------------
    # the mapping
    # ------------------------------------------------------------------

    def choose_ring(self, group_name, rings=None):
        """The ring ``group_name`` maps onto (without recording it).

        ``rings`` restricts the candidate set — the autoscaler proposes
        layouts over the currently active rings only.
        """
        rings = range(self.config.num_rings) if rings is None else sorted(rings)
        if self.mode == "balanced":
            return min(
                rings,
                key=lambda r: (
                    self.load[r],
                    -rendezvous_score(group_name, "ring:%d" % r),
                    r,
                ),
            )
        return max(
            rings,
            key=lambda r: (rendezvous_score(group_name, "ring:%d" % r), -r),
        )

    def replica_procs(self, group_name, ring, degree):
        """The group's replica pids on ``ring``: its rendezvous ranking
        of the ring's processors, non-gateway pids first."""
        workers = list(self.config.worker_pids(ring))
        gateways = [
            p for p in self.config.ring_pids(ring) if p not in set(workers)
        ]
        ranked = rendezvous_ranking(group_name, workers)
        if degree > len(ranked):
            # Not enough non-gateway processors; spill onto gateway
            # hosts (still at most one replica per processor).
            ranked = ranked + rendezvous_ranking(group_name, gateways)
        if degree > len(ranked):
            raise ClusterConfigError(
                "group %r needs %d replicas but ring %d has %d processors"
                % (group_name, degree, ring, len(ranked))
            )
        return tuple(sorted(ranked[:degree]))

    def place(self, group_name, degree=None, ring=None):
        """Choose and record the placement of one object group.

        ``degree`` defaults to the cluster's replication degree; ``ring``
        pins the group to a specific ring (the multi-branch bank pins
        branches; ordinary groups let the hash decide).
        """
        if group_name in self.placements:
            raise ClusterConfigError("group %r already placed" % group_name)
        if degree is None:
            degree = (
                self.config.replication_degree if self.config.case.replicated else 1
            )
        if degree < 1:
            raise ClusterConfigError("degree must be positive")
        if self.config.case.voting and degree < 2:
            raise ClusterConfigError(
                "majority voting on %r needs at least 2 replicas" % group_name
            )
        if ring is None:
            ring = self.choose_ring(group_name)
        else:
            self.config._check_ring(ring)
        placement = Placement(group_name, ring, self.replica_procs(group_name, ring, degree))
        self.placements[group_name] = placement
        self.load[ring] += degree
        return placement

    # ------------------------------------------------------------------
    # elasticity: ring growth, migration bookkeeping, rebalance deltas
    # ------------------------------------------------------------------

    def add_ring(self, ring):
        """Start accounting load for a ring created at runtime."""
        self.load.setdefault(ring, 0)

    def move(self, group_name, ring, procs):
        """Re-record a placed group after a live migration cutover."""
        placement = self.placements.get(group_name)
        if placement is None:
            raise ClusterConfigError("group %r was never placed" % group_name)
        self.load[placement.ring] -= len(placement.procs)
        self.placements[group_name] = Placement(group_name, ring, procs)
        self.load.setdefault(ring, 0)
        self.load[ring] += len(procs)
        return self.placements[group_name]

    def layout(self):
        """The current group -> ring mapping (a rebalance-delta input)."""
        return {name: p.ring for name, p in self.placements.items()}

    @staticmethod
    def rebalance_delta(old_layout, new_layout):
        """The deterministic move list between two group -> ring layouts.

        Returns ``[(group, old_ring, new_ring)]`` sorted by group name:
        exactly the groups whose ring changed, in a stable order — the
        migration schedule the autoscaler executes.  Groups present in
        only one layout are ignored (deploys and retirements are not
        migrations).
        """
        moves = []
        for name in sorted(set(old_layout) & set(new_layout)):
            if old_layout[name] != new_layout[name]:
                moves.append((name, old_layout[name], new_layout[name]))
        return moves

    def propose_layout(self, rings, migratable):
        """A rendezvous layout of ``migratable`` groups over ``rings``.

        Pure rendezvous choice regardless of the engine's mode: the
        proposal must be a function of (group, rings) alone so
        that repeated autoscaler decisions over the same active set are
        stable (no oscillating migrations).
        """
        rings = sorted(rings)
        return {
            name: max(rings, key=lambda r: (rendezvous_score(name, "ring:%d" % r), -r))
            for name in migratable
        }

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def distribution(self):
        """ring index -> sorted group names, for reports and tests."""
        out = {ring: [] for ring in range(self.config.num_rings)}
        for name in sorted(self.placements):
            out[self.placements[name].ring].append(name)
        return out

    def to_dict(self):
        return {
            "mode": self.mode,
            "placements": [
                self.placements[name].to_dict() for name in sorted(self.placements)
            ],
        }
