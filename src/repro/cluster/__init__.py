"""Multi-ring sharding: the Immune system at cluster scale.

The paper runs every object group on one SecureRing, so aggregate
throughput is capped by a single token circulation.  This package
composes several independent rings in one simulation — each with its
own Secure Multicast stack, membership, and Replication Managers —
and shards object groups across them:

* :mod:`repro.cluster.config` — ring layout and gateway sizing;
* :mod:`repro.cluster.placement` — deterministic rendezvous-hash
  placement of groups onto rings and replica sets;
* :mod:`repro.cluster.gateway` — the voted link: duplicate-suppressed
  re-origination between total orders that keeps exactly-once
  end-to-end even with one Byzantine gateway replica (the one
  implementation :mod:`repro.wan` reuses over a slower hop);
* :mod:`repro.cluster.manager` — the :class:`ClusterManager` facade:
  per-ring :class:`~repro.core.immune.ImmuneSystem` instances on one
  shared scheduler behind a single bind/invoke API, on the
  :class:`Federation` base it shares with :class:`repro.wan.WanManager`.

Each ring's stack is handed ``obs.scoped(ring, site, shard)`` of the
one shared :class:`~repro.obs.Observability` bundle: ring-labelled
metrics, and a hub and collector that stamp the ring's shard.

``python -m repro.bench cluster`` measures the aggregate throughput
scaling from one ring to several; ``docs/CLUSTER.md`` documents the
placement rules, the gateway protocol, and the failure semantics.
"""

from repro.cluster.config import ClusterConfig, ClusterConfigError
from repro.cluster.gateway import GatewayReplica, VotedLink
from repro.cluster.manager import ClusterManager, Directory, Federation
from repro.cluster.placement import (
    Placement,
    PlacementEngine,
    rendezvous_ranking,
    rendezvous_score,
)

__all__ = [
    "ClusterConfig",
    "ClusterConfigError",
    "ClusterManager",
    "Directory",
    "Federation",
    "GatewayReplica",
    "Placement",
    "PlacementEngine",
    "VotedLink",
    "rendezvous_ranking",
    "rendezvous_score",
]
