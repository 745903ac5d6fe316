"""WAN federation: rings of rings across sites.

The paper's Immune system replicates objects over SecureRing on a
single LAN; this package composes whole *sites* — each a multi-ring
:mod:`repro.cluster` deployment — into one federation that survives
the loss, partition, or Byzantine compromise of an entire facility:

* :mod:`repro.wan.config` — site specs, disjoint global numbering, and
  the directed inter-site link matrices, validated up front;
* :mod:`repro.wan.gateway` — the WAN hop: what a flight over the
  :class:`~repro.sim.network.WanTopology` changes about the cluster's
  voted link, which keeps exactly-once delivery with one Byzantine
  site-gateway replica or one fully compromised site;
* :mod:`repro.wan.manager` — the :class:`WanManager` facade: per-site
  :class:`~repro.cluster.manager.ClusterManager` instances on one
  shared scheduler behind a single deploy/invoke API.

``python -m repro.bench wan`` runs the geo-replicated bank drill and
the RTT-independence sweep; ``docs/WAN.md`` documents the site model,
the federation topology, and the failure semantics.
"""

from repro.wan.config import SiteSpec, WanConfig, WanConfigError
from repro.wan.gateway import WanHop
from repro.wan.manager import WanManager

__all__ = [
    "SiteSpec",
    "WanConfig",
    "WanConfigError",
    "WanHop",
    "WanManager",
]
