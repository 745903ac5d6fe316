"""The WAN hop: the voted link's transport between two sites.

The federation's inter-site links are :class:`~repro.cluster.gateway.
VotedLink` objects one level up — the *site* takes the place of the
ring, each site's backbone (ring 0) is the ring the link attaches to,
and replica ``i`` is the tunnel pair of the two sites' ``i``-th
WAN-gateway processors.  Observe, vote, suppress duplicates and
re-originate are the link's; this module supplies only what a WAN
changes.

Unlike a chassis hop (two NICs on one host), a WAN forward is not
instantaneous: the winner crosses the :class:`~repro.sim.network.
WanTopology` link, paying the directed latency + serialisation time,
and may be dropped by a partition window or a correlated loss burst —
both decided *at send time*, so traffic already in flight when a
partition begins still lands.  The ``wan_forwarded`` span stages are
marked when the copy *lands* on the destination backbone, so their
stage deltas carry the WAN flight time and the critical-path report
prices the ``wan_hop`` cause straight off the latency matrix.
"""

from repro.cluster.gateway import Hop


class WanHop(Hop):
    """A flight across one federation's :class:`WanTopology`."""

    family = "wan"
    scope = "site"
    cost = 40e-6
    lossy = True

    def __init__(self, topology, scheduler, rng):
        self.topology = topology
        self._scheduler = scheduler
        #: the federation-level loss draw stream (partitions draw nothing)
        self._rng = rng

    @staticmethod
    def corrupted(body, index):
        """A Byzantine site gateway's corruption, distinct per replica.

        Flipping a replica-index-dependent byte makes a *whole-site*
        compromise fail safe: the compromised site's replicas disagree with
        each other as well as with the truth, so the receiving voters never
        assemble a majority and deliver nothing — omission, not a wrong
        value.  (A single corrupt replica is simply outvoted 2-of-3.)
        """
        if not body:
            return bytes([0x80 + (index & 0x7F)])
        pos = index % len(body)
        return body[:pos] + bytes([body[pos] ^ 0xFF]) + body[pos + 1:]

    def send(self, src, dst, nbytes, land, *args):
        now = self._scheduler.now
        topology = self.topology
        # Loss and partitions are decided at send time: cutting a cable
        # does not recall packets already in flight.
        if topology.should_drop(src, dst, now, self._rng):
            return {"partitioned": topology.partitioned(src, dst, now)}
        self._scheduler.at(
            now + topology.transit_time(src, dst, nbytes),
            land, *args, label="wan.deliver",
        )
        return None
