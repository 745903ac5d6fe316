"""Shared broadcast LAN model.

The paper's testbed is a completely-connected 100 Mbps Ethernet.  The
model here is a single shared medium: each transmission occupies the
medium for ``bytes / bandwidth`` seconds, then propagates to every
receiver after a small (optionally jittered) delay.  Channels are
*unreliable* exactly as the system model in the paper requires:
datagrams may be dropped, corrupted in transit, or arbitrarily delayed,
under control of a :class:`repro.sim.faults.FaultPlan`.

Payloads are raw ``bytes``.  Corruption genuinely flips bits, so the
message-digest machinery in the Secure Multicast Protocols is exercised
for real rather than via a boolean flag.

A processor may carry an interception stage at its edge
(``Processor.stage``): the network hands it every transmission the
processor makes and every datagram it receives, and sends or delivers
what the stage returns.  A compromised host is modelled there
(:mod:`repro.multicast.adversary`); without a stage the edge costs one
attribute test, no scheduler event and no random draw.
"""

from repro.sim.scheduler import SimulationError


class NetworkParams:
    """Physical parameters of the simulated LAN."""

    #: per-frame overhead (Ethernet + IP + UDP headers)
    header_bytes = 42
    #: shared-medium bandwidth (the paper's 100 Mbps)
    bandwidth_bps = 100_000_000
    #: fixed propagation + interrupt/dispatch latency per hop
    propagation_delay = 20e-6

    def __init__(self, jitter=5e-6):
        #: uniform extra delay in ``[0, jitter)`` applied per receiver
        self.jitter = jitter

    def transmit_time(self, payload_bytes):
        """Seconds the medium is occupied by a frame of ``payload_bytes``."""
        return 8.0 * (payload_bytes + self.header_bytes) / self.bandwidth_bps


class Datagram:
    """One transmission on the wire.

    Every receiver whose copy arrives intact is handed the same object,
    so it is read-only: a handler never writes to it.  ``dst`` is the
    transmission's, ``None`` for a broadcast.  A copy corrupted in
    transit is a datagram of its own, with ``corrupted`` set.
    """

    __slots__ = ("src", "dst", "dst_port", "payload", "corrupted", "sent_at")

    def __init__(self, src, dst, dst_port, payload, sent_at):
        self.src = src
        self.dst = dst
        self.dst_port = dst_port
        self.payload = payload
        self.corrupted = False
        self.sent_at = sent_at

    def __repr__(self):
        return "Datagram(%s->%s:%s, %d bytes%s)" % (
            self.src,
            "ALL" if self.dst is None else self.dst,
            self.dst_port,
            len(self.payload),
            ", CORRUPTED" if self.corrupted else "",
        )


def _flip_bytes(payload, rng):
    """Return ``payload`` with 1-4 *distinct* bytes XOR-flipped.

    Indices are drawn without replacement so the count drawn is the
    count actually corrupted: two flips landing on the same index would
    otherwise compose (and could even cancel back to the original byte,
    making "corrupt" a silent no-op).
    """
    if not payload:
        return payload
    data = bytearray(payload)
    count = rng.randint(1, min(4, len(data)))
    for index in rng.sample(range(len(data)), count):
        data[index] ^= rng.randint(1, 255)
    return bytes(data)


class Network:
    """The shared LAN connecting all processors."""

    def __init__(self, scheduler, params=None, rng=None, fault_plan=None, obs=None):
        self.scheduler = scheduler
        self.params = params or NetworkParams()
        self._rng = rng
        self._fault_plan = fault_plan
        self._processors = {}
        self._medium_free_at = 0.0
        #: counters for reports
        self.stats = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "corrupted": 0,
            "bytes_sent": 0,
        }
        if obs is not None:
            obs.registry.derive_counters(self.stats, {
                "sent": "net.frames_sent",
                "bytes_sent": "net.bytes_sent",
                "delivered": "net.frames_delivered",
                "dropped": "net.frames_dropped",
                "corrupted": "net.frames_corrupted",
            })

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def add_processor(self, processor):
        if processor.proc_id in self._processors:
            raise SimulationError("duplicate processor id %r" % (processor.proc_id,))
        self._processors[processor.proc_id] = processor
        processor.attach(self)

    def processor(self, proc_id):
        return self._processors[proc_id]

    def processor_ids(self):
        return sorted(self._processors)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def unicast(self, src_id, dst_id, dst_port, payload):
        """Send ``payload`` bytes from ``src_id`` to ``dst_id`` only."""
        self._transmit(src_id, dst_port, payload, dst_id)

    def broadcast(self, src_id, dst_port, payload):
        """Send ``payload`` to every *other* processor on the LAN.

        Local loop-back is the responsibility of the protocol endpoint
        (it already holds the message), matching a real multicast NIC
        configured without self-delivery.
        """
        self._transmit(src_id, dst_port, payload, None)

    def _transmit(self, src_id, dst_port, payload, dst):
        """Put one transmission through the sender's edge: a processor
        with an interception stage sends what its ``outbound`` returns."""
        sender = self._processors.get(src_id)
        if sender is None or sender.crashed:
            return
        if sender.stage is None:
            self._send(src_id, dst_port, payload, dst)
            return
        for payload, dst in sender.stage.outbound(dst_port, payload, dst):
            self._send(src_id, dst_port, payload, dst)

    def _send(self, src_id, dst_port, payload, dst):
        if not isinstance(payload, (bytes, bytearray)):
            raise SimulationError("network payloads must be bytes, got %r" % type(payload))
        if dst is None:
            receivers = [pid for pid in self._processors if pid != src_id]
        else:
            receivers = (dst,)
        payload = bytes(payload)
        self.stats["sent"] += 1
        self.stats["bytes_sent"] += len(payload) + self.params.header_bytes
        now = self.scheduler.now
        start = max(now, self._medium_free_at)
        end = start + self.params.transmit_time(len(payload))
        self._medium_free_at = end
        shared = Datagram(src_id, dst, dst_port, payload, now)
        rng = self._rng
        plan = self._fault_plan
        propagation = self.params.propagation_delay
        jitter = self.params.jitter if rng is not None else 0.0
        at = self.scheduler.at
        for dst_id in receivers:
            # The RNG is drawn in a fixed order (loss, corruption,
            # jitter), each only where its probability is positive: a
            # seeded run depends on it.
            faults = None if plan is None else plan.faults_at(src_id, dst_id, now)
            datagram = shared
            delay = propagation
            if faults is not None:
                if faults.loss_prob > 0.0 and rng.random() < faults.loss_prob:
                    self.stats["dropped"] += 1
                    continue
                if faults.corrupt_prob > 0.0 and rng.random() < faults.corrupt_prob:
                    datagram = Datagram(src_id, dst, dst_port, _flip_bytes(payload, rng), now)
                    datagram.corrupted = True
                    self.stats["corrupted"] += 1
            if jitter:
                # ``uniform(0.0, jitter)`` is ``0.0 + jitter * random()``:
                # the same float, one call fewer
                delay += jitter * rng.random()
            if faults is not None:
                delay += faults.extra_delay
            at(end + delay, self._deliver, dst_id, datagram, label="net.deliver")

    def _deliver(self, dst_id, datagram):
        receiver = self._processors.get(dst_id)
        if receiver is None or receiver.crashed:
            return
        self.stats["delivered"] += 1
        if receiver.stage is not None:
            datagram = receiver.stage.inbound(datagram)
            if datagram is None:
                return
        handler = receiver._handlers.get(datagram.dst_port)
        if handler is not None:
            handler(datagram)


# ----------------------------------------------------------------------
# WAN site abstraction
# ----------------------------------------------------------------------

class WanLinkParams:
    """Physical parameters of one *directed* inter-site WAN link."""

    __slots__ = ("latency", "bandwidth_bps", "loss_prob", "loss_burst")

    def __init__(self, latency, bandwidth_bps, loss_prob=0.0, loss_burst=0.0):
        #: one-way propagation latency in seconds (the RTT of a site
        #: pair is the sum of its two directed latencies)
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        #: probability that a send starts a loss burst
        self.loss_prob = loss_prob
        #: seconds a loss burst persists: WAN loss is correlated (a
        #: congested or flapping path drops trains of packets, not
        #: isolated ones), so one drawn loss drops everything on the
        #: directed link for this long
        self.loss_burst = loss_burst

    def __repr__(self):
        return "WanLinkParams(%.1fms, %.1fMbps, loss=%g/%gs)" % (
            self.latency * 1e3,
            self.bandwidth_bps / 1e6,
            self.loss_prob,
            self.loss_burst,
        )


class WanTopology:
    """Named sites joined by asymmetric point-to-point WAN links.

    Unlike the shared-medium :class:`Network` (one LAN inside a site),
    inter-site traffic rides dedicated directed links: each ordered
    site pair has its own latency, bandwidth, and correlated-loss
    parameters, supplied either as one scalar for every link or as a
    complete ``{(src, dst): value}`` matrix.  Partitions come from the
    attached :class:`~repro.sim.faults.FaultPlan`
    (``schedule_partition``), so a drill can cut a site off and heal it
    on the simulation clock.

    The topology is a passive model: the WAN gateways ask it whether a
    send survives (:meth:`should_drop`) and how long it takes
    (:meth:`transit_time`); it never touches the scheduler itself.
    """

    def __init__(
        self,
        sites,
        latency=0.030,
        bandwidth_bps=10_000_000,
        loss_prob=0.0,
        loss_burst=0.0,
        header_bytes=58,
        fault_plan=None,
    ):
        self.sites = tuple(sites)
        if len(set(self.sites)) != len(self.sites):
            raise SimulationError("duplicate site names in %r" % (self.sites,))
        #: per-frame overhead (Ethernet + IP + UDP + tunnel headers)
        self.header_bytes = header_bytes
        self.fault_plan = fault_plan
        self._links = {}
        for src in self.sites:
            for dst in self.sites:
                if src == dst:
                    continue
                self._links[(src, dst)] = WanLinkParams(
                    latency=self._resolve("latency", latency, src, dst),
                    bandwidth_bps=self._resolve(
                        "bandwidth_bps", bandwidth_bps, src, dst
                    ),
                    loss_prob=self._resolve("loss_prob", loss_prob, src, dst),
                    loss_burst=self._resolve("loss_burst", loss_burst, src, dst),
                )
        #: directed link -> sim time until which a loss burst drops all
        self._burst_until = {}

    @staticmethod
    def _resolve(name, value, src, dst):
        """One scalar for every link, or a complete directed matrix."""
        if isinstance(value, dict):
            if (src, dst) not in value:
                raise SimulationError(
                    "WAN %s matrix is missing the directed entry (%r, %r)"
                    % (name, src, dst)
                )
            value = value[(src, dst)]
        if value < 0:
            raise SimulationError(
                "WAN %s for (%r, %r) must be >= 0, got %r" % (name, src, dst, value)
            )
        return value

    def params(self, src_site, dst_site):
        link = self._links.get((src_site, dst_site))
        if link is None:
            raise SimulationError(
                "no WAN link %r -> %r (sites: %s)"
                % (src_site, dst_site, list(self.sites))
            )
        return link

    def transit_time(self, src_site, dst_site, payload_bytes):
        """One-way flight time of a frame on the directed link."""
        link = self.params(src_site, dst_site)
        wire = 8.0 * (payload_bytes + self.header_bytes) / link.bandwidth_bps
        return link.latency + wire

    def rtt(self, site_a, site_b):
        """Round-trip propagation latency between two sites."""
        return self.params(site_a, site_b).latency + self.params(site_b, site_a).latency

    def partitioned(self, src_site, dst_site, now):
        plan = self.fault_plan
        if plan is None:
            return False
        return plan.is_partitioned(src_site, dst_site, now)

    def should_drop(self, src_site, dst_site, now, rng):
        """Whether a send on the directed link is lost at ``now``.

        Partitions drop deterministically; otherwise correlated loss
        applies: a drawn loss opens a burst window during which every
        subsequent send on the same directed link is dropped without a
        further draw (deterministic, so byte-identity holds).
        """
        if self.partitioned(src_site, dst_site, now):
            return True
        link = self.params(src_site, dst_site)
        if link.loss_prob <= 0.0:
            return False
        key = (src_site, dst_site)
        if now < self._burst_until.get(key, -1.0):
            return True
        if rng.random() < link.loss_prob:
            self._burst_until[key] = now + link.loss_burst
            return True
        return False

    def to_dict(self):
        """The directed link matrix, for bench artefacts."""
        return {
            "sites": list(self.sites),
            "links": {
                "%s->%s" % key: {
                    "latency": link.latency,
                    "bandwidth_bps": link.bandwidth_bps,
                    "loss_prob": link.loss_prob,
                    "loss_burst": link.loss_burst,
                }
                for key, link in sorted(self._links.items())
            },
        }

    def __repr__(self):
        return "WanTopology(%s)" % ", ".join(self.sites)
