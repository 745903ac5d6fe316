"""Fault-injection plans.

Table 1 of the paper enumerates the fault classes the Immune system
handles.  :class:`FaultPlan` is the single knob through which an
experiment injects the *communication*-level classes (message loss,
message corruption, arbitrary delay) and schedules *processor*-level
crashes.  Object-replica faults (value faults, send omission, replica
crash) are injected higher in the stack, by wrapping application
servants — see :mod:`repro.core.replica` — and malicious *protocol*
behaviour (mutant tokens, masquerade, silence, ...) by the rules of
:mod:`repro.multicast.adversary` at a compromised processor's network
edge (``Processor.stage``).

All probabilistic decisions draw from RNG streams owned by the caller,
so a plan is fully reproducible from the master seed.
"""


class LinkFaults:
    """Loss/corruption/delay settings for one directed link or globally."""

    def __init__(self, loss_prob=0.0, corrupt_prob=0.0, extra_delay=0.0):
        self.loss_prob = loss_prob
        self.corrupt_prob = corrupt_prob
        self.extra_delay = extra_delay


class FaultPlan:
    """Describes when and where communication faults occur.

    Per-link settings override the global default.  Faults can be
    windowed in time with ``active_from``/``active_until`` so that an
    experiment can, e.g., run cleanly, inject a lossy period, and then
    verify recovery.
    """

    def __init__(self, default=None, active_from=0.0, active_until=None):
        self.default = default or LinkFaults()
        self.links = {}
        self.active_from = active_from
        self.active_until = active_until
        #: scheduled crash times by processor id (informational; the
        #: harness arms these with :meth:`arm_crashes`)
        self.crash_times = {}
        #: scheduled WAN partition windows (see :meth:`schedule_partition`)
        self.partitions = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def set_link(self, src, dst, faults):
        """Override fault settings for the directed link ``src -> dst``."""
        self.links[(src, dst)] = faults
        return self

    def set_processor_egress(self, src, faults, processor_ids):
        """Apply ``faults`` to every link leaving ``src``."""
        for dst in processor_ids:
            if dst != src:
                self.links[(src, dst)] = faults
        return self

    def schedule_crash(self, proc_id, time):
        """Record that ``proc_id`` fail-stops at ``time``."""
        self.crash_times[proc_id] = time
        return self

    def schedule_partition(self, site_a, site_b=None, start=0.0, heal=None):
        """Partition ``site_a`` from ``site_b`` over ``[start, heal)``.

        With ``site_b=None`` the window isolates ``site_a`` from *every*
        peer.  ``heal=None`` means the partition never heals.  Partition
        windows are WAN-level: the :class:`~repro.sim.network.
        WanTopology` consults them per send, so traffic already in
        flight when the partition begins still lands (cutting a cable
        does not recall packets), and sends after the heal flow again.

        Partitions carry no culprit processor, so — unlike crashes —
        they contribute nothing to :meth:`ground_truth`: a partition is
        an environment fault the system must *survive*, not a processor
        fault the detector must *attribute*.
        """
        self.partitions.append(
            {"a": site_a, "b": site_b, "start": start, "heal": heal}
        )
        return self

    def is_partitioned(self, site_x, site_y, now):
        """Whether the sites are separated by an active partition window."""
        for window in self.partitions:
            if now < window["start"]:
                continue
            if window["heal"] is not None and now >= window["heal"]:
                continue
            if window["b"] is None:
                if window["a"] in (site_x, site_y):
                    return True
            elif {site_x, site_y} == {window["a"], window["b"]}:
                return True
        return False

    def arm_crashes(self, scheduler, processors):
        """Install crash events on the scheduler for every scheduled crash."""
        for proc_id, time in sorted(self.crash_times.items()):
            processor = processors[proc_id]
            scheduler.at(time, processor.crash, label="fault.crash")

    def ground_truth(self):
        """Injected faults as forensic ground truth, with stable ids.

        The ids are pure functions of the injection parameters (see
        :func:`repro.obs.forensics.fault_id_for`), so the join between
        ground truth and detector events is deterministic across runs.
        """
        from repro.obs.forensics import fault_id_for

        truth = []
        for proc_id, time in sorted(self.crash_times.items()):
            truth.append(
                {
                    "fault_id": fault_id_for("crash", proc_id, time),
                    "kind": "crash",
                    "culprit": proc_id,
                    "time": time,
                }
            )
        return truth

    # ------------------------------------------------------------------
    # query (called by the network once per datagram per receiver)
    # ------------------------------------------------------------------

    def faults_at(self, src, dst, now):
        """The :class:`LinkFaults` to apply to ``src -> dst`` at ``now``.

        ``None`` outside the active window and for a link with nothing
        to inject, so a plan that only schedules crashes costs the
        network one call per datagram and no RNG draw.
        """
        if now < self.active_from:
            return None
        if self.active_until is not None and now >= self.active_until:
            return None
        faults = self.links.get((src, dst), self.default) if self.links else self.default
        if faults.loss_prob <= 0.0 and faults.corrupt_prob <= 0.0 and not faults.extra_delay:
            return None
        return faults
