"""Simulated processors.

A :class:`Processor` models one workstation in the paper's testbed: it
has an identity, a single CPU that serialises work, a network interface
on which protocol endpoints register port handlers, an optional
interception stage at that interface, and a crash flag.

The CPU model is the part that matters for reproducing Figure 7.  Real
protocol work (marshalling, MD4 digests, RSA signatures) is *charged*
to the CPU: a charged task cannot start before the CPU is free, and
while the CPU is busy every later task queues behind it.  Signature
generation therefore throttles throughput exactly as the paper
describes for case 4, without any wall-clock dependence on the host
machine.
"""

from repro.sim.scheduler import SimulationError


class Processor:
    """One simulated workstation attached to the LAN."""

    def __init__(self, proc_id, scheduler, name=None):
        self.proc_id = proc_id
        self.name = name or ("P%d" % proc_id)
        self.scheduler = scheduler
        self.crashed = False
        self.crash_time = None
        self._cpu_free_at = 0.0
        self._prio_free_at = 0.0
        self._handlers = {}
        self._network = None
        #: the interception stage at this host's network edge, or None:
        #: ``outbound(port, payload, dst) -> [(payload, dst)]`` is asked
        #: for every transmission it makes and ``inbound(datagram) ->
        #: datagram | None`` for every datagram it receives
        #: (:mod:`repro.multicast.adversary` installs one)
        self.stage = None
        #: cumulative CPU seconds charged, by category (for reports)
        self.cpu_accounting = {}

    # ------------------------------------------------------------------
    # network attachment
    # ------------------------------------------------------------------

    def attach(self, network):
        """Called by :class:`repro.sim.network.Network` when added."""
        self._network = network

    @property
    def network(self):
        if self._network is None:
            raise SimulationError("processor %s is not attached to a network" % self.name)
        return self._network

    def register_handler(self, port, fn):
        """Register ``fn(datagram)`` to receive datagrams sent to ``port``
        (``Network._deliver`` dispatches on it, past the stage)."""
        if port in self._handlers:
            raise SimulationError(
                "port %r already registered on processor %s" % (port, self.name)
            )
        self._handlers[port] = fn

    # ------------------------------------------------------------------
    # CPU model
    # ------------------------------------------------------------------

    @property
    def cpu_free_at(self):
        """Earliest time the CPU can start new *application* work."""
        return max(self._cpu_free_at, self.scheduler.now)

    @property
    def prio_free_at(self):
        """Earliest time the CPU can start new *protocol* work.

        The CPU has two lanes modelling preemptive priority: protocol
        work (multicast handling, crypto) only queues behind protocol
        work, while application work (ORB marshalling, dispatch,
        servants) queues behind everything.  This is the behaviour the
        paper observes in case 4: "the computation of the signatures
        dominates the CPU usage ... effectively reducing the fraction
        of CPU time allocated to other processing, such as the ORB's
        batching of IIOP messages".
        """
        return max(self._prio_free_at, self.scheduler.now)

    def cpu_busy(self):
        """True if previously charged work is still occupying the CPU."""
        return self._cpu_free_at > self.scheduler.now

    def charge(self, cost, category="work", priority=False):
        """Occupy the CPU for ``cost`` seconds; returns the completion time.

        Work is serialised per lane: a priority (protocol) charge
        starts when the protocol lane is free and additionally pushes
        back all queued application work; an ordinary charge starts
        when the application lane is free.  ``category`` feeds
        per-processor CPU accounting so benches can report, e.g., the
        fraction of CPU spent signing.
        """
        if cost < 0:
            raise SimulationError("negative CPU cost %r" % (cost,))
        accounting = self.cpu_accounting
        accounting[category] = accounting.get(category, 0.0) + cost
        # Inlined lane arithmetic (the properties above repeat it):
        # charge() runs for every marshalling step, digest, and
        # signature of every message, so attribute hops matter here.
        now = self.scheduler.now
        if priority:
            start = self._prio_free_at
            if start < now:
                start = now
            self._prio_free_at = start + cost
            # Protocol work steals the cycles from application work.
            cpu = self._cpu_free_at
            if cpu < now:
                cpu = now
            self._cpu_free_at = cpu + cost
            return self._prio_free_at
        start = self._cpu_free_at
        if start < now:
            start = now
        self._cpu_free_at = start + cost
        return self._cpu_free_at

    def execute(self, cost, fn, *args, category="work", label="", priority=False):
        """Charge ``cost`` CPU seconds, then run ``fn(*args)``.

        The callback is skipped if the processor crashes in the
        meantime.  Returns the scheduled event.
        """
        done_at = self.charge(cost, category, priority=priority)
        return self.scheduler.at(
            done_at, self._run_task, fn, args, label=label or "cpu-task"
        )

    def _run_task(self, fn, args):
        if not self.crashed:
            fn(*args)

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------

    def crash(self):
        """Fail-stop this processor: it stops sending and receiving."""
        if not self.crashed:
            self.crashed = True
            self.crash_time = self.scheduler.now

    def __repr__(self):
        state = "crashed" if self.crashed else "up"
        return "Processor(%s, %s)" % (self.name, state)
