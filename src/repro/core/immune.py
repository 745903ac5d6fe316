"""The :class:`ImmuneSystem` facade — a whole simulated deployment.

Assembles, per processor: the simulated host, an unmodified mini-ORB,
and (for the replicated cases) a Secure Multicast endpoint, a
Replication Manager, and the IIOP interceptor wiring them together.
Application code then only deals with object groups and stubs:

    immune = ImmuneSystem(num_processors=6, config=ImmuneConfig())
    server = immune.deploy("counter", COUNTER_IDL,
                           lambda pid: CounterServant(), on_procs=[0, 1, 2])
    client = immune.deploy_client("driver", on_procs=[3, 4, 5])
    immune.start()
    for pid, stub in immune.client_stubs(client, COUNTER_IDL, server):
        stub.add(1)                      # every client replica invokes
    immune.run(until=1.0)

The servants and the invoking code are exactly what they would be on a
bare ORB — the Immune system's transparency claim, reproduced.
"""

from repro.core.config import ConfigError, ImmuneConfig
from repro.core.identifiers import BASE_GROUP
from repro.core.manager import ReplicationManager
from repro.crypto.keystore import KeyStore
from repro.multicast.endpoint import SecureGroupEndpoint
from repro.orb.core import BatchingPolicy, Orb
from repro.orb.interceptor import ImmuneInterceptor
from repro.orb.ior import ObjectReference
from repro.orb.transport import DirectTransport
from repro.sim.network import Network, NetworkParams
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import TraceLog

import random


class GroupHandle:
    """A deployed object group (or the unreplicated singleton object).

    ``replica_procs`` names exactly the replicas that are active, in
    install order, and ``servants`` their servants (empty for a pure
    client group); :meth:`ImmuneSystem._install_replica` and
    :meth:`ImmuneSystem.withdraw_replica` keep both.
    """

    def __init__(self, group_name, interface, reference):
        self.group_name = group_name
        self.interface = interface
        self.reference = reference
        self.replica_procs = ()
        #: pid -> servant instance
        self.servants = {}
        #: home ring index / site name, stamped by the cluster and WAN
        #: facades at deploy (and re-stamped by a live migration)
        self.ring = None
        self.site = None

    def __repr__(self):
        return "GroupHandle(%s on %s)" % (self.group_name, list(self.replica_procs))


class ImmuneSystem:
    """A complete simulated Immune deployment on one LAN."""

    def __init__(
        self,
        num_processors,
        config=None,
        fault_plan=None,
        trace_kinds=None,
        obs=None,
        scheduler=None,
        proc_ids=None,
        keystore=None,
        streams=None,
    ):
        """Build one deployment.

        ``trace_kinds`` left ``None`` records every :class:`TraceLog`
        kind; an empty set records none (the benches' setting).

        ``scheduler``, ``proc_ids``, ``keystore`` and ``streams`` exist
        for :mod:`repro.cluster`: a multi-ring cluster runs several
        deployments on one shared scheduler, numbers their processors
        from disjoint global id ranges, shares one key directory (a
        gateway host is the same principal on both of its rings), and
        hands each ring an independent RNG namespace.  Standalone use
        leaves all four at their defaults.
        """
        self.config = config or ImmuneConfig()
        self.config.validate_system(num_processors)
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.streams = streams if streams is not None else RngStreams(self.config.seed)
        self.trace = TraceLog(self.scheduler)
        #: what the layers record into: None when no kind is enabled, so
        #: a switched-off log costs each record site one None check
        self._layer_trace = self.trace if trace_kinds is None or trace_kinds else None
        self.fault_plan = fault_plan
        self.obs = obs
        if obs is not None:
            obs.bind(self.scheduler)
            self.scheduler.attach_metrics(obs.registry)
        self.network = Network(
            self.scheduler,
            params=NetworkParams(),
            rng=self.streams.stream("net"),
            fault_plan=fault_plan,
            obs=obs,
        )
        self.processors = {}
        self.orbs = {}
        self.endpoints = {}
        self.managers = {}
        self._groups = {}
        self._started = False

        replicated = self.config.case.replicated
        if replicated:
            self.keystore = keystore if keystore is not None else KeyStore(
                random.Random(self.config.seed),
                modulus_bits=self.config.modulus_bits,
            )
        else:
            self.keystore = None

        if proc_ids is None:
            proc_ids = range(num_processors)
        proc_ids = list(proc_ids)
        if len(proc_ids) != num_processors:
            raise ConfigError(
                "proc_ids names %d processors but num_processors is %d"
                % (len(proc_ids), num_processors)
            )
        for pid in proc_ids:
            self._wire_processor(pid)
        if fault_plan is not None:
            fault_plan.arm_crashes(self.scheduler, self.processors)
            if obs is not None and obs.forensics is not None:
                for fault in fault_plan.ground_truth():
                    obs.forensics.record_ground_truth(
                        fault["fault_id"],
                        fault["kind"],
                        fault["culprit"],
                        fault["time"],
                    )
        if obs is not None:
            obs.registry.add_collector(self._collect_cpu_metrics)

    def _wire_processor(self, pid):
        """Build one processor's stack: simulated host, ORB and, in the
        replicated cases, Secure Multicast endpoint and Replication
        Manager behind the IIOP interceptor."""
        processor = Processor(pid, self.scheduler)
        self.network.add_processor(processor)
        self.processors[pid] = processor
        batching = self.config.batching
        orb = Orb(
            processor,
            self.scheduler,
            cost_model=self.config.orb_costs,
            batching=BatchingPolicy(batching.max_messages, batching.window),
        )
        self.orbs[pid] = orb
        if not self.config.case.replicated:
            orb.set_transport(DirectTransport(self.network))
            return processor
        endpoint = SecureGroupEndpoint(
            processor,
            self.scheduler,
            self.network,
            self.keystore,
            self.config.crypto_costs,
            self.config.multicast,
            self._layer_trace,
            obs=self.obs,
        )
        manager = ReplicationManager(
            processor,
            self.scheduler,
            endpoint,
            self.config,
            obs=self.obs,
        )
        orb.set_transport(ImmuneInterceptor(manager))
        self.endpoints[pid] = endpoint
        self.managers[pid] = manager
        return processor

    def _collect_cpu_metrics(self, registry):
        """Publish every processor's simulated CPU bill by category."""
        for pid in sorted(self.processors):
            accounting = self.processors[pid].cpu_accounting
            for category in sorted(accounting):
                registry.gauge("cpu.seconds", proc=pid, category=category).set(
                    accounting[category]
                )

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def deploy(self, group_name, interface, servant_factory, on_procs):
        """Deploy an actively replicated server object.

        ``servant_factory(pid)`` builds one (deterministic) replica per
        processor.  In the unreplicated case only the first processor
        of ``on_procs`` is used.
        """
        return self._deploy(group_name, interface, servant_factory, on_procs)

    def deploy_passive(self, group_name, interface, servant_factory, on_procs):
        """Deploy a *warm-passively* replicated server object.

        The contrast baseline to :meth:`deploy` (paper section 5): the
        lowest surviving member executes alone and streams state
        checkpoints to warm backups.  Survives crashes at a fraction of
        active replication's execution cost — but a corrupted primary's
        value faults reach the clients unmasked, which is the paper's
        argument for active replication with majority voting.  Requires
        a replicated case (2-4).
        """
        if not self.config.case.replicated:
            raise ConfigError("passive replication needs a replicated case")
        return self._deploy(group_name, interface, servant_factory, on_procs, passive=True)

    def deploy_client(self, group_name, on_procs):
        """Deploy an actively replicated client object (a pure invoker).

        Client objects are replicated too — both input and output
        majority voting are used (paper section 6.1) — so responses to
        the client group are voted at each client replica.
        """
        return self._deploy(group_name, None, lambda pid: None, on_procs)

    def _deploy(self, group_name, interface, servant_factory, on_procs, passive=False):
        """Check a new group's name and placement, register it with every
        Replication Manager and install its replicas (a pure client's
        servants are None; the unreplicated case uses the first of
        ``on_procs`` alone)."""
        if group_name in self._groups or group_name == BASE_GROUP:
            raise ConfigError("group name %r already in use" % group_name)
        replicated = self.config.case.replicated
        if not replicated:
            on_procs = list(on_procs)[:1]
        self.config.validate_placement(group_name, on_procs, self.processors)
        reference = None
        if interface is not None:
            host = None if replicated else on_procs[0]
            reference = ObjectReference(interface.name, group_name, host=host)
        handle = GroupHandle(group_name, interface, reference)
        for manager in self.managers.values():
            manager.register_group(group_name, on_procs, passive)
        for pid in on_procs:
            self._install_replica(handle, pid, servant_factory(pid))
        self._groups[group_name] = handle
        return handle

    def _install_replica(self, handle, pid, servant, op_counter=None):
        """The one way a replica starts: activate ``servant`` (None for a
        pure client) on ``pid``'s ORB, name it in the handle, and host
        the group at ``pid``'s Replication Manager, resuming the group's
        ``op_counter`` when the replica starts from a checkpoint."""
        if servant is not None:
            self.orbs[pid].register_servant(handle.group_name, servant, handle.interface)
            handle.servants[pid] = servant
        handle.replica_procs += (pid,)
        manager = self.managers.get(pid)
        if manager is not None:
            manager.host_replica(handle.group_name, op_counter)

    def withdraw_replica(self, group_name, pid):
        """The one way a replica stops: deactivate its servant on
        ``pid``'s ORB, drop the group at ``pid``'s Replication Manager,
        and remove the replica from the group's handle.  The group
        table is not touched (see :func:`repro.core.replica.crash_replica`
        and :meth:`export_group` for who rewrites it)."""
        handle = self._groups[group_name]
        self.orbs[pid].adapter.deactivate(group_name)
        manager = self.managers.get(pid)
        if manager is not None:
            manager.drop_replica(group_name)
        handle.servants.pop(pid, None)
        handle.replica_procs = tuple(p for p in handle.replica_procs if p != pid)

    def client_stubs(self, client_handle, interface, server_handle):
        """Stubs for every client replica: [(pid, stub), ...].

        Driving each replica identically (same operations at the same
        simulated times) preserves replica determinism, exactly as the
        replicas of a real client object would behave.
        """
        out = []
        for pid in client_handle.replica_procs:
            stub = self.orbs[pid].stub(
                interface, server_handle.reference, source_key=client_handle.group_name
            )
            out.append((pid, stub))
        return out

    def group(self, group_name):
        return self._groups[group_name]

    def register_remote_group(self, group_name, members):
        """Adopt a group whose replicas live on *another ring*: every
        Replication Manager here registers it with ``members`` — this
        ring's gateway pids toward its home — so local voters take a
        majority across the gateways' re-originated copies."""
        for manager in self.managers.values():
            manager.register_group(group_name, members)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Install the initial processor membership and begin operation."""
        if self._started:
            return self
        self._started = True
        if self.config.case.replicated:
            members = sorted(self.processors)
            for pid in members:
                self.endpoints[pid].start(members)
        return self

    def run(self, until=None, max_events=None):
        if not self._started:
            self.start()
        self.scheduler.run(until=until, max_events=max_events)
        return self

    # ------------------------------------------------------------------
    # elasticity: runtime churn and live group migration
    # ------------------------------------------------------------------

    def add_processor(self, pid):
        """Wire a brand-new processor into a live deployment (churn).

        Builds the full per-processor stack — simulated host, ORB,
        Secure Multicast endpoint, Replication Manager — with the
        constructor's own routine, at runtime.  The new principal is
        enrolled in the keystore; a ring that signs draws its key pair
        here, one that only digests never does.  The caller admits the
        processor to the ring afterwards (see :meth:`join_processor`).
        """
        if not self.config.case.replicated:
            raise ConfigError("runtime churn needs a replicated case")
        if pid in self.processors:
            raise ConfigError("processor %d already exists" % pid)
        return self._wire_processor(pid)

    def join_processor(self, pid):
        """Grow the deployment: wire ``pid`` and admit it to the ring.

        The admission itself is membership-protocol-driven — a signed
        join request, proposal and commit rounds, and an installation
        that re-derives the token-rotation timeouts for the larger
        population.  Once the new member sees itself installed, its
        (empty) object group table is resynced from the lowest correct
        donor so later migrations can target it.
        """
        processor = self.add_processor(pid)
        self._join_and_resync(pid)
        return processor

    def _join_and_resync(self, pid, then=None):
        """Have ``pid`` request admission to the ring; the first time it
        sees itself installed, resync its object group table from the
        lowest live donor and call ``then()``."""
        manager = self.managers[pid]
        state = {"done": False}

        def on_install(ring_id, members, excluded):
            if state["done"] or pid not in members:
                return
            state["done"] = True
            donor = next(
                (
                    other
                    for other in sorted(self.managers)
                    if other != pid and not self.processors[other].crashed
                ),
                None,
            )
            if donor is not None:
                manager.resync_groups(self.managers[donor].groups.snapshot())
            if then is not None:
                then()

        endpoint = self.endpoints[pid]
        endpoint.on_membership_change(on_install)
        endpoint.request_join()

    def export_group(self, group_name):
        """Withdraw a migrating group from this deployment (cutover).

        Withdraws every replica the handle names and removes the local
        handle.  The group-table rewrite is the coordinator's job (every
        Replication Manager of every ring sees the same
        :meth:`~repro.core.manager.ReplicationManager.reregister_group`).
        """
        handle = self._groups[group_name]
        for pid in handle.replica_procs:
            self.withdraw_replica(group_name, pid)
        return self._groups.pop(group_name)

    def adopt_group(self, handle, on_procs, servant_from_state, state_bytes,
                    op_counter=0):
        """Install a migrating group on this deployment (cutover).

        ``servant_from_state(state_bytes)`` builds one replica per new
        host from the transferred checkpoint; the transferred operation
        counter keeps the group's outbound numbering monotonic across
        the move.
        """
        for pid in sorted(on_procs):
            self._install_replica(handle, pid, servant_from_state(state_bytes), op_counter)
        self._groups[handle.group_name] = handle
        return handle

    # ------------------------------------------------------------------
    # recovery: reallocating lost replicas (section 3.1)
    # ------------------------------------------------------------------

    def reallocate(self, group_name, new_pid, servant_from_state):
        """Join a fresh replica of ``group_name`` on processor ``new_pid``.

        ``servant_from_state(state_bytes)`` must return a servant
        initialised from the checkpointed state (servants expose
        ``get_state``/``set_state`` for this).  The Replication Manager
        handles the ordered state transfer and the membership update.
        """
        handle = self._groups[group_name]
        if handle.interface is None:
            raise ConfigError("cannot reallocate a pure client group %r" % group_name)
        self.managers[new_pid].request_join(
            group_name,
            lambda state, op_counter: self._install_replica(
                handle, new_pid, servant_from_state(state), op_counter
            ),
        )

    def recover_processor(self, pid, servant_factories):
        """Bring an excluded-but-repaired processor fully back.

        Two phases, both through the ordered protocols:

        1. the processor rejoins the processor membership (signed join
           requests, admission round — see
           :meth:`repro.multicast.endpoint.SecureGroupEndpoint.request_join`);
        2. once admitted, its object group table is resynced and every
           group in ``servant_factories`` (``{group_name:
           servant_from_state}``) is withdrawn from it and reallocated
           onto it by ordered state transfer.

        A processor convicted of Byzantine behaviour is refused at
        phase 1 by every correct member.
        """
        if not self.config.case.replicated:
            raise ConfigError("processor recovery needs a replicated case")

        def reallocate_groups():
            for group_name, from_state in sorted(servant_factories.items()):
                self.withdraw_replica(group_name, pid)
                self.reallocate(group_name, pid, from_state)

        self._join_and_resync(pid, then=reallocate_groups)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------

    def surviving_members(self):
        if not self.config.case.replicated:
            return tuple(
                pid for pid, proc in sorted(self.processors.items()) if not proc.crashed
            )
        for pid in sorted(self.endpoints):
            if not self.processors[pid].crashed and not self.endpoints[pid].halted:
                return self.endpoints[pid].members
        return ()

    def group_members(self, group_name):
        """The object group membership as seen by the first correct RM."""
        for pid in sorted(self.managers):
            if not self.processors[pid].crashed:
                return self.managers[pid].groups.members(group_name)
        return ()
