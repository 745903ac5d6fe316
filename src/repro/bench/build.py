"""One :class:`Scenario` value and one :func:`build` under every drill.

A :class:`Scenario` is plain data — numbers, strings and tuples, so
``eval(repr(s)) == s``.  :func:`build` turns one into a live deployment;
it is the only place under ``repro.bench`` and ``repro.obs`` that
constructs one::

    built = build(Scenario(service="echo", workload=("echo", "demo", 0.1, 8, 0.05),
                           tail=2.0)).run()
    built.driver.replies

A scenario that names a service is deployed, started and driven here;
one that names none (the geo-bank, elastic and scaling drills) comes
back unstarted for its script to deploy into.
"""

from dataclasses import dataclass, replace

from repro.cluster import ClusterConfig, ClusterManager
from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.core.replica import (
    ClientInvocationCorrupter,
    SendOmissionTap,
    ValueFaultServant,
    crash_replica,
)
from repro.elastic import ElasticCluster, ElasticConfig
from repro.multicast import adversary
from repro.obs import Observability, TraceCollector
from repro.obs.forensics import ForensicsHub, fault_id_for
from repro.sim.faults import FaultPlan, LinkFaults
from repro.wan import SiteSpec, WanConfig, WanManager
from repro.workloads import open_loop
from repro.workloads.packet_driver import PACKET_IDL, PacketDriver, PacketSink


@dataclass(frozen=True)
class Scenario:
    """One deployment, its faults, its observers and its workload.

    * ``shape`` is ``ring`` (an :class:`ImmuneSystem` of ``processors``),
      ``cluster``, ``wan`` or ``elastic``; ``case`` names a
      :class:`SurvivabilityCase`; ``config`` is ``(key, value)`` pairs
      for the shape's config class (a WAN's ``sites`` may hold
      ``(name, num_rings)`` pairs and its ``latency`` a tuple of
      ``((src, dst), seconds)`` pairs).
    * ``service`` is a key of :data:`SERVICES`, deployed on ``server``
      and invoked from ``client`` (processor ids on a ring, a ring index
      on a cluster); ``names`` replaces its ``(server, client)`` group
      names.
    * ``faults`` are ``(kind, ...)`` tuples, ``kind`` one of
      :data:`FAULT_KINDS`: ``("loss" | "corruption", probability, start,
      end)``, ``("crash", pid, time)``, ``(adversary, pid, time)`` and
      ``("masquerade", pid, time, victim, payload)``, ``("value_fault",
      pid, corrupt from call, *operations)``, ``("send_omission" |
      "replica_crash", pid, time)``, ``("client_corrupt", pid, from op)``
      and ``("corrupt_gateway", ring a, ring b, replica index)``.
    * ``forensics`` is a flight-recorder capacity (``None``: no hub),
      ``trace`` attaches a trace collector and ``series`` samples every
      metric at that period.
    * ``workload`` is ``(invocation, label, start, count, spacing)`` for
      an :class:`OpenLoopDriver` (``invocation`` names a function of
      :mod:`repro.workloads.open_loop`: ``echo`` or ``add_one``), or
      ``(interval, start, warmup, duration)`` for the packet service's
      driver; the run ends ``tail`` seconds after the workload does (at
      ``tail`` without one), and series sampling stops there.
    """

    shape: str = "ring"
    case: str = "FULL_SURVIVABILITY"
    seed: int = 7
    processors: int = 6
    config: tuple = ()
    service: str = None
    names: tuple = ()
    server: tuple = (0, 1, 2)
    client: tuple = (3, 4, 5)
    faults: tuple = ()
    forensics: int = None
    trace: bool = False
    series: float = None
    workload: tuple = ()
    tail: float = 0.0


def with_count(scenario, count):
    """``scenario`` with ``count`` invocations in its open-loop workload."""
    invocation, label, start, _count, spacing = scenario.workload
    return replace(scenario, workload=(invocation, label, start, count, spacing))


#: service -> (server group, client group, interface, servant maker)
SERVICES = {
    "echo": ("echo", "driver", open_loop.ECHO_IDL,
             lambda system: open_loop.EchoServant()),
    "counter": ("counter", "driver", open_loop.COUNTER_IDL,
                lambda system: open_loop.CounterServant()),
    "ledger": ("ledger", "driver", open_loop.LEDGER_IDL,
               lambda system: open_loop.CounterServant()),
    "tally": ("tally", "driver", open_loop.TALLY_IDL,
              lambda system: open_loop.TallyServant()),
    "packet": ("packet-sink", "packet-driver", PACKET_IDL,
               lambda system: PacketSink(system.scheduler)),
}


def _adversary(behaviour):
    return lambda built, pid, at: behaviour(at_time=at).compromise(
        built.system.endpoints[pid])


#: the faults that act on the started deployment
_ON_STARTED = {
    "mutant_token": _adversary(adversary.MutantTokenBehaviour),
    "malformed_token": _adversary(adversary.MalformedTokenBehaviour),
    "silent": _adversary(adversary.SilentBehaviour),
    "receive_omission": _adversary(adversary.ReceiveOmissionBehaviour),
    "masquerade": lambda built, pid, at, victim, payload: adversary.MasqueradeBehaviour(
        victim_id=victim, dest_group=built.server.group_name,
        payload=payload.encode("utf-8"), at_time=at,
    ).compromise(built.system.endpoints[pid]),
    "send_omission": lambda built, pid, at: SendOmissionTap(
        built.system.managers[pid], from_time=at),
    "client_corrupt": lambda built, pid, from_op: ClientInvocationCorrupter(
        built.system.managers[pid], from_op=from_op),
    "replica_crash": lambda built, pid, at: built.system.scheduler.at(
        at, crash_replica, built.system, built.server.group_name, pid,
        label="drill.crash"),
}

#: Table 1's vocabulary: the rest go into the fault plan, wrap a servant
#: as it deploys, or corrupt a cluster's gateway before it starts
FAULT_KINDS = {"loss", "corruption", "crash", "value_fault", "corrupt_gateway",
               *_ON_STARTED}

_SHAPES = {
    "cluster": (ClusterConfig, ClusterManager),
    "wan": (WanConfig, WanManager),
    "elastic": (ElasticConfig, ElasticCluster),
}


class Built:
    """A built scenario: the ``system`` (ImmuneSystem, cluster, WAN or
    elastic cluster), its ``obs`` (or ``None``), the ``server`` and
    ``client`` handles with the client's ``stubs``, the workload's
    ``driver``, and the handles of the corrupted ``gateways``."""

    def __init__(self, scenario, system, obs):
        self.scenario, self.system, self.obs = scenario, system, obs
        self.server = self.client = self.driver = None
        self.stubs, self.gateways = [], []
        #: when the workload's schedule ends; the run goes on ``tail``
        self.end = 0.0

    def run(self):
        """Run to the scenario's end; returns ``self``."""
        self.system.run(until=self.end + self.scenario.tail)
        if self.scenario.series is not None:
            # The pending tick would otherwise show in the scheduler's counts.
            self.obs.registry.stop_sampling()
        return self


def _fault_plan(faults):
    """The plan of ``faults``' link-fault window and crashes, or None.

    A :class:`FaultPlan` holds one link-fault window, so a second
    ``loss`` / ``corruption`` tuple is refused, not dropped.
    """
    links = [fault for fault in faults if fault[0] in ("loss", "corruption")]
    if len(links) > 1:
        raise ValueError("one link-fault window per scenario, got %s" % (links,))
    plan = None
    for kind, probability, start, end in links:
        key = "loss_prob" if kind == "loss" else "corrupt_prob"
        plan = FaultPlan(default=LinkFaults(**{key: probability}),
                         active_from=start, active_until=end)
    for kind, *args in faults:
        if kind == "crash":
            plan = (plan or FaultPlan()).schedule_crash(*args)
    return plan


def _system(scenario, obs, plan):
    case = SurvivabilityCase[scenario.case]
    overrides = dict(scenario.config)
    if scenario.shape == "ring":
        config = ImmuneConfig(case=case, seed=scenario.seed, **overrides)
        return ImmuneSystem(scenario.processors, config=config, fault_plan=plan,
                            trace_kinds=frozenset(), obs=obs)
    config_class, system_class = _SHAPES[scenario.shape]
    extra = {}
    if scenario.shape == "wan":
        overrides["sites"] = tuple(
            SiteSpec(*site) if isinstance(site, tuple) else site
            for site in overrides.get("sites", ("alpha", "beta"))
        )
        if isinstance(overrides.get("latency"), tuple):
            overrides["latency"] = dict(overrides["latency"])
        extra["fault_plan"] = plan
    config = config_class(case=case, seed=scenario.seed, **overrides)
    return system_class(config=config, obs=obs, **extra)


def _deploy(built, scenario):
    system, obs = built.system, built.obs
    server_name, client_name, interface, make = SERVICES[scenario.service]
    server_name, client_name = scenario.names or (server_name, client_name)
    value_faults = {pid: args for kind, pid, *args in scenario.faults
                    if kind == "value_fault"}

    def factory(pid):
        if pid not in value_faults:
            return make(system)
        corrupt_from, *operations = value_faults[pid]
        return ValueFaultServant(make(system), corrupt_from, set(operations) or None)

    if scenario.shape == "ring":
        built.server = system.deploy(server_name, interface, factory, list(scenario.server))
    else:
        built.server = system.deploy(server_name, interface, factory, ring=scenario.server)
    if value_faults and obs is not None and obs.forensics is not None:
        # A wrapped replica corrupts from call ``corrupt_from + 1`` on,
        # which leaves the clients at ``start + corrupt_from · spacing``.
        _invocation, _label, start, _count, spacing = scenario.workload
        for pid, (corrupt_from, *_operations) in sorted(value_faults.items()):
            at = start + corrupt_from * spacing
            obs.forensics.record_ground_truth(
                fault_id_for("value_fault", pid, at), "value_fault", pid, at)
    if scenario.shape == "ring":
        built.client = system.deploy_client(client_name, list(scenario.client))
    else:
        built.client = system.deploy_client(client_name, ring=scenario.client)
    built.gateways = [system.corrupt_gateway(*args[:2], index=args[2])
                      for kind, *args in scenario.faults if kind == "corrupt_gateway"]
    system.start()
    for kind, *args in scenario.faults:
        if kind in _ON_STARTED:
            _ON_STARTED[kind](built, *args)
    built.stubs = system.client_stubs(built.client, interface, built.server)


def _drive(built, scenario):
    if scenario.service == "packet":
        interval, start, warmup, duration = scenario.workload
        built.driver = PacketDriver(built.system, built.client, built.server, interval)
        built.driver.run_for(start, warmup + duration)
        built.end = start + warmup + duration
    else:
        invocation, label, start, count, spacing = scenario.workload
        built.driver = open_loop.OpenLoopDriver(
            built.system, built.stubs, getattr(open_loop, invocation), label,
        ).run(start, count, spacing)
        built.end = start + count * spacing


def build(scenario):
    """The deployment ``scenario`` describes, ready to :meth:`Built.run`.

    Construction order is the drills' own: the system (with its fault
    plan and observers), the service and its client (value-faulting
    servants wrapped as they deploy), corrupted gateways, ``start()``,
    every other fault, the workload, then series sampling.
    """
    unknown = sorted({fault[0] for fault in scenario.faults} - FAULT_KINDS)
    if unknown:
        raise ValueError("unknown fault kinds %s (choose from %s)"
                         % (unknown, sorted(FAULT_KINDS)))
    obs = None
    if scenario.forensics is not None or scenario.trace or scenario.series is not None:
        obs = Observability(
            forensics=(None if scenario.forensics is None
                       else ForensicsHub(capacity=scenario.forensics)),
            trace=TraceCollector() if scenario.trace else None,
        )
    built = Built(scenario, _system(scenario, obs, _fault_plan(scenario.faults)), obs)
    if scenario.service is None:
        return built
    _deploy(built, scenario)
    if scenario.workload:
        _drive(built, scenario)
    if scenario.series is not None:
        obs.registry.sample_series(built.system.scheduler, period=scenario.series)
    return built
