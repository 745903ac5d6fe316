"""The four workloads and the runner for one rung of a rate ladder.

A *rung* is one fresh deployment driven by an open-loop invocation
stream at a fixed rate: every client replica fires each invocation at
its due time on the simulated clock, so the generator is never late.
Everything here goes through the public API of ``docs/API.md``; the
``repro`` names this package imports are listed in ``ladder/README.md``.
"""

import functools
import gc
import heapq
import random
import time
import zlib

from repro import perf
from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.obs import Observability, TraceCollector
from repro.obs.forensics import ForensicsHub
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan, LinkFaults
from repro.wan import SiteSpec, WanConfig, WanManager
from repro.workloads.packet_driver import payload_size_for_frame

TARGET_IDL = InterfaceDef(
    "LadderTarget",
    [
        OperationDef("push", [ParamDef("data", "octets")], oneway=True),
        OperationDef("put", [ParamDef("data", "octets")], result="ulong"),
        OperationDef("echo", [ParamDef("n", "ulong")], result="ulong"),
    ],
)

#: simulated seconds before the first invocation is due (the initial
#: membership installs first)
START = 0.05

#: ``run()`` is measured in slices of this many scheduler events, each
#: followed by one ``calibrate()``
SLICE_EVENTS = 1000


def calibrate():
    """About a millisecond of fixed pure-Python work: heap, dict, small objects.

    This box's speed wanders by +-15% over seconds to minutes, which
    would drown a 10% regression in host time.  Timing this loop after
    every slice of ``run()`` samples the machine's speed at the moment
    the simulator ran, and host cost is reported as a multiple of it
    (unit ``cal``): over repeated runs that ratio spreads by 2-3% where
    raw CPU seconds spread by 9-20%.  Changing this function rebases
    every ``host_cal_per_inv`` ever recorded: do not.
    """
    heap, table, total = [], {}, 0
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, [i, None]))
        table[i & 255] = (i, b"x" * (i & 63))
        if i & 3 == 3:
            total += heapq.heappop(heap)[0] + len(table[(i >> 2) & 255][1])
    return total


class Target:
    """Server servant: logs each execution and folds the order into ``state``.

    Octet payloads carry the invocation index in their first four
    bytes, so the log identifies every invocation whatever else the
    payload holds.
    """

    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.log = []  # (simulated time, invocation index)
        self.state = 0

    def _record(self, index):
        self.log.append((self._scheduler.now, index))
        self.state = zlib.crc32(index.to_bytes(4, "big"), self.state)

    def push(self, data):
        self._record(int.from_bytes(data[:4], "big"))

    def put(self, data):
        self._record(int.from_bytes(data[:4], "big"))
        return zlib.crc32(data)

    def echo(self, n):
        self._record(n)
        return n


class Stream:
    """One open-loop invocation stream from a client group to a server group."""

    def __init__(self, name, share, stubs, servants, op, payload_bytes=0):
        self.name = name
        #: this stream's fraction of the rung's rate
        self.share = share
        self.stubs = stubs
        #: pid -> servant, for every server replica
        self.servants = servants
        self.op = op
        self.payload_bytes = payload_bytes
        self.two_way = op != "push"
        self.due = []
        self.expected = []
        #: client pid -> {invocation index: (simulated time, value)}
        self.replies = {pid: {} for pid, _stub in stubs}
        self._scheduler = None

    def schedule(self, scheduler, rng, rate, begin, end):
        """Fix every due time and payload, then arm one event per invocation."""
        self._scheduler = scheduler
        count = int((end - begin) * rate * self.share)
        for index in range(count):
            due = begin + index / (rate * self.share)
            if self.op == "echo":
                arg, expected = index, index
            else:
                arg = index.to_bytes(4, "big") + rng.randbytes(self.payload_bytes - 4)
                expected = zlib.crc32(arg)
            self.due.append(due)
            self.expected.append(expected)
            scheduler.at(due, self._fire, index, arg, label="ladder." + self.name)

    def _fire(self, index, arg):
        for pid, stub in self.stubs:
            call = getattr(stub, self.op)
            if self.two_way:
                call(arg, reply_to=functools.partial(self._reply, pid, index))
            else:
                call(arg)

    def _reply(self, pid, index, value):
        self.replies[pid].setdefault(index, (self._scheduler.now, value))


class Deployment:
    """What a workload's ``build`` returns: the system plus what to observe."""

    def __init__(self, system, rings, streams, faults=None, value_faulty=None):
        #: ``ImmuneSystem`` or ``WanManager``
        self.system = system
        #: every ``ImmuneSystem`` in it
        self.rings = rings
        #: ``streams[0]`` is the one the latency metrics are over
        self.streams = streams
        #: pid -> simulated injection time, for processors that must end up excluded
        self.faults = faults or {}
        #: (pid, its Target, index of its first corrupted execution): the
        #: injection time is known only after the run
        self.value_faulty = value_faulty

    def ring_of(self, pid):
        return next(ring for ring in self.rings if pid in ring.processors)


def _observability():
    return Observability(forensics=ForensicsHub(), trace=TraceCollector())


def _ring(seed, obs, processors, servers, clients, op, payload_bytes=0,
          fault_plan=None, wrap=None, **config):
    immune = ImmuneSystem(
        processors,
        config=ImmuneConfig(seed=seed, **config),
        fault_plan=fault_plan,
        trace_kinds=frozenset(),
        obs=_observability() if obs else None,
    )
    targets = {}

    def factory(pid):
        targets[pid] = Target(immune.scheduler)
        return wrap(pid, targets[pid]) if wrap else targets[pid]

    server = immune.deploy("target", TARGET_IDL, factory, servers)
    client = immune.deploy_client("driver", clients)
    immune.start()
    if payload_bytes is None:
        payload_bytes = payload_size_for_frame(server.reference.object_key)
    stream = Stream(
        "ring", 1.0, immune.client_stubs(client, TARGET_IDL, server), targets,
        op, payload_bytes,
    )
    return immune, stream


def build_ring_oneway(seed, rate, span, obs):
    immune, stream = _ring(
        seed, obs, 6, [0, 1, 2], [3, 4, 5],
        "push", payload_bytes=None, case=SurvivabilityCase.MAJORITY_VOTING,
    )
    return Deployment(immune, [immune], [stream])


def build_ring_signed(seed, rate, span, obs):
    immune, stream = _ring(
        seed, obs, 6, [0, 1, 2], [3, 4, 5],
        "put", payload_bytes=4096, case=SurvivabilityCase.FULL_SURVIVABILITY,
    )
    return Deployment(immune, [immune], [stream])


#: the message loss of the issue's drill
DRILL_LOSS = 0.002


def build_fault_drill(seed, rate, span, obs, loss_prob=0.0):
    crash_at = START + 0.25 * span
    plan = FaultPlan(default=LinkFaults(loss_prob=loss_prob)).schedule_crash(1, crash_at)
    first_bad = int(rate * span) // 2

    def wrap(pid, target):
        return ValueFaultServant(target, corrupt_from=first_bad) if pid == 2 else target

    immune, stream = _ring(
        seed, obs, 8, [0, 1, 2, 6, 7], [3, 4, 5],
        "echo", fault_plan=plan, wrap=wrap,
        case=SurvivabilityCase.FULL_SURVIVABILITY, batch_signatures=True,
    )
    return Deployment(
        immune, [immune], [stream],
        faults={1: crash_at}, value_faulty=(2, stream.servants[2], first_bad),
    )


#: one-way WAN latencies: a 50 ms round trip split 55/45
WAN_LATENCY = {("alpha", "beta"): 0.0275, ("beta", "alpha"): 0.0225}


def build_wan_mixed(seed, rate, span, obs):
    wan = WanManager(
        config=WanConfig(
            sites=(SiteSpec("alpha", num_rings=2), SiteSpec("beta")),
            case=SurvivabilityCase.MAJORITY_VOTING,
            seed=seed,
            latency=WAN_LATENCY,
        ),
        obs=_observability() if obs else None,
    )
    streams = []
    # Both server groups live on alpha's ring 1, so cross-site
    # invocations cross the WAN gateways and alpha's cluster gateways
    # and then share a ring with the local traffic.
    for name, share, site in (("remote", 0.2, "beta"), ("local", 0.8, "alpha")):
        targets = {}

        def factory(pid, targets=targets):
            targets[pid] = Target(wan.scheduler)
            return targets[pid]

        server = wan.deploy(name + ".target", TARGET_IDL, factory, site="alpha", ring=1)
        client = wan.deploy_client(
            name + ".driver", site=site, ring=1 if site == "alpha" else 0
        )
        streams.append(
            Stream(name, share, wan.client_stubs(client, TARGET_IDL, server), targets, "echo")
        )
    wan.start()
    rings = [ring for cluster in wan.sites.values() for ring in cluster.rings]
    return Deployment(wan, rings, streams)


class Workload:
    """One workload: how to build it, its rate ladder and its measurement windows."""

    def __init__(self, name, why, build, rates, reference, window, warmup, drain,
                 tail, limit_ms, min_window=0.0, min_drain=0.1, obs=False, lossy_build=None):
        self.name = name
        self.why = why
        self.build = build
        #: the same deployment under random message loss, for the one extra
        #: rung of the traced pass that no bound applies to; None for none
        self.lossy_build = lossy_build
        #: the rate ladder, invocations per simulated second, ascending
        self.rates = rates
        #: the rung the latency and service-gap metrics are read at
        self.reference = reference
        #: simulated seconds of measurement window at the pinned run length
        self.window = window
        self.warmup = warmup
        #: simulated seconds past the window before the deadline for completion
        self.drain = drain
        #: floors for shorter runs: a fault drill needs its recovery time
        self.min_window = min_window
        self.min_drain = min_drain
        #: tail percentile: the highest of .90/.95/.99 with >= 10 samples beyond it
        self.tail = tail
        #: latency limit on the tail percentile, for ``sim_max_rate_inv_s``
        self.limit_ms = limit_ms
        #: whether the deployment carries full ``Observability``
        self.obs = obs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ring_oneway_64b",
            "paper Fig. 7: 64-byte one-way pushes on one voting ring; token rotation, "
            "delivery, MD4, input voting and the scheduler do the work, no RSA, "
            "gateways or obs",
            build_ring_oneway, rates=(500, 1800, 2600, 3000, 3400), reference=1800,
            window=1.0, warmup=0.15, drain=0.35, tail=0.99, limit_ms=5.0,
        ),
        Workload(
            "ring_signed_twoway_4k",
            "4 KiB two-way puts on a per-visit-signed ring: large CDR bodies, replies, "
            "output voting, RSA gating the token; a small-message gain that costs "
            "large two-way traffic shows here",
            build_ring_signed, rates=(25, 50, 75, 100, 125), reference=75,
            window=4.0, warmup=0.3, drain=1.5, tail=0.95, limit_ms=100.0,
        ),
        Workload(
            "wan_mixed_twoway",
            "two sites, three rings, 50 ms RTT, 4:1 local:cross-site echoes: token rotation "
            "on 30 processors (multicast, sim) is the host cost, crypto little; the gateways, "
            "0.5% of it, show only in their counters",
            build_wan_mixed, rates=(1000, 1800), reference=1000,
            window=1.0, warmup=0.15, drain=0.45, tail=0.95, limit_ms=100.0,
        ),
        Workload(
            "ring_fault_drill_obs",
            "150 echoes/s arriving on schedule through a crash and a value fault, full "
            "observability on: membership, detector, attribution, certificates and "
            "every obs sink do the work; the service gap lives here",
            build_fault_drill, rates=(150,), reference=150,
            window=8.0, warmup=0.0, drain=1.0, tail=0.95, limit_ms=4000.0,
            min_window=8.0, min_drain=1.0, obs=True,
            lossy_build=functools.partial(build_fault_drill, loss_prob=DRILL_LOSS),
        ),
    )
}


def percentile(ordered, fraction):
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


class Rung:
    """One rung: a fresh deployment with its load scheduled, ready to run."""

    def __init__(self, workload, rate, seed, scale=1.0, obs=None, lossy=False):
        """Set up: build, provision keys, deploy, start, schedule the load.

        ``scale`` stretches the measurement window (1.0 is the pinned
        run length); ``obs`` overrides the workload's own observability
        setting; ``lossy`` builds with ``workload.lossy_build``.
        ``setup_s`` is the host CPU time all of this took.
        """
        # The previous rung's garbage is not this rung's set-up.
        gc.collect()
        begin = time.process_time()
        # The memo tables are process-wide: start every rung cold, so they see
        # only the sharing the protocol itself creates within this rung.
        perf.clear_caches()
        self.workload = workload
        self.rate = rate
        self.window = max(workload.window * scale, workload.min_window)
        self.window_start = START + workload.warmup
        self.window_end = self.window_start + self.window
        self.until = self.window_end + max(workload.drain * scale, workload.min_drain)
        build = workload.lossy_build if lossy else workload.build
        self.deployment = build(
            seed, rate, self.window_end - START, workload.obs if obs is None else obs
        )
        scheduler = self.deployment.system.scheduler
        rng = random.Random(seed)
        for stream in self.deployment.streams:
            stream.schedule(scheduler, rng, rate, START, self.window_end)
        #: (simulated time, members) of every membership the measured
        #: client's processor installs after the initial one
        self.installs = []
        observer_pid = self.deployment.streams[0].stubs[0][0]
        self.deployment.ring_of(observer_pid).endpoints[observer_pid].on_membership_change(
            lambda ring_id, members, excluded: self.installs.append(
                (scheduler.now, tuple(members))
            )
        )
        self.setup_s = time.process_time() - begin

    def run(self, profile=None):
        """Run to the drain deadline, check, and return the measurements.

        ``host_s`` is the CPU time of this process inside ``run()``;
        ``host_cal`` is the same as a multiple of the calibration loop
        timed between the slices.  With ``profile``, a
        ``cProfile.Profile``, ``run()`` is one profiled call and there
        is no ``host_cal``.
        """
        deployment = self.deployment
        system, scheduler = deployment.system, deployment.system.scheduler
        clock = time.process_time
        host_s = calibration_s = 0.0
        slices = 0
        if profile is not None:
            profile.enable()
            begin = clock()
            system.run(until=self.until)
            host_s = clock() - begin
            profile.disable()
        else:
            executed = -SLICE_EVENTS
            while scheduler.events_executed - executed >= SLICE_EVENTS:
                executed = scheduler.events_executed
                begin = clock()
                system.run(until=self.until, max_events=SLICE_EVENTS)
                # No collection inside the calibration: a full one walks the
                # simulator's whole heap, which is not the machine's speed.
                gc.disable()
                middle = clock()
                calibrate()
                calibration_s += clock() - middle
                gc.enable()
                host_s += middle - begin
                slices += 1

        out = {
            "rate": self.rate,
            "window_s": self.window,
            "setup_s": self.setup_s,
            "host_s": host_s,
            "host_cal": host_s * slices / calibration_s if slices else None,
            "problems": [],
        }
        faults = dict(deployment.faults)
        if deployment.value_faulty is not None:
            pid, target, first_bad = deployment.value_faulty
            faults[pid] = target.log[first_bad][0] if len(target.log) > first_bad else self.until
        completions = {
            stream.name: _check_stream(stream, faults, out) for stream in deployment.streams
        }
        _check_membership(deployment, faults, out)

        def in_window(t):
            return self.window_start <= t < self.window_end

        def latencies(stream):
            done = completions[stream.name]
            return sorted(
                done[i] - due for i, due in enumerate(stream.due) if i in done and in_window(due)
            )

        measured = deployment.streams[0]
        sample = latencies(measured)
        offered = sum(1 for s in deployment.streams for due in s.due if in_window(due))
        completed_in_window = sum(
            1 for times in completions.values() for t in times.values() if in_window(t)
        )
        out.update(
            attempted=sum(len(s.due) for s in deployment.streams),
            completed_by_stream={name: len(times) for name, times in completions.items()},
            samples=len(sample),
            offered_in_window=offered,
            throughput_inv_s=completed_in_window / self.window,
            p50_ms=1e3 * percentile(sample, 0.5) if sample else None,
            tail_ms=1e3 * percentile(sample, self.workload.tail) if sample else None,
            service_gap_ms=1e3
            * _service_gap(measured, completions[measured.name], self.window_start),
            detect_ms=1e3 * max(
                (_excluded_at(self.installs, pid, self.until) - at for pid, at in faults.items()),
                default=0.0,
            ),
        )
        out["completed"] = sum(out["completed_by_stream"].values())
        out["failed"] = out["attempted"] - out["completed"]
        out["sustained"] = (
            out["failed"] == 0
            and not out["problems"]
            and completed_in_window >= 0.99 * offered
            and out["tail_ms"] is not None
            and out["tail_ms"] <= self.workload.limit_ms
        )
        if len(deployment.streams) > 1:
            local = latencies(deployment.streams[1])
            out["local_p50_ms"] = 1e3 * percentile(local, 0.5) if local else 0.0
        return out

    def layer_counts(self):
        """Raw counters from the layers' public stats after ``run()``, summed
        over processors; what the per-layer metrics are computed from."""
        return _layer_counts(self.deployment, len(self.installs))


def _check_stream(stream, faults, rung):
    """Exactly-once, same order, equal state, right replies.

    Returns {invocation index: completion time at the measured replica}
    for the invocations that completed correctly everywhere; a violation
    no single invocation owns goes to ``rung["problems"]``.
    """
    correct = [pid for pid in sorted(stream.servants) if pid not in faults]
    orders = {pid: [index for _t, index in stream.servants[pid].log] for pid in correct}
    # At the deadline replicas may have got differently far; each must
    # have executed a prefix of what the furthest one executed.
    furthest = max(correct, key=lambda pid: len(orders[pid]))
    for pid in correct:
        if orders[pid] != orders[furthest][: len(orders[pid])]:
            rung["problems"].append(
                "%s: server replicas P%d and P%d executed in different orders"
                % (stream.name, furthest, pid)
            )
        elif (
            len(orders[pid]) == len(orders[furthest])
            and stream.servants[pid].state != stream.servants[furthest].state
        ):
            rung["problems"].append(
                "%s: server replicas P%d and P%d ended in different states"
                % (stream.name, furthest, pid)
            )
    executions = {}
    for index in orders[furthest]:
        executions[index] = executions.get(index, 0) + 1
    everywhere = set(min(orders.values(), key=len))
    good = {
        index for index in everywhere
        if executions[index] == 1 and index < len(stream.due)
    }
    if stream.two_way:
        for pid, replies in stream.replies.items():
            good &= {
                index for index, (_t, value) in replies.items()
                if value == stream.expected[index]
            }
        times = stream.replies[stream.stubs[0][0]]
        return {index: times[index][0] for index in good}
    return {index: t for t, index in stream.servants[correct[0]].log if index in good}


def _check_membership(deployment, faults, rung):
    """Every injected-faulty processor is excluded and no correct one."""
    for ring in deployment.rings:
        want = tuple(pid for pid in sorted(ring.processors) if pid not in faults)
        for pid in want:
            got = tuple(ring.endpoints[pid].members)
            if got != want:
                rung["problems"].append(
                    "P%d ends with membership %s, expected %s" % (pid, list(got), list(want))
                )
                return


def _excluded_at(installs, pid, default):
    return next((t for t, members in installs if pid not in members), default)


#: share of the time that may lie in intervals longer than the service gap
GAP_TIME_SHARE = 0.05


def _service_gap(stream, done, begin):
    """The interval between consecutive completions that an instant falls
    into, 95th percentile over the instants from ``begin`` on at which
    invocations were due.

    An outage that lasts for more than a twentieth of the window is
    reported at its full length, as a maximum would.  Without a fault
    the maximum is one interval in hundreds that a token visit just
    missed (5.95 or 6.6 ms on the WAN, by the seed); weighting by time
    leaves it out.
    """
    last_due = stream.due[-1]
    points = [begin] + sorted(t for t in done.values() if t >= begin)
    gaps = sorted((b - a for a, b in zip(points, points[1:]) if a < last_due), reverse=True)
    allowed = GAP_TIME_SHARE * sum(gaps)
    covered = 0.0
    for gap in gaps:
        covered += gap
        if covered >= allowed:
            return gap
    return 0.0  # nothing completed after ``begin``


def _layer_counts(deployment, reconfigurations):
    rings = deployment.rings
    counts = {
        "sim.events": deployment.system.scheduler.events_executed,
        "multicast.reconfigurations": reconfigurations,
    }
    for key in ("sent", "bytes_sent"):
        counts["net." + key] = sum(ring.network.stats[key] for ring in rings)
    for key in ("token_visits", "sent", "retransmits", "fragments_sent", "certs_signed"):
        counts["delivery." + key] = sum(
            endpoint.delivery.stats[key] for ring in rings for endpoint in ring.endpoints.values()
        )
    for key in ("duplicates_suppressed", "value_fault_votes_sent"):
        counts["rm." + key] = sum(
            manager.stats[key] for ring in rings for manager in ring.managers.values()
        )
    voters = [
        manager.voter_for(group)
        for ring in rings for manager in ring.managers.values()
        for group in sorted(manager.groups.snapshot())
    ]
    for key in ("copies", "decisions"):
        counts["vote." + key] = sum(v.stats[key] for v in voters if v is not None)

    # simulated CPU seconds of the measured server's processor, by category
    measured_pid = min(deployment.streams[0].servants)
    counts["cpu"] = dict(
        deployment.ring_of(measured_pid).processors[measured_pid].cpu_accounting
    )
    costs = rings[0].config.crypto_costs
    total = {}
    for ring in rings:
        for processor in ring.processors.values():
            for category, seconds in processor.cpu_accounting.items():
                total[category] = total.get(category, 0.0) + seconds
    counts["crypto.signs"] = total.get("crypto.sign", 0.0) / costs.sign_cost()
    counts["crypto.verifies"] = total.get("crypto.verify", 0.0) / costs.verify_cost()

    counts["caches"] = {
        name: (stats["hits"], stats["misses"]) for name, stats in perf.cache_stats().items()
    }

    system = deployment.system
    if hasattr(system, "sites"):
        counts["wan.forwarded"] = _gateway_sum(system.gateway_stats(), "forwarded")
        counts["cluster.forwarded"] = counts["cluster.suppressed"] = 0
        for cluster in system.sites.values():
            stats = cluster.gateway_stats()
            counts["cluster.forwarded"] += _gateway_sum(stats, "forwarded")
            counts["cluster.suppressed"] += _gateway_sum(stats, "suppressed")
    return counts


def _gateway_sum(link_stats, key):
    return sum(
        direction[key]
        for link in link_stats.values()
        for replica in link["replicas"]
        for direction in replica.values()
    )
