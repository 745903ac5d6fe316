"""Table 5 accuracy of the derived timeouts, measured instead of assumed.

``MulticastConfig.resolve_timeouts`` budgets the delivery progress timer
at eight estimated rotations.  The timer is re-armed by *every* token
event at a processor (a token accepted or originated), so what it really
times is the longest silence between two consecutive token events there.
These drills wrap ``DeliveryProtocol._accept_token`` /
``_originate_token`` (from the test: the product has no hook) on four
seeded fault-free rings, one per mode the estimate distinguishes (and a
fifth whose certificate cadence is longer than its pipeline, where
backpressure and not the cadence decides how often a signature is on the
rotation path), and require eight times the longest silence anywhere to
fit inside that ring's ``token_rotation_timeout`` — with no strike, no
suspicion and no reconfiguration.  The batch rings run again under 1%
message loss, where strikes are legitimate but accuracy still is not
negotiable: every processor stays a member and nobody is suspected for a
provable reason.  A last pair of runs cuts the timeout to *one* estimated
rotation and requires the margin to be gone, so the drills above are
known to measure something.

The measured-vs-derived table of ``docs/PROTOCOLS.md`` was taken from
these rings.
"""

import collections

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.multicast.config import MulticastConfig
from repro.multicast.delivery import DeliveryProtocol
from repro.multicast.detector import PROVABLE_REASONS
from repro.obs import Observability
from repro.obs.forensics import ForensicsHub, merge_timeline
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan, LinkFaults
from repro.workloads.packet_driver import payload_size_for_frame

TARGET_IDL = InterfaceDef(
    "AccuracyTarget",
    [
        OperationDef("push", [ParamDef("data", "octets")], oneway=True),
        OperationDef("put", [ParamDef("data", "octets")], result="ulong"),
        OperationDef("echo", [ParamDef("n", "ulong")], result="ulong"),
    ],
)

START = 0.05


class Target:
    def __init__(self):
        self.executed = 0

    def push(self, data):
        self.executed += 1

    def put(self, data):
        self.executed += 1
        return len(data)

    def echo(self, n):
        self.executed += 1
        return n


#: one seeded ring: ``argument`` None is the payload that makes a 64-byte
#: IIOP frame, ``interval`` the seconds between invocations, ``span`` the
#: simulated seconds of load, ``config`` further ``ImmuneConfig`` keywords
#: and ``constants`` the ``MulticastConfig`` constants the ring patches
Ring = collections.namedtuple(
    "Ring",
    "processors servers clients case batch op argument interval span config constants",
    defaults=({}, {}),
)

RINGS = {
    # the paper's Figure 7 load on case 3: 64-byte one-way pushes
    "digests_oneway": Ring(
        6, [0, 1, 2], [3, 4, 5], SurvivabilityCase.MAJORITY_VOTING, batch=False,
        op="push", argument=None, interval=500e-6, span=0.4,
    ),
    # every token RSA-signed, 4 KiB requests with replies
    "signed_twoway_4k": Ring(
        6, [0, 1, 2], [3, 4, 5], SurvivabilityCase.FULL_SURVIVABILITY, batch=False,
        op="put", argument=b"\x5a" * 4096, interval=1 / 75.0, span=1.0,
    ),
    # the ladder drill's shape: 6.7 ms between echoes is longer than
    # idle_activity_window, so the token parks between invocations
    "batch_drill_shape": Ring(
        8, [0, 1, 2, 6, 7], [3, 4, 5], SurvivabilityCase.FULL_SURVIVABILITY, batch=True,
        op="echo", argument=7, interval=1 / 150.0, span=1.5,
    ),
    # bench.perf's arrivals, above what the ring orders: send queues
    # stay full and holders certify under backpressure
    "batch_backpressure": Ring(
        6, [0, 1, 2], [3, 4, 5], SurvivabilityCase.FULL_SURVIVABILITY, batch=True,
        op="push", argument=None, interval=300e-6, span=0.3,
    ),
    # the same arrivals with a cadence the pipeline never lets happen: one
    # rotation of lag and a holder certifies *before* it originates, a
    # 512-bit signature on the rotation path every rotation or so
    "batch_shallow_pipeline": Ring(
        6, [0, 1, 2], [3, 4, 5], SurvivabilityCase.FULL_SURVIVABILITY, batch=True,
        op="push", argument=None, interval=300e-6, span=0.3,
        config=dict(modulus_bits=512),
        constants=dict(signature_batch_visits=64, pipeline_depth=1),
    ),
}
BATCH_RINGS = sorted(name for name, ring in RINGS.items() if ring.batch)


class TokenEvents:
    """Every re-arming token event and every strike, per processor."""

    def __init__(self, monkeypatch):
        self.seen = {}  # pid -> [simulated time of each token event]
        self.originated = {}  # pid -> [simulated time of each origination]
        self.strikes = 0
        accept = DeliveryProtocol._accept_token
        originate = DeliveryProtocol._originate_token
        timeout = DeliveryProtocol._on_progress_timeout

        def accepting(protocol, token, raw):
            self.seen.setdefault(protocol.my_id, []).append(protocol.scheduler.now)
            return accept(protocol, token, raw)

        def originating(protocol, expected_ring_id):
            rotations = protocol.stats["token_rotations"]
            originate(protocol, expected_ring_id)
            if protocol.stats["token_rotations"] > rotations:  # not superseded
                now = protocol.scheduler.now
                self.seen.setdefault(protocol.my_id, []).append(now)
                self.originated.setdefault(protocol.my_id, []).append(now)

        def striking(protocol):
            before = protocol._strikes
            timeout(protocol)
            self.strikes += protocol._strikes > before

        monkeypatch.setattr(DeliveryProtocol, "_accept_token", accepting)
        monkeypatch.setattr(DeliveryProtocol, "_originate_token", originating)
        monkeypatch.setattr(DeliveryProtocol, "_on_progress_timeout", striking)

    def longest_gap(self):
        return max(
            later - earlier
            for times in self.seen.values()
            for earlier, later in zip(times, times[1:])
        )

    def rotations(self):
        return sorted(
            later - earlier
            for times in self.originated.values()
            for earlier, later in zip(times, times[1:])
        )


def run_ring(name, monkeypatch, loss_prob=0.0, seed=5):
    ring = RINGS[name]
    for constant, value in ring.constants.items():
        monkeypatch.setattr(MulticastConfig, constant, value)
    events = TokenEvents(monkeypatch)
    obs = Observability(forensics=ForensicsHub())
    immune = ImmuneSystem(
        ring.processors,
        config=ImmuneConfig(
            case=ring.case, seed=seed, batch_signatures=ring.batch, **ring.config
        ),
        fault_plan=FaultPlan(default=LinkFaults(loss_prob=loss_prob)) if loss_prob else None,
        trace_kinds=frozenset(),
        obs=obs,
    )
    targets = {}

    def factory(pid):
        targets[pid] = Target()
        return targets[pid]

    server = immune.deploy("target", TARGET_IDL, factory, ring.servers)
    client = immune.deploy_client("driver", ring.clients)
    immune.start()
    stubs = immune.client_stubs(client, TARGET_IDL, server)
    argument = ring.argument
    if argument is None:
        argument = b"\xab" * payload_size_for_frame(server.reference.object_key)

    def fire():
        for _pid, stub in stubs:
            if ring.op == "push":
                stub.push(argument)
            else:
                getattr(stub, ring.op)(argument, reply_to=lambda value: None)

    for k in range(int(ring.span / ring.interval)):
        immune.scheduler.at(START + k * ring.interval, fire, label="accuracy.workload")
    immune.run(until=START + ring.span + 0.3)
    assert min(target.executed for target in targets.values()) > 0
    return immune, events, merge_timeline(obs.forensics)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_fault_free_ring_never_comes_near_its_timeout(name, monkeypatch):
    immune, events, timeline = run_ring(name, monkeypatch)
    timeout = immune.config.multicast.token_rotation_timeout
    # eight rotations' budget covers eight of the worst hop ever seen
    assert 8 * events.longest_gap() < timeout
    # ... and was seen: every processor accepts every token of a rotation
    assert min(len(times) for times in events.seen.values()) >= 200
    assert events.strikes == 0
    assert [e for e in timeline if e.etype in ("token_regenerate", "suspect")] == []
    everyone = list(range(len(immune.endpoints)))
    for endpoint in immune.endpoints.values():
        assert endpoint.detector.suspects() == set()
        assert (endpoint.ring_id, list(endpoint.members)) == (1, everyone)
    # and the ring was in the state its name says
    if name == "batch_drill_shape":
        parked_rotation = len(everyone) * immune.config.multicast.token_idle_delay
        assert events.rotations()[-1] >= parked_rotation
    if name in ("batch_backpressure", "batch_shallow_pipeline"):
        reasons = collections.Counter(
            e.get("reason") for e in timeline if e.etype == "batch_sign"
        )
        assert reasons["backpressure"] > 0
        if name == "batch_shallow_pipeline":
            assert reasons["cadence"] == 0  # 64 own visits never come due


@pytest.mark.parametrize("name", ["batch_backpressure", "batch_drill_shape"])
def test_one_estimated_rotation_would_not_be_margin_enough(name, monkeypatch):
    """The drills can fail: with the timeout cut to the one rotation it
    is eight of, eight times the longest silence no longer fits."""
    resolve = MulticastConfig.resolve_timeouts

    def one_rotation(config, cost_model, num_processors):
        resolve(config, cost_model, num_processors)
        config.token_rotation_timeout /= 8
        return config

    monkeypatch.setattr(MulticastConfig, "resolve_timeouts", one_rotation)
    immune, events, _timeline = run_ring(name, monkeypatch)
    timeout = immune.config.multicast.token_rotation_timeout
    assert 8 * events.longest_gap() > timeout
    # the longest silence is still shorter than a rotation's budget, so
    # the cut ring struck nobody: it is the margin that went, not accuracy
    assert events.longest_gap() < timeout
    assert events.strikes == 0


@pytest.mark.parametrize("name", BATCH_RINGS)
def test_lossy_batch_ring_keeps_every_member(name, monkeypatch):
    immune, _events, timeline = run_ring(name, monkeypatch, loss_prob=0.01)
    assert immune.network.stats["dropped"] > 0
    everyone = list(range(len(immune.endpoints)))
    for endpoint in immune.endpoints.values():
        assert list(endpoint.members) == everyone
        assert endpoint.detector.provable_suspects() == set()
    # strikes and transient suspicion are a lost token's legitimate
    # price; a provable reason against a correct processor never is
    assert [
        e for e in timeline
        if e.etype == "suspect" and e.get("reason") in PROVABLE_REASONS
    ] == []

