"""The obs exports no CI artefact reaches, pinned by digest.

``python -m repro.obs.trace`` runs neither a batch-signature nor a
fragmenting workload, so three of the collector's hooks — ``certified``
(which draws every certificate node of a batch trace), ``fragmented`` and
``reassembled`` — have no byte-identity gate among the CI artefacts.
This drill reaches all of them on one seeded ring: eight processors on
the batch-signature pipeline, a five-way server and three-way client, a
crash, a value-faulty replica, a window of message loss and a few
payloads that fragment.  It is short enough that no flight recorder
wraps, so what the sinks *keep* is exactly what was recorded.

The two digests were first taken at commit ``e62adb9``, before the sinks
changed what they store (rows and node ids instead of event objects and
dict-in-dict nodes).  A change to either is a change to an export.

They were re-taken on purpose at PR 22, the child of commit ``867c249``,
because the *drill* moved, not an export: this is a batch ring, and a
batch ring's ``token_rotation_timeout`` now follows what a token visit
costs there (164 ms instead of 327 ms at these eight processors).  A
token lost in the lossy window is regenerated that much sooner and the
four strikes before ``fail_to_send`` take 0.66 s instead of 1.31 s, so
the crash and the value fault no longer merge into one reconfiguration:
P1 is excluded at 2.7 s and P2 by a second installation at 4.2 s, which
is why ``until`` went from 3.0 to 4.5.

The first pin ran seed 17 and collected 72 replies of 72.  Under the new
timing seed 17's second installation cuts at seq 192 with 198 already
sequenced, and the six messages above the cut carry a three-fragment
``store``.  A surviving originator now sends what it sequenced above a
cut again on the new ring, a fragmented payload whole, so seed 17
collects all 72 again; the test below holds it to that.

``TRACE_SHA256`` was re-taken on purpose once more, by the change that
draws only the *first* certificate vouching a token visit: the
collector no longer adds a node and an edge for each later certificate
that re-vouches the visit.  On this drill the export went from 1 220
nodes and 2 354 edges to 1 039 and 1 208; every other node and edge,
and every per-cause sum, is the same as before.  ``REPORT_SHA256`` did
not move.

Seed 23 was believed to put nothing above a cut; it puts six messages
there (one replica copy from P3, five from P5; the sibling copies carry
every vote, so every reply still arrives).  Re-sending them moves the
drill, so the export digests are pinned twice.  ``TRACE_SHA256`` and
``REPORT_SHA256`` pin the drill with those messages dropped, as the ring
used to: the same history, so they hold the collector's and the
flight recorders' *representation* to the bytes they have always
exported.  ``RESENT_*`` pin the drill as it runs now, 1 045 nodes and
1 042 edges.

Both trace digests were re-taken once more when the collector stopped
sampling: the ``trace_run`` record lost ``sample_every`` and the
``trace_summary`` record ``sampled``, ``dropped`` and ``sample_every``.
With those keys removed, the old exports are the new bytes; every node,
edge and per-cause sum is unchanged.
"""

import hashlib
import json

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.core.replica import ValueFaultServant
from repro.multicast.config import MulticastConfig
from repro.multicast.delivery import DeliveryProtocol
from repro.obs import Observability, TraceCollector
from repro.obs.forensics import ForensicsHub, build_report, fault_id_for, merge_timeline
from repro.obs.trace import export_traces, verify_against_critpath
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan, LinkFaults

SEED = 23
FIRST_PINNED_SEED = 17
FRAGMENT_BYTES = 512
OPERATIONS = 24
CRASH_AT = 0.55
FIRST_CORRUPT = 8

TRACE_SHA256 = "c0c9c0e53084ed1c14d3bae6e970f281cc2225c93c6b4b283e146e761401743f"
REPORT_SHA256 = "57615f8494884b562215ca17751112bad8290128b87ffd1a0baddc036c28a46a"
RESENT_TRACE_SHA256 = "842d8344a60ba4d7be5e5f44315e9f523d06da6ee54913eb9745c782203cbf12"
RESENT_REPORT_SHA256 = "f15c6ab679b994873e5dbc4adcc3eb37870261b691433b286110fc1ecacfabf1"

VAULT_IDL = InterfaceDef(
    "Vault",
    [
        OperationDef("echo", [ParamDef("n", "long")], result="long"),
        OperationDef("store", [ParamDef("data", "octets")], result="long"),
    ],
)


class VaultServant:
    def echo(self, n):
        return n

    def store(self, data):
        return len(data)


def run_drill(seed=SEED):
    """The drill, its larger payloads split into ``FRAGMENT_BYTES`` frames."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MulticastConfig, "fragment_payload_bytes", FRAGMENT_BYTES)
        return _drill(seed)


def _drill(seed):
    config = ImmuneConfig(
        case=SurvivabilityCase.FULL_SURVIVABILITY,
        seed=seed,
        batch_signatures=True,
    )
    plan = FaultPlan(
        default=LinkFaults(loss_prob=0.003), active_from=0.15, active_until=1.0
    ).schedule_crash(1, CRASH_AT)
    collector = TraceCollector()
    obs = Observability(forensics=ForensicsHub(), trace=collector)
    immune = ImmuneSystem(
        num_processors=8, config=config, fault_plan=plan, trace_kinds=frozenset(), obs=obs
    )

    def factory(pid):
        servant = VaultServant()
        return ValueFaultServant(servant, corrupt_from=FIRST_CORRUPT) if pid == 2 else servant

    server = immune.deploy("vault", VAULT_IDL, factory, [0, 1, 2, 6, 7])
    client = immune.deploy_client("driver", [3, 4, 5])
    immune.start()
    stubs = immune.client_stubs(client, VAULT_IDL, server)
    replies = []

    def fire(k):
        for pid, stub in stubs:
            if immune.processors[pid].crashed:
                continue
            if k % 6 == 5:
                # 3 * FRAGMENT_BYTES of body: fragments on the request leg
                stub.store(bytes([k]) * (3 * FRAGMENT_BYTES), reply_to=replies.append)
            else:
                stub.echo(k, reply_to=replies.append)

    for k in range(OPERATIONS):
        immune.scheduler.at(0.1 + 0.04 * k, fire, k, label="pinned.workload")
    value_fault_at = 0.1 + 0.04 * FIRST_CORRUPT
    obs.forensics.record_ground_truth(
        fault_id_for("value_fault", 2, value_fault_at), "value_fault", 2, value_fault_at
    )
    immune.run(until=4.5)
    return immune, obs, collector, replies


@pytest.fixture(scope="module")
def drill():
    return run_drill()


@pytest.fixture(scope="module")
def drill_dropping_above_the_cut():
    """The drill as the ring ran it before a survivor re-sent what it had
    sequenced above an installation's cut: those messages are dropped."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeliveryProtocol, "_reoriginate", DeliveryProtocol.drop_originated)
        return run_drill()


def test_the_drill_reaches_every_hook_and_wraps_no_recorder(drill):
    immune, obs, collector, replies = drill
    assert len(replies) == 3 * OPERATIONS
    assert 1 not in immune.surviving_members()
    report = build_report(obs.forensics)
    assert report["dropped_events"] == 0
    assert report["scorecard"]["accused"] == [1, 2]
    kinds = {event["event"] for event in report["timeline"]}
    assert {"batch_sign", "batch_verify", "vote_divergence", "membership_install"} <= kinds
    assert sum(e.delivery.stats["retransmits"] for e in immune.endpoints.values()) > 0
    records = collector.assemble(merge_timeline(obs.forensics))
    nodes = {node["node"][0] for record in records for node in record["nodes"]}
    assert {"cert", "fragment", "reassembled", "retransmit", "token", "delivered"} <= nodes


def test_the_first_pinned_seed_still_collects_every_reply():
    _immune, _obs, _collector, replies = run_drill(FIRST_PINNED_SEED)
    assert len(replies) == 3 * OPERATIONS


def test_traces_agree_with_the_critical_path(drill):
    immune, obs, collector, _replies = drill
    timeline = merge_timeline(obs.forensics)
    assert verify_against_critpath(
        collector, obs.spans, timeline, cost_model=immune.config.crypto_costs
    ) == []


def _digests(drill, tmp_path):
    """sha256 of the drill's trace export and of its forensic report."""
    immune, obs, collector, replies = drill
    records = collector.assemble(
        merge_timeline(obs.forensics), cost_model=immune.config.crypto_costs
    )
    path = tmp_path / "traces.jsonl"
    export_traces(
        str(path), records, collector.summary(records),
        {"workload": "pinned", "seed": SEED, "replies": len(replies)},
    )
    blob = json.dumps(build_report(obs.forensics), sort_keys=True)
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(blob.encode()).hexdigest(),
    )


def test_the_trace_export_is_the_pinned_bytes(drill_dropping_above_the_cut, tmp_path):
    trace_digest, _ = _digests(drill_dropping_above_the_cut, tmp_path)
    assert trace_digest == TRACE_SHA256


def test_the_forensic_report_is_the_pinned_bytes(drill_dropping_above_the_cut, tmp_path):
    _, report_digest = _digests(drill_dropping_above_the_cut, tmp_path)
    assert report_digest == REPORT_SHA256


def test_the_drill_that_resends_exports_its_pinned_bytes(drill, tmp_path):
    assert _digests(drill, tmp_path) == (RESENT_TRACE_SHA256, RESENT_REPORT_SHA256)
