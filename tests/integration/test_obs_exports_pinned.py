"""The obs exports no CI artefact reaches, pinned by digest.

``python -m repro.obs.trace`` runs neither a batch-signature nor a
fragmenting workload, so three of the collector's hooks — ``certified``
(which owns most nodes of a batch trace), ``fragmented`` and
``reassembled`` — have no byte-identity gate among the CI artefacts.
This drill reaches all of them on one seeded ring: eight processors on
the batch-signature pipeline, a five-way server and three-way client, a
crash, a value-faulty replica, a window of message loss and a few
payloads that fragment.  It is short enough that no flight recorder
wraps, so what the sinks *keep* is exactly what was recorded.

The two digests were taken at commit ``e62adb9``, before the sinks
changed what they store (rows and node ids instead of event objects and
dict-in-dict nodes).  A change to either is a change to an export.
"""

import hashlib
import json

import pytest

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.core.replica import ValueFaultServant
from repro.obs import Observability, TraceCollector
from repro.obs.forensics import ForensicsHub, build_report, fault_id_for, merge_timeline
from repro.obs.trace import export_traces, verify_against_critpath
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.sim.faults import FaultPlan, LinkFaults

SEED = 17
FRAGMENT_BYTES = 512
OPERATIONS = 24
CRASH_AT = 0.55
FIRST_CORRUPT = 8

TRACE_SHA256 = "cb91c66f7b84c5b903ffa2d152d87c728ebc64fe7a6947bc5253e35f81055a26"
REPORT_SHA256 = "68f72088ae0eab15e0a1c597cd5fe1fcc3e63439e8e5aefe38a33e4bf64616ed"

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


def run_drill():
    config = ImmuneConfig(
        case=SurvivabilityCase.FULL_SURVIVABILITY,
        seed=SEED,
        batch_signatures=True,
        fragment_payload_bytes=FRAGMENT_BYTES,
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
    immune.run(until=3.0)
    return immune, obs, collector, replies


@pytest.fixture(scope="module")
def drill():
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


def test_traces_agree_with_the_critical_path(drill):
    immune, obs, collector, _replies = drill
    timeline = merge_timeline(obs.forensics)
    assert verify_against_critpath(
        collector, obs.spans, timeline, cost_model=immune.config.crypto_costs
    ) == []


def test_the_trace_export_is_the_pinned_bytes(drill, tmp_path):
    immune, obs, collector, replies = drill
    records = collector.assemble(
        merge_timeline(obs.forensics), cost_model=immune.config.crypto_costs
    )
    path = tmp_path / "traces.jsonl"
    export_traces(
        str(path), records, collector.summary(records),
        {"workload": "pinned", "seed": SEED, "replies": len(replies)},
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256


def test_the_forensic_report_is_the_pinned_bytes(drill):
    _immune, obs, _collector, _replies = drill
    blob = json.dumps(build_report(obs.forensics), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_SHA256
