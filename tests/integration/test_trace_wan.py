"""A traced two-site WAN: ring-scoped observers at a nonzero ring base.

Alpha runs rings 0 and 1, beta runs ring 2 (its own ring 0, numbered
after alpha's by the federation's ring base).  An echo server on alpha
ring 1 answers a client on beta ring 0 across the WAN link, so every
invocation leaves nodes on all three shards of one causal DAG.
"""

import collections
import hashlib

import pytest

from repro.bench.build import Scenario, build
from repro.obs.forensics import merge_timeline
from repro.obs.trace import export_traces, verify_against_critpath
from repro.workloads import open_loop

#: sha256 of the export below; a refactor of the observers must keep it
EXPORT_SHA256 = "cb04b126f8ffbedd706735bffbe680b1a26ab54a1c990e5afb791a30bc3f2dbc"

OPERATIONS = 6


@pytest.fixture(scope="module")
def wan_trace(tmp_path_factory):
    built = build(Scenario(
        shape="wan", seed=7,
        config=(("sites", (("alpha", 2), "beta")), ("latency", 0.02)),
        forensics=4096, trace=True,
    ))
    wan, obs = built.system, built.obs
    server = wan.deploy("echo", open_loop.ECHO_IDL,
                        lambda pid: open_loop.EchoServant(), site="alpha", ring=1)
    client = wan.deploy_client("driver", site="beta", ring=0)
    wan.start()
    stubs = wan.client_stubs(client, open_loop.ECHO_IDL, server)
    driver = open_loop.OpenLoopDriver(wan.sites["beta"], stubs, open_loop.echo, "test.wan").run(
        0.1, OPERATIONS, 0.1)
    wan.run(until=0.1 + OPERATIONS * 0.1 + 1.5)
    timeline = merge_timeline(obs.forensics)
    cost_model = wan.sites["alpha"].rings[0].config.crypto_costs
    shard_of_group = wan.shard_of_group()
    records = obs.trace.assemble(timeline, cost_model=cost_model,
                                 shard_of_group=shard_of_group)
    path = tmp_path_factory.mktemp("wan") / "traces.jsonl"
    export_traces(str(path), records, obs.trace.summary(records),
                  {"workload": "wan", "seed": 7, "replies": len(driver.replies)})
    mismatches = verify_against_critpath(obs.trace, obs.spans, timeline,
                                         cost_model=cost_model,
                                         shard_of_group=shard_of_group)
    return wan, obs, driver, records, path, mismatches


def test_every_invocation_is_answered_across_the_wan(wan_trace):
    _wan, _obs, driver, *_ = wan_trace
    assert len(driver.replies) == 3 * OPERATIONS  # one per client replica


def test_nodes_carry_the_shard_of_the_ring_that_made_them(wan_trace):
    wan, _obs, _driver, records, _path, _ = wan_trace
    assert wan.site_of_shard() == {0: "alpha", 1: "alpha", 2: "beta"}
    kinds = ("copy", "delivered", "token", "vote_copy")
    per_shard = collections.Counter(
        (node["node"][0], node["node"][2])
        for record in records for node in record["nodes"]
        if node["node"][0] in kinds
    )
    assert per_shard == {(kind, shard): 36 for kind in kinds for shard in (0, 1, 2)}
    # A processor's copies, commits and tallies name its own ring: beta's
    # processors (shard 2) on beta, alpha's on shard 0 or 1.
    beta = set(wan.sites["beta"].processors)
    by_processor = [
        node["node"] for record in records for node in record["nodes"]
        if node["node"][0] in ("copy", "delivered", "vote_copy")
    ]
    assert any(sender in beta for *_, sender in by_processor)
    for kind, phase, shard, sender in by_processor:
        assert (shard == 2) == (sender in beta), (kind, phase, shard, sender)


def test_recorders_carry_every_shard(wan_trace):
    wan, obs, *_ = wan_trace
    recorders = obs.forensics.recorders()
    assert {recorder.shard for recorder in recorders} == {0, 1, 2}
    beta = set(wan.sites["beta"].processors)
    assert all((r.shard == 2) == (r.proc_id in beta) for r in recorders)


def test_trace_agrees_with_the_critical_path(wan_trace):
    *_, mismatches = wan_trace
    assert mismatches == []


def test_export_is_pinned(wan_trace):
    *_, path, _mismatches = wan_trace
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256
