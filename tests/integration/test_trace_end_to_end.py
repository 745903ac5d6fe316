"""End-to-end gates for causal distributed tracing (:mod:`repro.obs.trace`).

Asserts the acceptance story of the tracing layer:

* the per-cause sums of every assembled trace DAG agree with the
  critical-path decomposition (:mod:`repro.obs.critpath`) *exactly*;
* the DAG covers the full causal depth — client interception, ring
  copies, token coverage, delivery, voting, and the reply leg — and,
  on the cluster workload, the gateway hop with the masked-Byzantine
  three-way fork and its voted merge;
* the JSONL export is byte-identical across repeated runs.
"""

from dataclasses import replace

import pytest

from repro.bench.build import with_count
from repro.bench.drills import BYZANTINE_GATEWAY, TRACE, run_trace
from repro.obs.trace import (
    export_traces,
    fork_summary,
    render_trace_tree,
    verify_against_critpath,
)


def traced(scenario, operations):
    """``scenario`` traced, with ``operations`` invocations."""
    return run_trace(replace(with_count(scenario, operations), trace=True))


@pytest.fixture(scope="module")
def figure7():
    return traced(TRACE, 8)


@pytest.fixture(scope="module")
def cluster():
    return traced(BYZANTINE_GATEWAY, 4)


def export_bytes(workload_result, tmp_path, name):
    collector, obs, timeline, cost_model, shard_of_group, run_info = (
        workload_result
    )
    records = collector.assemble(
        timeline, cost_model=cost_model, shard_of_group=shard_of_group
    )
    path = tmp_path / name
    export_traces(str(path), records, collector.summary(records), run_info)
    return path.read_bytes()


def test_figure7_traces_agree_with_critpath_exactly(figure7):
    collector, obs, timeline, cost_model, _shards, _info = figure7
    mismatches = verify_against_critpath(
        collector, obs.spans, timeline, cost_model=cost_model
    )
    assert mismatches == []
    records = collector.assemble(timeline, cost_model=cost_model)
    assert records and all(r["closed"] for r in records)


def test_figure7_dag_covers_full_causal_depth(figure7):
    collector, obs, timeline, cost_model, _shards, _info = figure7
    for record in collector.assemble(timeline, cost_model=cost_model):
        kinds = {tuple(node["node"])[0] for node in record["nodes"]}
        # request -> ring transmission -> delivery -> vote -> reply
        # (no "cert" nodes: batch signatures are off in this workload)
        assert {"stage", "copy", "token", "delivered",
                "vote_copy", "vote_decided"} <= kinds
        stages = {node["node"][1] for node in record["nodes"]
                  if node["node"][0] == "stage"}
        assert {"intercepted", "multicast_queued", "ordered", "voted",
                "dispatched", "executed", "reply_voted"} <= stages
        # both phases of the invocation appear as vote decisions
        decided = {tuple(node["node"]) for node in record["nodes"]
                   if node["node"][0] == "vote_decided"}
        assert ("vote_decided", "req", 0) in decided
        assert ("vote_decided", "rep", 0) in decided


def test_figure7_export_byte_identical_across_runs(tmp_path):
    first = export_bytes(traced(TRACE, 4), tmp_path, "a.jsonl")
    second = export_bytes(traced(TRACE, 4), tmp_path, "b.jsonl")
    assert first == second


def test_cluster_traces_agree_with_critpath_exactly(cluster):
    collector, obs, timeline, cost_model, shard_of_group, _info = cluster
    mismatches = verify_against_critpath(
        collector, obs.spans, timeline,
        cost_model=cost_model, shard_of_group=shard_of_group,
    )
    assert mismatches == []


def test_cluster_shows_byzantine_fork_and_voted_merge(cluster):
    collector, obs, timeline, cost_model, shard_of_group, _info = cluster
    records = collector.assemble(
        timeline, cost_model=cost_model, shard_of_group=shard_of_group
    )
    forked = [r for r in records if fork_summary(r)["fork_width"] >= 3]
    assert forked  # cross-ring invocations fan out over all 3 gateways
    for record in forked:
        shape = fork_summary(record)
        assert shape["fork_width"] == 3
        assert shape["merged"] is True
        assert shape["corrupt_branches"] == 1
        # gateway hops appear on both legs of the invocation
        stages = {node["node"][1] for node in record["nodes"]
                  if node["node"][0] == "stage"}
        assert "gateway_forwarded" in stages
        assert "reply_gateway_forwarded" in stages
        tree = render_trace_tree(record)
        assert tree.count("gw_forward req") == 3
        assert "corrupt" in tree



def test_a_ring_without_certificates_keeps_no_visit_binding(figure7):
    """Only a certificate releases a token visit's binding, so a ring
    whose tokens are signed per visit must not bind one: the collector
    once kept six per traced invocation here, for the whole run."""
    collector, *_ = figure7
    assert collector.traces()
    assert not any(collector._visit_bindings.values())
