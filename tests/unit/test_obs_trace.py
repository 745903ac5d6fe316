"""Unit tests for the causal trace collector (:mod:`repro.obs.trace`)."""

import pytest

from repro.obs.export import JsonlInputError, read_jsonl
from repro.obs.trace import (
    TraceCollector,
    export_traces,
    fork_summary,
    render_digest,
    render_trace_tree,
    render_waterfall,
    tail_exemplars,
    trace_id_for,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, dt=0.001):
        self.now += dt
        return self.now


def collector():
    c = TraceCollector()
    clock = FakeClock()
    c.bind(clock)
    return c, clock


REQ_STAGES = ("intercepted", "multicast_queued", "ordered", "voted",
              "dispatched", "executed", "reply_ordered", "reply_voted")


def closed_trace(c, clock, key=("driver", 1)):
    """Walk one invocation through the stage backbone plus ring nodes."""
    c.begin(key)
    payload = b"payload-%r" % (key,)
    c.register_payload(payload, key, "req", ("stage", "multicast_queued"))
    for stage in REQ_STAGES[:2]:
        c.mark_stage(key, stage)
        clock.tick()
    ctx = c.context_for(payload)
    assert ctx == (key, "req", ("stage", "multicast_queued"))
    c.copy_sent(ctx, sender=3, seq=7)
    clock.tick()
    c.token_covered(7, {"holder": 0, "visit": 2, "token_seq": 7}, True)
    c.certified({"signer": 0, "first_visit": 1, "last_visit": 2, "count": 2})
    c.delivered(7, sender=3, covering_visit=2)
    for stage in REQ_STAGES[2:]:
        c.mark_stage(key, stage)
        clock.tick()
    c.vote_copy(key, "req", sender=3)
    c.vote_decided(key, "req")
    return key


def test_trace_id_is_deterministic_and_short():
    assert trace_id_for(("driver", 1)) == trace_id_for(("driver", 1))
    assert trace_id_for(("driver", 1)) != trace_id_for(("driver", 2))
    assert len(trace_id_for(("driver", 1))) == 16
    assert int(trace_id_for(("driver", 1)), 16) >= 0


def test_a_registration_ends_at_the_lookup_that_queues_the_payload():
    c, _ = collector()
    key = ("driver", 1)
    c.register_payload(b"p", key, "req", ("stage", "multicast_queued"))
    assert c.context_for(b"p") == (key, "req", ("stage", "multicast_queued"))
    assert c.context_for(b"p") is None


def test_visit_free_node_keys_are_one_tuple_across_traces():
    c, clock = collector()
    closed_trace(c, clock, key=("driver", 1))
    closed_trace(c, clock, key=("driver", 2))
    first, second = c.get(("driver", 1)), c.get(("driver", 2))
    shared = [k for k in first.ids if k[0] not in ("token", "cert")]
    assert {k[0] for k in shared} == {
        "stage", "copy", "delivered", "vote_copy", "vote_decided",
    }
    for node_key in shared:
        assert next(k for k in second.ids if k == node_key) is node_key


def nodes_by_key(record):
    return {tuple(node["node"]): node for node in record["nodes"]}


def causal_edges(record):
    return [edge[:2] for edge in record["edges"] if edge[2] == "causal"]


def test_first_stage_mark_wins():
    c, clock = collector()
    key = ("driver", 1)
    c.begin(key)
    clock.tick()
    c.mark_stage(key, "intercepted")
    first_time = clock.now
    clock.tick()
    c.mark_stage(key, "intercepted")
    (record,) = c.assemble()
    assert [node["node"] for node in record["nodes"]] == [["stage", "intercepted"]]
    assert record["nodes"][0]["time"] == first_time
    assert c.get(key).stage_marks() == {"intercepted": first_time}


def test_assembled_record_closes_and_connects():
    c, clock = collector()
    key = closed_trace(c, clock)
    (record,) = c.assemble()
    assert record["closed"] is True
    assert record["key"] == list(key)
    assert record["end_to_end"] == pytest.approx(0.008)
    kinds = {tuple(node["node"])[0] for node in record["nodes"]}
    assert {"stage", "copy", "token", "cert", "delivered",
            "vote_copy", "vote_decided"} <= kinds
    causal = [e for e in record["edges"] if e[2] == "causal"]
    timing = [e for e in record["edges"] if e[2] == "timing"]
    assert causal and len(timing) == len(REQ_STAGES) - 1
    # every node except the roots has an incoming causal edge or is a stage
    ids_with_parent = {e[1] for e in causal}
    for node in record["nodes"]:
        if node["node"][0] != "stage":
            assert node["id"] in ids_with_parent or node["node"][0] == "stage"
    # per-cause sums in the record equal the timing-edge row sums
    from_edges = {}
    for edge in timing:
        for cause, seconds in edge[3]:
            from_edges[cause] = from_edges.get(cause, 0.0) + seconds
    assert from_edges == record["cause_seconds"]
    assert sum(record["cause_seconds"].values()) == pytest.approx(
        record["end_to_end"]
    )


def test_certificate_draws_each_token_edge_once():
    """A certificate spanning three bound visits, then re-vouched: the
    node list, the certificate node and the edge list are pinned, with
    one edge per token -> certificate pair however often it is vouched."""
    c, clock = collector()
    key = ("driver", 1)
    c.begin(key)
    c.register_payload(b"p", key, "req", ("stage", "multicast_queued"))
    c.mark_stage(key, "multicast_queued")
    ctx = c.context_for(b"p")
    for visit, seq in ((1, 5), (2, 6), (4, 7)):
        c.copy_sent(ctx, sender=3, seq=seq)
        c.token_covered(seq, {"holder": 0, "visit": visit, "token_seq": seq}, True)
    cert = {"signer": 2, "first_visit": 1, "last_visit": 4, "count": 4}
    clock.tick()
    c.certified(cert)  # visit 3 was bound to nothing
    (once,) = c.assemble()
    clock.tick()
    c.certified(cert)  # the overlap of a later certificate: nothing new
    (twice,) = c.assemble()
    assert twice == once
    assert [node["node"] for node in once["nodes"]] == [
        ["stage", "multicast_queued"],
        ["copy", "req", 0, 3],
        ["token", "req", 0, 1],
        ["token", "req", 0, 2],
        ["token", "req", 0, 4],
        ["cert", 2, 0, 1],
    ]
    assert [node["id"] for node in once["nodes"]] == list(range(6))
    assert once["nodes"][1]["attrs"] == {"seqs": [5, 6, 7]}
    assert once["nodes"][3]["attrs"] == {
        "holder": 0, "visit": 2, "token_seq": 6, "seqs": [6],
    }
    assert once["nodes"][5] == {
        "id": 5, "node": ["cert", 2, 0, 1], "time": 0.001, "attrs": cert,
    }
    assert causal_edges(once) == [[0, 1], [1, 2], [1, 3], [1, 4], [2, 5], [3, 5], [4, 5]]


def test_retransmission_nodes_count_attempts():
    c, clock = collector()
    key = ("driver", 9)
    c.begin(key)
    c.register_payload(b"p", key, "req", ("stage", "multicast_queued"))
    c.mark_stage(key, "multicast_queued")
    c.copy_sent(c.context_for(b"p"), sender=4, seq=11)
    c.retransmitted(11, sender=4)
    c.retransmitted(11, sender=0)  # another holder services the request
    c.retransmitted(11, sender=4)
    (record,) = c.assemble()
    nodes = nodes_by_key(record)
    assert nodes[("retransmit", "req", 0, 4)]["attrs"] == {"count": 2}
    assert nodes[("retransmit", "req", 0, 0)]["attrs"] == {"count": 1}
    copy_id = nodes[("copy", "req", 0, 4)]["id"]
    assert causal_edges(record)[1:] == [
        [copy_id, nodes[("retransmit", "req", 0, 4)]["id"]],
        [copy_id, nodes[("retransmit", "req", 0, 0)]["id"]],
    ]


def test_fork_summary_sees_three_branches_and_merge():
    c, clock = collector()
    key = ("driver", 2)
    c.begin(key)
    c.mark_stage(key, "intercepted")
    c.vote_copy(key, "req", sender=3)
    c.vote_decided(key, "req")
    clock.tick()
    for via, corrupt in ((9, True), (10, False), (11, False)):
        c.gateway_forwarded(key, "req", via, from_ring=0, to_ring=1, corrupt=corrupt)
    clock.tick()
    ring1 = c.scoped(1)  # shares c's traces, stamps shard 1
    for sender in (9, 10, 11):
        ring1.vote_copy(key, "req", sender=sender)
    ring1.vote_decided(key, "req")
    (record,) = c.assemble()
    shape = fork_summary(record)
    assert shape == {"fork_width": 3, "merged": True, "corrupt_branches": 1}


def test_summary_and_exemplars():
    c, clock = collector()
    closed_trace(c, clock, key=("driver", 1))
    closed_trace(c, clock, key=("driver", 2))
    records = c.assemble()
    summary = c.summary(records)
    assert summary["traces"] == 2 and summary["closed"] == 2
    exemplars = tail_exemplars(records, limit=1)
    assert len(exemplars) == 1
    assert exemplars[0]["top_cause"] is not None


def test_export_roundtrip_and_render_smoke(tmp_path):
    c, clock = collector()
    closed_trace(c, clock)
    records = c.assemble()
    summary = c.summary(records)
    path = tmp_path / "traces.jsonl"
    export_traces(str(path), records, summary, {"workload": "unit"})
    run_info, *loaded, loaded_summary = read_jsonl(str(path))
    assert [r.pop("record") for r in loaded] == ["trace"]
    assert loaded == records  # JSON round-trips listify tuples already
    assert loaded_summary["traces"] == 1
    assert run_info["workload"] == "unit"
    tree = render_trace_tree(loaded[0])
    assert "stage intercepted" in tree and "vote_decided" in tree
    waterfall = render_waterfall(loaded[0])
    assert "reply_voted" in waterfall
    digest = render_digest(loaded_summary)
    assert "1 trace" in digest or "traces" in digest


def test_read_jsonl_rejects_missing_empty_and_bad_lines(tmp_path):
    with pytest.raises(JsonlInputError, match="cannot read JSONL input"):
        read_jsonl(str(tmp_path / "absent.jsonl"))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(JsonlInputError, match="is empty"):
        read_jsonl(str(empty))
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"record": "trace_run"}\n{not json\n')
    with pytest.raises(JsonlInputError, match="line 2 is not valid JSON"):
        read_jsonl(str(bad))
    listed = tmp_path / "listed.jsonl"
    listed.write_text('{"record": "trace_run"}\n[1, 2]\n')
    with pytest.raises(JsonlInputError, match="line 2 is not a JSON object"):
        read_jsonl(str(listed))
