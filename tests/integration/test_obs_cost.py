"""What full observability stores and builds: exact counts, no timing.

The two sinks a protocol layer writes to on the token path keep *rows*,
not object graphs.  A flight recorder keeps each record as a row of
columns (index, time and seq in arrays, an interned context tuple, and
the fields) and builds a :class:`ForensicEvent` only for a reader; a
keyword record's fields are one tuple of values, and the field dict of
a sealed token or certificate is built once, by whoever logs the frame
first, and shared by every recorder (and trace node) that logs the same
object; a trace DAG is node ids under keys shared by every trace, a
time list, a list of the bare values each node's attributes are built
from on read, and one byte string of edges; a registered payload is let
go when it is queued.

Pinned here on a seeded, loss-free six-processor batch-signature ring
with every sink attached, the way ``test_certificate_cost.py`` pins the
encoder: by how often things are built and how many objects stay alive,
never by how long anything took.
"""

import gc
from collections import Counter

import pytest

from repro import perf
from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.multicast.token import Token, TokenCertificate
from repro.obs import Observability, TraceCollector
from repro.obs.forensics import ForensicEvent, ForensicsHub, FlightRecorder, merge_timeline
from repro.workloads.open_loop import ECHO_IDL, EchoServant

PROCESSORS = 6
OPERATIONS = 20


class Drill:
    """The ring, built and not yet run, with its sinks."""

    def __init__(self):
        perf.clear_caches()
        self.hub = ForensicsHub()
        self.collector = TraceCollector()
        self.obs = Observability(forensics=self.hub, trace=self.collector)
        config = ImmuneConfig(
            case=SurvivabilityCase.FULL_SURVIVABILITY, seed=11, batch_signatures=True
        )
        self.immune = immune = ImmuneSystem(
            num_processors=PROCESSORS, config=config, trace_kinds=frozenset(), obs=self.obs
        )
        server = immune.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1, 2])
        client = immune.deploy_client("driver", [3, 4, 5])
        immune.start()
        stubs = immune.client_stubs(client, ECHO_IDL, server)
        self.replies = []

        def fire(k):
            for _pid, stub in stubs:
                stub.echo(k, reply_to=self.replies.append)

        for k in range(OPERATIONS):
            immune.scheduler.at(0.1 + 0.02 * k, fire, k, label="cost.workload")

    def run(self):
        self.immune.run(until=0.1 + 0.02 * OPERATIONS + 0.25)
        assert len(self.replies) == 3 * OPERATIONS
        return self

    def total(self, key):
        return sum(e.delivery.stats[key] for e in self.immune.endpoints.values())

    def rows(self):
        return sum(recorder.to_dict()["events"] for recorder in self.hub.recorders())


@pytest.fixture
def calls(monkeypatch):
    """How often each thing the sinks used to build per record was built."""
    counts = {}

    def counted(owner, name):
        real = getattr(owner, name)
        counts[owner, name] = 0

        def wrapper(self, *args, **kwargs):
            counts[owner, name] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ForensicEvent, "__init__")
    counted(Token, "forensic_summary")
    counted(TokenCertificate, "forensic_summary")
    return counts


def test_no_event_object_exists_until_a_reader_asks(calls):
    drill = Drill().run()
    rows = drill.rows()
    assert rows > 3000
    assert calls[ForensicEvent, "__init__"] == 0
    events = [event for recorder in drill.hub.recorders() for event in recorder.events]
    assert calls[ForensicEvent, "__init__"] == len(events) == rows
    assert len(merge_timeline(drill.hub)) == rows
    assert sum(recorder.dropped for recorder in drill.hub.recorders()) == 0


def test_a_frame_summary_is_built_once_per_sealed_frame(calls):
    drill = Drill().run()
    originated = drill.total("token_rotations")
    issued = drill.total("certs_signed")
    assert originated > 400 and issued > 20
    # Loss-free: every receiver is handed the originator's sealed object
    # by the decode memo, so nobody but the first logger builds a dict.
    assert calls[Token, "forensic_summary"] == originated
    assert calls[TokenCertificate, "forensic_summary"] == issued

    events = [event for recorder in drill.hub.recorders() for event in recorder.events]
    token_rows = [e for e in events if e.etype in ("token_send", "token_receive")]
    assert len(token_rows) > (PROCESSORS - 1) * (originated - 1)
    assert len({id(e.fields) for e in token_rows}) == originated
    verified = [e for e in events if e.etype == "batch_verify"]
    assert len(verified) >= (PROCESSORS - 1) * (issued - 1)
    assert len({id(e.fields) for e in verified}) <= issued


def _reachable(roots, beyond):
    """Container objects reachable from ``roots`` without entering
    ``beyond`` (or any class: an instance refers to its type)."""
    seen = {id(obj) for obj in beyond}
    stack, count = list(roots), 0
    while stack:
        obj = stack.pop()
        if (
            id(obj) in seen
            or isinstance(obj, type)
            or not type(obj).__flags__ & (1 << 14)  # Py_TPFLAGS_HAVE_GC
        ):
            continue
        seen.add(id(obj))
        count += 1
        stack.extend(gc.get_referents(obj))
    return count


def test_what_stays_alive_is_a_constant_per_row_node_and_edge(monkeypatch):
    keyword_rows, summaries = [0], set()
    record, record_fields = FlightRecorder.record, FlightRecorder.record_fields

    def counted_record(self, etype, **fields):
        keyword_rows[0] += 1
        record(self, etype, **fields)

    def counted_record_fields(self, etype, fields):
        summaries.add(id(fields))
        record_fields(self, etype, fields)

    monkeypatch.setattr(FlightRecorder, "record", counted_record)
    monkeypatch.setattr(FlightRecorder, "record_fields", counted_record_fields)
    drill = Drill().run()
    beyond = [drill.immune.scheduler, drill.obs.registry, drill.hub]
    recorders = drill.hub.recorders()
    assert sum(recorder.dropped for recorder in recorders) == 0
    assert drill.rows() > 10 * keyword_rows[0]
    held_by_recorders = _reachable(recorders, beyond)
    # A keyword record keeps one tuple of values; a frame's summary dict
    # is held once however many rows share it; the rest is per recorder:
    # itself, its two rings and their column lists, and its interned
    # (ring, shard, etype, keys) tuples.  Index, time and seq are array
    # columns, no object at all.  (A tuple per row, a dict per keyword
    # record and the shared summaries held 17 062 containers here, 1.2 a
    # row; this is 3 338, 0.24 a row.)
    assert held_by_recorders <= keyword_rows[0] + len(summaries) + 32 * len(recorders)

    records = drill.collector.assemble()
    kinds = Counter(node["node"][0] for record in records for node in record["nodes"])
    nodes = sum(kinds.values())
    edges = sum(
        1 for record in records for edge in record["edges"] if edge[2] == "causal"
    )
    # Only the first certificate that vouches a visit is drawn; the
    # re-vouching ones used to make this 1 029 nodes and 1 781 edges.
    assert nodes > 700 and edges > 650
    traces = drill.collector.traces()
    held_by_traces = _reachable(traces, beyond)
    # A node key that names no token visit or certificate is one tuple
    # for every trace, in one table: a stage, or a processor's copy,
    # delivery or vote.
    shared_keys = {
        k for trace in traces for k in trace.ids if k[0] not in ("token", "cert")
    }
    assert len(shared_keys) < 40
    # Per trace: the DAG, its key, its four tables and the two votes'
    # tallies.  Per node, only a token holds a container of its own, the
    # list of its summary and seqs: a copy's one seq is a bare int.
    # A token and a certificate node also name a visit or a certificate
    # by a key and a summary dict, which the traces it covers share.
    # Counts are bare ints and the edges one byte string a trace.  (A key
    # per node, attribute dicts and an int per edge held 1 658 containers
    # here, 2.2 a node; a seq list per copy 827; this is 707.)
    seq_lists = kinds["token"]
    named = 2 * (kinds["token"] + kinds["cert"])
    shared = 1 + len(shared_keys)
    assert held_by_traces <= 8 * len(records) + seq_lists + named + shared


def test_a_payload_registration_ends_when_it_is_queued(monkeypatch):
    """Every payload the Replication Managers registered was queued, and
    the collector let each go: a second lookup finds nothing."""
    registered = []
    real = TraceCollector.register_payload

    def register(self, payload, *context):
        registered.append(payload)
        real(self, payload, *context)

    monkeypatch.setattr(TraceCollector, "register_payload", register)
    drill = Drill().run()
    assert len(registered) == 2 * 3 * OPERATIONS  # three copies a leg
    assert all(drill.collector.context_for(payload) is None for payload in registered)
