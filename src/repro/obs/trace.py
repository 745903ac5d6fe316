"""Causal distributed tracing: per-invocation DAGs across the stack.

A :class:`~repro.obs.spans.SpanTracker` span answers *where* one
logical invocation spent its time and :mod:`repro.obs.critpath`
answers *why*, but both flatten the invocation into per-stage deltas.
This module keeps the *shape*: every causal edge an invocation crosses
— the GIOP interception, each client replica's multicast copy, the
token rotation (and, in batch mode, the :class:`TokenCertificate`
vouching it), retransmission stalls, fragment split/reassembly, vote
collection, and the cross-ring gateway re-origination — becomes a node
in a per-invocation DAG assembled by a :class:`TraceCollector`.

Context propagation rules
-------------------------

* The trace key is the logical invocation id ``(source_group,
  op_num)`` — the same key the span tracker uses — plus a *phase*
  (``"req"`` or ``"rep"``) distinguishing the request from the reply
  leg.  The ``trace_id`` is a deterministic hash of the key.
* Producers that hand a payload to the multicast layer *register* the
  encoded bytes with the collector (the client Replication Manager for
  requests, the server RM for replies, a gateway replica for its
  re-originated copy).  The delivery layer takes the registration back
  once, when it queues the bytes, and the context rides on the queue
  entry to the ring sequence number (and to any fragment or re-sent
  copy).  Each replica registers its own encoding (the wrapped bytes
  embed its pid), and every encoding resolves to the same logical
  context, so all copies land on one trace.
* From the sequence number on, propagation is positional: the
  collector keeps global ``(shard, seq) -> trace`` bindings, so token
  coverage, retransmission servicing (which happens at whichever
  processor holds the token, not the originator), delivery commits,
  and fragment reassembly attach to the right trace without carrying
  bytes around.
* Ring-scoped views (:class:`repro.cluster.obsbridge.RingScopedTrace`)
  stamp the ring index into every positional call, exactly like the
  shard-stamped flight recorders.

The masked-Byzantine gateway fork is visible structurally: the three
gateway replicas of a link each add a ``gw_forward`` node under the
source ring's ``vote_decided`` node (three sibling branches, the
corrupt one flagged), and their re-originated copies converge on the
destination ring's ``vote_decided`` node — the voted merge.

Cross-validation is the correctness anchor: the timing edges between
consecutive stage nodes carry the *exact*
:func:`repro.obs.critpath.attribute_span` cause rows, computed from
the trace's own stage-node times, and :func:`verify_against_critpath`
asserts those times (and therefore every per-cause sum) equal the span
tracker's ground truth for every invocation.  Exports are
deterministic JSONL, byte-identical across runs.
"""

import hashlib
import json
import struct

from repro.obs.critpath import _TokenEvidence, attribute_span
from repro.obs.export import fmt_seconds
from repro.obs.forensics import UnboundClock
from repro.obs.spans import SPAN_STAGES, InvocationSpan

#: request / reply phase tags carried in every node key
PHASE_REQUEST = "req"
PHASE_REPLY = "rep"

#: one causal edge: parent id, child id
_EDGE = struct.Struct("<II")

#: node kinds whose key names a token visit or a certificate: kept out
#: of the shared key table, which would grow with the run by about what
#: it saved (a visit covers one or two traces; a certificate's key is
#: built once for all the traces it draws)
_PER_VISIT = ("token", "cert")

#: node kind -> the attribute its node stores as a bare count
_COUNTED = {"delivered": "commits", "retransmit": "count", "fragment": "fragments"}


def trace_id_for(key):
    """Deterministic 64-bit hex trace id for one invocation key."""
    text = "%s:%s" % (key[0], key[1])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _TraceDag:
    """One invocation's causal DAG under construction.

    Nodes are small integers in observation order: :attr:`ids` maps a
    node key tuple to its id (insertion order *is* id order, which the
    export preserves), :attr:`times` holds each node's first-observation
    time by id and :attr:`attrs` the least that rebuilds its attribute
    dict (see :func:`_attributes`; None for a node without one).
    :attr:`edges` is a byte string of ``(parent id, child id)`` pairs in
    the order first drawn, eight bytes an edge and no object at all.
    :attr:`tallied` lists the vote_copy node ids of each vote, under the
    vote's decision key, which every decision of that vote links.
    :attr:`shared` is the collector's one copy of every node key that
    names no token visit or certificate, used for such a node's key.
    """

    __slots__ = (
        "key", "trace_id", "oneway", "ids", "times", "attrs", "edges", "tallied", "shared"
    )

    def __init__(self, key, trace_id, shared):
        self.key = key
        self.trace_id = trace_id
        self.oneway = False
        self.ids = {}
        self.times = []
        self.attrs = []
        self.edges = bytearray()
        self.tallied = {}
        self.shared = shared

    def node(self, node_key, time, parent=None):
        """The id of a get-or-created node; first observation wins the
        timestamp.

        ``parent`` is a node key; one not (yet) observed is skipped
        silently — the node simply roots a dangling branch, which the
        renderer shows as a separate root.
        """
        node_id = self.ids.get(node_key)
        if node_id is None:
            if node_key[0] not in _PER_VISIT:
                node_key = self.shared.setdefault(node_key, node_key)
            node_id = self.ids[node_key] = len(self.times)
            self.times.append(time)
            self.attrs.append(None)
        if parent is not None:
            parent_id = self.ids.get(parent)
            if parent_id is not None and parent_id != node_id:
                self.link(parent_id, node_id)
        return node_id

    def link(self, parent_id, child_id):
        """Draw the edge ``parent_id -> child_id`` unless it is drawn."""
        pair = _EDGE.pack(parent_id, child_id)
        edges = self.edges
        at = edges.find(pair)
        while at > 0 and at % _EDGE.size:  # a match across two pairs
            at = edges.find(pair, at + 1)
        if at < 0:
            edges += pair

    def causal_edges(self):
        """``[parent id, child id]`` of every edge, in the order first drawn."""
        return [list(edge) for edge in _EDGE.iter_unpack(self.edges)]

    def stage_marks(self):
        """stage -> first observation time, mirroring span marks."""
        return {
            node_key[1]: self.times[node_id]
            for node_key, node_id in self.ids.items()
            if node_key[0] == "stage"
        }

    def pseudo_span(self):
        """An :class:`InvocationSpan` rebuilt from the stage nodes."""
        span = InvocationSpan(self.key, self.oneway)
        for stage, time in self.stage_marks().items():
            span.mark(stage, time)
        return span


def _attributes(kind, value):
    """A node's attribute dict, from what its DAG stores for it: the seq
    list of a copy, ``[token summary, *seqs]`` for a token, a bare count
    for the :data:`_COUNTED` kinds, the dict itself for a certificate or
    gateway forward, and None for a node without attributes."""
    if value is None:
        return {}
    if kind == "copy":
        return {"seqs": list(value)}
    if kind == "token":
        return {**value[0], "seqs": value[1:]}
    if kind in _COUNTED:
        return {_COUNTED[kind]: value}
    return value


class TraceCollector:
    """Assembles per-invocation causal DAGs from instrumentation hooks.

    Reached by the protocol layers as ``obs.trace`` (the name ``trace``
    alone is taken by the simulator's debug :class:`TraceLog`, so the
    layers store it as ``self._tracer``).  Every invocation is traced.

    The positional bindings resolve once, when they are made, to what
    the later hooks need — the trace object and the ids of the nodes
    they hang edges off — so a hook on the token path is a dict probe
    and an insert per edge.

    Each fact is held once: a node key that names no token visit or
    certificate (a stage, a processor's copy, delivery or vote) is one
    tuple shared by every trace, a node's attributes are the bare values
    its dict is built from on :meth:`assemble`, and a registered payload
    is let go when the delivery layer takes it.
    """

    def __init__(self):
        self._scheduler = UnboundClock
        self._traces = {}
        #: node key -> itself: the one copy of each visit-free key
        self._shared_keys = {}
        #: payload bytes -> (key, phase, parent node key), until queued
        self._payloads = {}
        #: (shard, seq) -> (trace, phase, origin sender, copy node id)
        self._seq_bindings = {}
        #: shard -> {token visit: [(trace, token node id), ...] covered by
        #: it}, until the first certificate that vouches the visit
        self._visit_bindings = {}

    @property
    def collector(self):
        """Self — lets ring-scoped views and the root share one accessor."""
        return self

    def bind(self, scheduler):
        """Attach the simulation's time source (done by the facade)."""
        self._scheduler = scheduler
        return self

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------

    def _ensure(self, key):
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = _TraceDag(
                key, trace_id_for(key), self._shared_keys
            )
        return trace

    def traces(self):
        """Every trace, in creation order."""
        return list(self._traces.values())

    def get(self, key):
        return self._traces.get(key)

    # ------------------------------------------------------------------
    # interceptor / stage hooks (key-addressed)
    # ------------------------------------------------------------------

    def begin(self, key, oneway=False):
        trace = self._ensure(key)
        trace.oneway = bool(oneway)
        return trace

    def mark_stage(self, key, stage):
        """Record a Figure-7 stage node; first observation wins.

        Called adjacent to every ``SpanTracker.mark`` so the trace's
        stage times are identical to the span's by construction.
        """
        self._ensure(key).node(("stage", stage), self._scheduler.now)

    def register_payload(self, payload, key, phase, parent):
        """Bind encoded multicast bytes to a trace before sending.

        Registrations are keyed by exact bytes and end at the one lookup
        the delivery layer makes, when it queues the bytes: the context
        then rides on the queue entry to every fragment, sequence number
        and re-sent copy.  Distinct producers register distinct
        encodings — the wrapped bytes embed the sender pid — that
        resolve to the same logical context.
        """
        self._ensure(key)
        self._payloads.setdefault(payload, (key, phase, parent))

    def context_for(self, payload):
        """Take the (key, phase, parent) context of registered bytes
        (None if unregistered or already taken)."""
        return self._payloads.pop(payload, None)

    # ------------------------------------------------------------------
    # multicast / delivery hooks (shard-positional)
    # ------------------------------------------------------------------

    def fragmented(self, ctx, sender, total, shard=0):
        """A payload split into ``total`` fragments; returns the derived
        context the fragment copies should propagate."""
        key, phase, parent = ctx
        trace = self._traces[key]
        node_key = ("fragment", phase, shard, sender)
        trace.attrs[trace.node(node_key, self._scheduler.now, parent)] = total
        return (key, phase, node_key)

    def copy_sent(self, ctx, sender, seq, shard=0):
        """One replica's copy got ring sequence number ``seq``."""
        key, phase, parent = ctx
        trace = self._traces[key]
        copy_id = trace.node(("copy", phase, shard, sender), self._scheduler.now, parent)
        trace.attrs[copy_id] = (trace.attrs[copy_id] or []) + [seq]
        self._seq_bindings[(shard, seq)] = (trace, phase, sender, copy_id)

    def token_covered(self, seq, token_info, shard=0):
        """A token origination vouched ``seq`` in its digest list.

        ``token_info`` is kept by reference, shared by every trace the
        token covers: it must not change afterwards.
        """
        binding = self._seq_bindings.get((shard, seq))
        if binding is None:
            return
        trace, phase, _origin, copy_id = binding
        visit = token_info["visit"]
        node_key = ("token", phase, shard, visit)
        token_id = trace.ids.get(node_key)
        if token_id is None:
            token_id = trace.node(node_key, self._scheduler.now)
            trace.attrs[token_id] = [token_info, seq]
            self._visit_bindings.setdefault(shard, {}).setdefault(visit, []).append(
                (trace, token_id)
            )
        else:
            trace.attrs[token_id].append(seq)
        trace.link(copy_id, token_id)

    def certified(self, cert_info, shard=0):
        """A :class:`TokenCertificate` vouched a span of token visits.

        Only the first certificate that vouches a visit is drawn: it
        consumes the visit's binding, so a later certificate re-vouching
        the visit adds nothing and the bindings do not outgrow the run.
        ``cert_info`` becomes the attributes of every certificate node
        created here as it is, not copied: it must not change afterwards.
        """
        covered = self._visit_bindings.get(shard)
        if not covered:
            return
        node_key = ("cert", cert_info["signer"], shard, cert_info["first_visit"])
        now = self._scheduler.now
        for visit in range(cert_info["first_visit"], cert_info["last_visit"] + 1):
            for trace, token_id in covered.pop(visit, ()):
                cert_id = trace.ids.get(node_key)
                if cert_id is None:
                    cert_id = trace.node(node_key, now)
                    trace.attrs[cert_id] = cert_info
                trace.link(token_id, cert_id)

    def retransmitted(self, seq, sender, shard=0):
        """``seq`` was re-sent to service a retransmission request.

        ``sender`` is the servicing token holder, which need not be the
        originator — any processor that saw the message can resend it.
        """
        binding = self._seq_bindings.get((shard, seq))
        if binding is None:
            return
        trace, phase, _origin, copy_id = binding
        node_id = trace.node(("retransmit", phase, shard, sender), self._scheduler.now)
        trace.link(copy_id, node_id)
        trace.attrs[node_id] = (trace.attrs[node_id] or 0) + 1

    def delivered(self, seq, sender, covering_visit, shard=0):
        """A processor committed ``seq`` in total order."""
        binding = self._seq_bindings.get((shard, seq))
        if binding is None:
            return
        # Hangs off the covering token where this trace saw it, else the copy.
        trace, phase, _origin, parent_id = binding
        if covering_visit is not None:
            parent_id = trace.ids.get(("token", phase, shard, covering_visit), parent_id)
        node_id = trace.node(("delivered", phase, shard, sender), self._scheduler.now)
        trace.link(parent_id, node_id)
        trace.attrs[node_id] = (trace.attrs[node_id] or 0) + 1

    def reassembled(self, seq, sender, shard=0):
        """The last fragment of a split payload completed reassembly."""
        binding = self._seq_bindings.get((shard, seq))
        if binding is None:
            return
        trace, phase = binding[:2]
        trace.node(("reassembled", phase, shard, sender), self._scheduler.now,
                   ("delivered", phase, shard, sender))

    # ------------------------------------------------------------------
    # voting / gateway hooks
    # ------------------------------------------------------------------

    def vote_copy(self, key, phase, sender, shard=0):
        """A voter tallied one replica's copy."""
        trace = self._ensure(key)
        known = len(trace.times)
        copy_id = trace.node(("vote_copy", phase, shard, sender), self._scheduler.now,
                             ("copy", phase, shard, sender))
        if copy_id == known:  # the first tally of this copy
            decided = ("vote_decided", phase, shard)
            decided = trace.shared.setdefault(decided, decided)
            trace.tallied.setdefault(decided, []).append(copy_id)

    def vote_decided(self, key, phase, shard=0):
        """A majority vote decided — the merge node of the copy fan-in.

        Sibling replicas decide the same vote later; each decision
        links the vote_copy nodes that arrived since the last one.
        """
        trace = self._ensure(key)
        decided = ("vote_decided", phase, shard)
        decided_id = trace.node(decided, self._scheduler.now)
        for copy_id in trace.tallied.get(decided, ()):
            trace.link(copy_id, decided_id)

    def gateway_forwarded(self, key, phase, via, from_ring, to_ring,
                          corrupt, shard=0):
        """A gateway replica re-originated the voted winner cross-ring."""
        trace = self._ensure(key)
        node_id = trace.node(("gw_forward", phase, via), self._scheduler.now,
                             ("vote_decided", phase, shard))
        if trace.attrs[node_id] is None:
            trace.attrs[node_id] = {
                "from_ring": from_ring, "to_ring": to_ring, "corrupt": bool(corrupt),
            }

    # ------------------------------------------------------------------
    # assembly / export
    # ------------------------------------------------------------------

    def assemble(self, timeline=(), cost_model=None, shard_of_group=None):
        """Assemble every trace into export-ready dicts.

        Timing edges between consecutive stage nodes carry the exact
        :func:`attribute_span` cause rows for the later stage, computed
        from the trace's own stage times — summing them per cause
        reproduces the critpath decomposition by construction.
        """
        evidence = _TokenEvidence(timeline)
        records = []
        for trace in self._traces.values():
            records.append(
                self._assemble_one(trace, evidence, cost_model, shard_of_group)
            )
        return records

    def _assemble_one(self, trace, evidence, cost_model, shard_of_group):
        span = trace.pseudo_span()
        shard = (
            None if shard_of_group is None
            else shard_of_group.get(trace.key[0])
        )
        rows = attribute_span(span, evidence, cost_model=cost_model, shard=shard)
        per_stage = {}
        cause_seconds = {}
        for stage, cause, seconds in rows:
            per_stage.setdefault(stage, []).append([cause, seconds])
            cause_seconds[cause] = cause_seconds.get(cause, 0.0) + seconds

        edges = [edge + ["causal"] for edge in trace.causal_edges()]
        previous = None
        for stage in SPAN_STAGES:
            node_id = trace.ids.get(("stage", stage))
            if node_id is None:
                continue
            if previous is not None:
                edges.append(
                    [previous, node_id, "timing", per_stage.get(stage, [])]
                )
            previous = node_id

        nodes = [
            {
                "id": node_id,
                "node": list(node_key),
                "time": trace.times[node_id],
                "attrs": dict(
                    sorted(_attributes(node_key[0], trace.attrs[node_id]).items())
                ),
            }
            for node_key, node_id in trace.ids.items()
        ]
        return {
            "trace_id": trace.trace_id,
            "key": list(trace.key),
            "oneway": trace.oneway,
            "closed": span.closed,
            "end_to_end": span.end_to_end(),
            "nodes": nodes,
            "edges": edges,
            "cause_seconds": {
                cause: cause_seconds[cause] for cause in sorted(cause_seconds)
            },
        }

    def summary(self, records):
        closed = [r for r in records if r["closed"]]
        return {
            "traces": len(records),
            "closed": len(closed),
            "exemplars": tail_exemplars(records),
        }


# ----------------------------------------------------------------------
# cross-validation against the critpath decomposition
# ----------------------------------------------------------------------

def verify_against_critpath(collector, spans, timeline,
                            cost_model=None, shard_of_group=None):
    """Exact agreement between every trace and the span tracker.

    For each invocation the trace's stage-node times must equal
    the real span's marks, and the :func:`attribute_span` rows computed
    from each must be identical — which makes every per-cause sum over
    the DAG's timing edges equal the critpath decomposition exactly.
    Returns a list of mismatch dicts (empty means verified).
    """
    evidence = _TokenEvidence(timeline)
    mismatches = []
    for trace in collector.traces():
        real = spans.get(trace.key)
        if real is None:
            mismatches.append({"key": list(trace.key), "reason": "no span"})
            continue
        pseudo = trace.pseudo_span()
        if pseudo.marks != real.marks:
            mismatches.append({
                "key": list(trace.key),
                "reason": "stage times diverge",
                "trace_marks": pseudo.marks,
                "span_marks": real.marks,
            })
            continue
        shard = (
            None if shard_of_group is None
            else shard_of_group.get(trace.key[0])
        )
        expected = attribute_span(real, evidence, cost_model=cost_model,
                                  shard=shard)
        actual = attribute_span(pseudo, evidence, cost_model=cost_model,
                                shard=shard)
        if actual != expected:
            mismatches.append({
                "key": list(trace.key),
                "reason": "cause rows diverge",
                "expected": expected,
                "actual": actual,
            })
    return mismatches


# ----------------------------------------------------------------------
# fork / merge structure queries
# ----------------------------------------------------------------------

def fork_summary(record):
    """The gateway fork/merge shape of one assembled trace record.

    Returns ``{"fork_width", "merged", "corrupt_branches"}`` where
    ``fork_width`` is the largest set of ``gw_forward`` request nodes
    sharing one parent (the source ring's voted decision) and
    ``merged`` reports a later ``vote_decided`` node with at least two
    tallied copies — the voted merge that masks a Byzantine branch.
    """
    incoming = {}
    for edge in record["edges"]:
        if edge[2] == "causal":
            incoming.setdefault(edge[1], []).append(edge[0])
    forwards = [
        node for node in record["nodes"]
        if node["node"][0] == "gw_forward" and node["node"][1] == PHASE_REQUEST
    ]
    by_parent = {}
    for node in forwards:
        for parent in incoming.get(node["id"], [None]):
            by_parent.setdefault(parent, []).append(node["id"])
    fork_width = max((len(ids) for ids in by_parent.values()), default=0)
    fork_time = min((node["time"] for node in forwards), default=None)
    merged = False
    if fork_time is not None:
        for node in record["nodes"]:
            if (
                node["node"][0] == "vote_decided"
                and node["node"][1] == PHASE_REQUEST
                and node["time"] > fork_time
                and len(incoming.get(node["id"], [])) >= 2
            ):
                merged = True
                break
    return {
        "fork_width": fork_width,
        "merged": merged,
        "corrupt_branches": sum(
            1 for node in forwards if node["attrs"].get("corrupt")
        ),
    }


# ----------------------------------------------------------------------
# exemplars
# ----------------------------------------------------------------------

def tail_exemplars(records, limit=5):
    """The slowest closed invocations, with their dominant cause."""
    closed = [r for r in records if r["closed"]]
    closed.sort(key=lambda r: (-r["end_to_end"], r["trace_id"]))
    out = []
    for record in closed[:limit]:
        causes = sorted(
            record["cause_seconds"].items(), key=lambda kv: (-kv[1], kv[0])
        )
        out.append({
            "key": record["key"],
            "trace_id": record["trace_id"],
            "end_to_end": record["end_to_end"],
            "top_cause": causes[0][0] if causes else None,
            "top_cause_seconds": causes[0][1] if causes else 0.0,
        })
    return out


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------

def export_traces(path, records, summary, run_info):
    """Write the deterministic trace JSONL artefact."""
    with open(path, "w") as handle:
        handle.write(json.dumps(
            {"record": "trace_run", **run_info}, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(
                {"record": "trace", **record}, sort_keys=True) + "\n")
        handle.write(json.dumps(
            {"record": "trace_summary", **summary}, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

_NODE_LABELS = {
    "stage": lambda nk: "stage %s" % nk[1],
    "copy": lambda nk: "copy %s ring%d from P%d" % (nk[1], nk[2], nk[3]),
    "fragment": lambda nk: "fragment %s ring%d at P%d" % (nk[1], nk[2], nk[3]),
    "token": lambda nk: "token %s ring%d visit %d" % (nk[1], nk[2], nk[3]),
    "cert": lambda nk: "cert by P%d ring%d span@%d" % (nk[1], nk[2], nk[3]),
    "retransmit": lambda nk: "retransmit %s ring%d by P%d"
                             % (nk[1], nk[2], nk[3]),
    "delivered": lambda nk: "delivered %s ring%d from P%d"
                            % (nk[1], nk[2], nk[3]),
    "reassembled": lambda nk: "reassembled %s ring%d from P%d"
                              % (nk[1], nk[2], nk[3]),
    "vote_copy": lambda nk: "vote_copy %s ring%d from P%d"
                            % (nk[1], nk[2], nk[3]),
    "vote_decided": lambda nk: "vote_decided %s ring%d" % (nk[1], nk[2]),
    "gw_forward": lambda nk: "gw_forward %s via P%d" % (nk[1], nk[2]),
}


def _node_label(node):
    node_key = tuple(node["node"])
    label = _NODE_LABELS.get(node_key[0])
    text = label(node_key) if label is not None else repr(node_key)
    attrs = node["attrs"]
    details = []
    for name in ("seqs", "fragments", "count", "commits", "corrupt",
                 "from_ring", "to_ring", "holder", "token_seq", "signer",
                 "last_visit"):
        if name in attrs:
            details.append("%s=%s" % (name, attrs[name]))
    if details:
        text += "  [%s]" % ", ".join(details)
    return text


def render_trace_tree(record):
    """ASCII tree of one invocation's causal DAG.

    Nodes with several parents render once and are referenced as
    ``(^N)`` afterwards; timing edges annotate the stage backbone with
    their cause rows.
    """
    nodes = {node["id"]: node for node in record["nodes"]}
    children = {}
    incoming = set()
    for edge in record["edges"]:
        children.setdefault(edge[0], []).append(edge)
        if edge[2] == "causal":
            incoming.add(edge[1])
        else:
            # Timing edges ride the stage backbone; only treat them as
            # tree edges when no causal parent exists.
            incoming.add(edge[1])
    roots = [nid for nid in sorted(nodes) if nid not in incoming]
    lines = [
        "trace %s  %s:%s  %s  e2e=%s" % (
            record["trace_id"],
            record["key"][0], record["key"][1],
            "closed" if record["closed"] else "open",
            fmt_seconds(record["end_to_end"]),
        )
    ]
    seen = set()

    def annotate(edge):
        if edge[2] != "timing":
            return ""
        causes = ", ".join(
            "%s %s" % (cause, fmt_seconds(seconds))
            for cause, seconds in edge[3]
        )
        return " <- [%s]" % causes if causes else ""

    def walk(nid, prefix, is_last, note):
        node = nodes[nid]
        connector = "`-" if is_last else "|-"
        if nid in seen:
            lines.append("%s%s (^%d)%s" % (prefix, connector, nid, note))
            return
        seen.add(nid)
        lines.append(
            "%s%s #%d %s @%.6f%s"
            % (prefix, connector, nid, _node_label(node), node["time"], note)
        )
        kids = sorted(
            children.get(nid, []),
            key=lambda edge: (nodes[edge[1]]["time"], edge[1]),
        )
        extension = "   " if is_last else "|  "
        for index, edge in enumerate(kids):
            walk(edge[1], prefix + extension,
                 index == len(kids) - 1, annotate(edge))

    for index, nid in enumerate(roots):
        walk(nid, "", index == len(roots) - 1, "")
    return "\n".join(lines)


def render_waterfall(record):
    """Stage waterfall of one invocation, with per-stage cause rows."""
    stages = [
        (node["node"][1], node["time"])
        for node in record["nodes"] if node["node"][0] == "stage"
    ]
    order = {stage: i for i, stage in enumerate(SPAN_STAGES)}
    stages.sort(key=lambda item: order[item[0]])
    timing = {}
    for edge in record["edges"]:
        if edge[2] == "timing":
            timing[edge[1]] = edge[3]
    stage_ids = {
        node["node"][1]: node["id"]
        for node in record["nodes"] if node["node"][0] == "stage"
    }
    lines = ["waterfall %s:%s" % (record["key"][0], record["key"][1])]
    start = stages[0][1] if stages else 0.0
    total = record["end_to_end"] or 1.0
    previous = None
    for stage, time in stages:
        delta = 0.0 if previous is None else time - previous
        offset = int((time - start) / total * 40) if total else 0
        width = max(1, int(delta / total * 40)) if delta else 1
        bar = " " * offset + "#" * width
        causes = ", ".join(
            "%s %s" % (cause, fmt_seconds(seconds))
            for cause, seconds in timing.get(stage_ids[stage], [])
        )
        lines.append(
            "  %-24s +%-10s |%-41s| %s"
            % (stage, fmt_seconds(delta), bar, causes)
        )
        previous = time
    return "\n".join(lines)


def render_digest(summary):
    """Tail-latency exemplar digest from a trace summary."""
    lines = [
        "== Trace digest %s" % ("=" * 46),
        "  %d trace(s) assembled, %d closed" % (summary["traces"], summary["closed"]),
    ]
    exemplars = summary["exemplars"]
    if exemplars:
        lines.append("  tail-latency exemplars:")
        for row in exemplars:
            lines.append(
                "    %-20s %s  e2e=%-10s top=%s (%s)"
                % (
                    "%s:%s" % (row["key"][0], row["key"][1]),
                    row["trace_id"],
                    fmt_seconds(row["end_to_end"]),
                    row["top_cause"],
                    fmt_seconds(row["top_cause_seconds"]),
                )
            )
    else:
        lines.append("  (no closed traces)")
    return "\n".join(lines)
