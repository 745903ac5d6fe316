"""The voted link: re-origination between total orders, at any level.

An invocation whose client group and server group live on different
rings cannot ride one token — each ring is its own total order.  The
link closes the gap with the same machinery the paper uses inside a
ring, so the extra hop weakens none of the survivability claims:

* every pair of children (rings of a cluster, sites of a federation) is
  joined by several *gateway replicas*, each holding one processor
  identity on each side's backbone ring and run as one logical entity;
* each gateway replica independently observes the source ring's total
  order, **votes** the client replicas' invocation copies exactly as a
  server-side Replication Manager would (majority of the source group's
  degree, values compared by digest), and re-originates the single
  winning message on the destination ring under its own processor
  identity there;
* the destination ring's Replication Managers then treat the gateway
  replicas *as* the remote group's replicas: the foreign group is
  registered with the gateway pids as its members, so the existing
  voters take a majority across the gateway copies — one Byzantine
  gateway replica that corrupts or replays traffic is outvoted by the
  other two, and the value-fault machinery attributes it;
* duplicate suppression reuses :class:`~repro.core.duplicates.
  DuplicateFilter` semantics keyed by the operation identifier, so each
  gateway replica forwards each operation at most once and end-to-end
  delivery stays exactly-once across any number of hops.  The filter
  holds a key as long as the voter holds the operation's record: until
  every client replica has been heard for it (an exclusion can complete
  that), and for the latest completed operation of each source group.

Replies make the mirror-image hop: the server ring's gateway side votes
the server replicas' response copies and re-originates the winner on
the client's ring, where client-side output voting proceeds unchanged.

What differs between levels is a :class:`Hop`: the names the level
reports under, its forwarding cost, how a Byzantine replica corrupts,
and how the winner travels.  The chassis hop defined here (two NICs on
one host) lands it in the same call; :class:`repro.wan.gateway.WanHop`
flies it across a :class:`~repro.sim.network.WanTopology` link first.
"""

from collections import namedtuple

from repro.core.duplicates import DuplicateFilter
from repro.core.identifiers import (
    BASE_GROUP,
    ImmuneCodecError,
    ImmuneMessage,
    KIND_INVOCATION,
    KIND_RESPONSE,
)
from repro.core.voting import VoteDecision, Voter
from repro.crypto.md4 import md4_digest

#: One side of a link: the child's key in its federation's directory,
#: its backbone :class:`~repro.core.immune.ImmuneSystem`, the gateway
#: pids there, and the ring index its trace nodes report.
LinkEnd = namedtuple("LinkEnd", "key immune pids trace_ring")


class Hop:
    """The chassis hop between two rings of one cluster.

    ``family`` prefixes the metric, charge, forensic-event and span-stage
    names; ``scope`` names what a link joins (the ``to_<scope>`` label,
    the ``from_<scope>`` / ``to_<scope>`` forensic fields, the
    ``<scope>s`` key of link stats).
    """

    family = "gateway"
    scope = "ring"
    #: simulated CPU cost of voting + re-originating one forwarded message
    cost = 25e-6
    #: whether :meth:`send` can refuse a frame (adds the ``dropped`` stat)
    lossy = False

    @staticmethod
    def corrupted(body, index):
        """A Byzantine gateway's corruption: flip the final payload byte."""
        if not body:
            return b"\xff"
        return body[:-1] + bytes([body[-1] ^ 0xFF])

    def send(self, src, dst, nbytes, land, *args):
        """Carry one frame from child ``src`` to child ``dst``.

        Returns None once ``land(*args)`` is called or scheduled, or the
        forensic fields explaining a send-time drop.  The chassis lands
        synchronously — no scheduler event, so the hop is free in
        simulated time.
        """
        land(*args)
        return None


class _Forwarder:
    """One gateway replica's forwarding path from one ring to its peer.

    Listens to every totally-ordered delivery on the source ring (via
    the source-side endpoint of its gateway replica), votes copies of
    messages addressed to groups homed on the destination child, and
    re-originates each winner once on the destination ring.
    """

    def __init__(self, replica, src, dst, src_pid, dst_pid):
        self.replica = replica
        self.src = src
        self.dst = dst
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        #: Byzantine toggle: this replica corrupts what it forwards in
        #: this direction
        self.corrupt = False
        link = replica.link
        self._hop = hop = link.hop
        self._directory = link.directory
        self._dst_endpoint = dst.immune.endpoints[dst_pid]
        self._src_proc = src.immune.processors[src_pid]
        self._dst_proc = dst.immune.processors[dst_pid]
        #: the source-side Replication Manager: its group table gives
        #: the voting thresholds for the source group, and value faults
        #: the vote exposes are published through it
        self._manager = src.immune.managers[src_pid]
        self._digest_fn = md4_digest
        self._voters = {}
        self.dup_filter = DuplicateFilter()
        self.stats = {"forwarded": 0, "suppressed": 0, "ignored": 0}
        if hop.lossy:
            self.stats["dropped"] = 0
        self._stages = (hop.family + "_forwarded", "reply_%s_forwarded" % hop.family)
        self._ends = {"from_" + hop.scope: src.key, "to_" + hop.scope: dst.key}
        # The source ring's scoped view: the vote this forwarder merges
        # happens on the source ring's total order.
        self._obs = obs = src.immune.obs
        self._spans = self._tracer = None
        self._forensics = obs.recorder(src_pid) if obs is not None else None
        if obs is not None:
            self._spans = obs.spans
            self._tracer = obs.trace
            families = {
                "forwarded": hop.family + ".forwarded",
                "suppressed": hop.family + ".duplicates_suppressed",
            }
            if hop.lossy:
                families["dropped"] = hop.family + ".dropped"
            obs.registry.derive_counters(
                self.stats, families, proc=src_pid, **{"to_" + hop.scope: dst.key}
            )
        src.immune.endpoints[src_pid].on_deliver(self._on_deliver)
        self._manager.on_exclusion(self._on_exclusion)

    # ------------------------------------------------------------------
    # the forwarding path
    # ------------------------------------------------------------------

    def _on_deliver(self, sender_id, seq, dest_group, payload):
        if dest_group == BASE_GROUP:
            return  # membership/fault traffic never crosses a link
        if self._directory.home(dest_group) != self.dst.key:
            return  # not ours: local traffic, or another link's peer
        try:
            message = ImmuneMessage.decode_shared(payload)
        except ImmuneCodecError:
            return
        if message.replica_proc != sender_id or message.target_group != dest_group:
            return  # masquerade above the multicast layer
        if message.kind not in (KIND_INVOCATION, KIND_RESPONSE):
            self.stats["ignored"] += 1
            return
        if self._src_proc.crashed or self._dst_proc.crashed or self._dst_endpoint.halted:
            return  # a dead gateway forwards nothing; its peers carry on
        voter = self._voters.get(dest_group)
        if voter is None:
            voter = Voter(
                dest_group,
                self._manager.groups,
                self._digest_fn,
                obs=self._obs,
                proc_id=self.src_pid,
            )
            # The voter keys a record (source group, op_key).
            voter.on_retire(lambda key: self.dup_filter.forget(key[1]))
            self._voters[dest_group] = voter
        op_key = (message.kind, message.source_group, message.target_group, message.op_num)
        outcome = voter.add_copy(
            message.source_group, op_key, message.replica_proc, message.body
        )
        if outcome is None:
            return  # copies still short of a majority, or a late duplicate
        decided = isinstance(outcome, VoteDecision)  # else a LateFault
        if self._manager.voting_enabled and (not decided or outcome.faulty_senders):
            # Masking is not enough (paper section 6.2): a divergent
            # copy voted down here never reaches a destination voter, so
            # this is the only place its sender can be reported.  The
            # vote goes to the *source* ring's base group, where the
            # faulty replica's processor is a member to be excluded.
            self._manager.publish_value_fault(message, outcome.vote_set)
        if not decided:
            return  # a late divergent copy: reported, never forwarded
        if not self.dup_filter.mark_delivered(op_key):
            self.stats["suppressed"] += 1
            return
        self._forward(message, outcome.body)

    def _on_exclusion(self, pid, affected):
        """An exclusion can complete records; drop them and their keys."""
        for voter in self._voters.values():
            voter.recheck()

    def _forward(self, message, body):
        hop = self._hop
        self._src_proc.charge(hop.cost, hop.family + ".forward")
        corrupt = self.corrupt
        if corrupt:
            # The Byzantine gateway drill: this replica forwards a
            # corrupted copy, which the destination ring outvotes.
            body = hop.corrupted(body, self.replica.index)
        encoded = ImmuneMessage(
            message.kind,
            message.source_group,
            message.op_num,
            self.dst_pid,
            message.target_group,
            body,
        ).encode()
        dropped = hop.send(
            self.src.key, self.dst.key, len(encoded),
            self._land, message, encoded, corrupt,
        )
        if dropped is None:
            return
        self.stats["dropped"] += 1
        if self._forensics is not None:
            self._forensics.record(
                hop.family + "_drop",
                source=message.source_group,
                target=message.target_group,
                op_num=message.op_num,
                **self._ends,
                **dropped,
            )

    def _land(self, message, encoded, corrupt):
        """The winner arrives on the destination ring and is re-originated."""
        if self._dst_proc.crashed or self._dst_endpoint.halted:
            return  # the destination host died while the copy was in flight
        self.stats["forwarded"] += 1
        if message.kind == KIND_INVOCATION:
            trace_key, phase = (message.source_group, message.op_num), "req"
            stage = self._stages[0]
        else:
            trace_key, phase = (message.target_group, message.op_num), "rep"
            stage = self._stages[1]
        # Marked at *landing*: on a hop with a flight the stage delta
        # contains it, and the critical path prices it as the hop's cause.
        if self._spans is not None:
            self._spans.mark(trace_key, stage)
        if self._tracer is not None:
            # The fork: each gateway replica hangs its own gw_forward
            # node off the source ring's vote_decided node, and its
            # re-originated bytes register so the destination ring's
            # copy/vote nodes merge the branches back together.
            self._tracer.gateway_forwarded(
                trace_key, phase, self.dst_pid,
                self.src.trace_ring, self.dst.trace_ring, corrupt,
            )
            self._tracer.register_payload(
                encoded, trace_key, phase, ("gw_forward", phase, self.dst_pid)
            )
        if self._forensics is not None:
            self._forensics.record(
                self._hop.family + "_forward",
                kind="invocation" if message.kind == KIND_INVOCATION else "response",
                source=message.source_group,
                target=message.target_group,
                op_num=message.op_num,
                **self._ends,
                via=(self.src_pid, self.dst_pid),
                corrupt=corrupt,
            )
        self._dst_endpoint.multicast(message.target_group, encoded)


class GatewayReplica:
    """One logical gateway entity of a link: a pid on each side, with a
    forwarder in each direction."""

    def __init__(self, link, index, pid_a, pid_b):
        self.link = link
        self.index = index
        self.pid_a = pid_a
        self.pid_b = pid_b
        self.forward_ab = _Forwarder(self, link.a, link.b, pid_a, pid_b)
        self.forward_ba = _Forwarder(self, link.b, link.a, pid_b, pid_a)

    @property
    def corrupt(self):
        """Whether this replica corrupts everything it forwards, both
        directions — the fault the destination rings' majority voting
        must mask."""
        return self.forward_ab.corrupt and self.forward_ba.corrupt

    def forwarder_from(self, key):
        """The forwarder carrying traffic *out of* child ``key``; its
        ``dst_pid`` is the one the destination ring's divergence
        detector can convict."""
        if key == self.link.a.key:
            return self.forward_ab
        if key == self.link.b.key:
            return self.forward_ba
        raise ValueError(
            "%s %r is not an end of %r" % (self.link.hop.scope, key, self.link)
        )

    def stats(self):
        return {
            "a_to_b": dict(self.forward_ab.stats),
            "b_to_a": dict(self.forward_ba.stats),
        }

    def __repr__(self):
        return "GatewayReplica(%r, P%d/P%d%s)" % (
            self.link,
            self.pid_a,
            self.pid_b,
            ", CORRUPT" if self.corrupt else "",
        )


class VotedLink:
    """All gateway replicas joining one pair of children.

    ``directory`` answers ``home(group)`` with the key of the child a
    group lives under; forwarders consult it at delivery time, so a
    rehome re-routes traffic at once.
    """

    def __init__(self, hop, directory, a, b):
        self.hop = hop
        self.directory = directory
        self.a = a
        self.b = b
        self.replicas = [
            GatewayReplica(self, i, pid_a, pid_b)
            for i, (pid_a, pid_b) in enumerate(zip(a.pids, b.pids))
        ]

    def side_pids(self, key):
        """This link's gateway pids at one of its two ends — the pids
        foreign groups are registered under there."""
        return tuple(r.forwarder_from(key).src_pid for r in self.replicas)

    def stats(self):
        return {
            self.hop.scope + "s": [self.a.key, self.b.key],
            "replicas": [r.stats() for r in self.replicas],
        }

    def __repr__(self):
        return "VotedLink(%s %s<->%s, %d replicas)" % (
            self.hop.scope,
            self.a.key,
            self.b.key,
            len(self.replicas),
        )
