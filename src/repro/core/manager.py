"""The Replication Manager (paper Figure 2).

One Replication Manager runs on every processor.  Its outbound side
receives IIOP frames from the interceptor below the local ORB, assigns
operation numbers, normalises the GIOP request id to the operation
number (so that the copies issued by different replicas of the same
group are byte-identical and can be voted on by value), wraps the frame
into an :class:`~repro.core.identifiers.ImmuneMessage`, and multicasts
it to the target object group through the Secure Multicast Protocols.

Its inbound side receives *every* totally-ordered multicast message,
filters by destination group (passing on only those for groups with a
local replica, plus everything addressed to the base group), applies
duplicate detection, majority voting (cases 3 and 4), and value fault
detection, and injects the single winning frame into the local ORB for
dispatch to the replica.  Responses from a dispatched invocation come
back through a reply sink that wraps them with the matching response
identifier and multicasts them to the client group, where the
Replication Managers of the client replicas vote on them in turn
(output voting) and correlate them back to each replica's original
GIOP request id.
"""

from repro.core.duplicates import DuplicateFilter
from repro.core.groups import GroupError, GroupUpdate, ObjectGroupTable, UPDATE_ADD
from repro.core.identifiers import (
    BASE_GROUP,
    ImmuneCodecError,
    ImmuneMessage,
    KIND_GROUP_UPDATE,
    KIND_INVOCATION,
    KIND_RESPONSE,
    KIND_STATE_TRANSFER,
    KIND_VALUE_FAULT_VOTE,
)
from repro.core.passive import PassiveGroupDriver
from repro.core.value_fault import (
    ValueFaultCodecError,
    ValueFaultDetector,
    ValueFaultVote,
)
from repro.core.voting import LateFault, VoteDecision, Voter
from repro.orb.cdr import MarshalError
from repro.orb.giop import (
    GiopError,
    ReplyMessage,
    RequestMessage,
    decode_message_shared,
)
from repro.orb.schema import Schema

#: simulated CPU cost of intercepting/wrapping one IIOP frame
INTERCEPTION_COST = 15e-6

#: a state checkpoint (replica reallocation, live migration): the
#: group's operation counter at the cut, then the servant's own state
STATE_CHECKPOINT = Schema(("op_counter", "ulonglong"), ("state", "octets"))


class ReplicationError(Exception):
    """Raised on Replication Manager misconfiguration."""


class HostedGroup:
    """One manager's record of a group it hosts or has hosted: the
    group's voter (active replication) or passive driver, its duplicate
    filter, and whether a replica is active here now."""

    __slots__ = ("voter", "passive", "dup", "active")

    def __init__(self):
        self.voter = None
        self.passive = None
        self.dup = DuplicateFilter()
        self.active = False


class InFlight:
    """A two-way invocation intercepted here and not yet answered: the
    local replica's own GIOP request id, and the target group once the
    invocation is multicast (None while a hold parks it)."""

    __slots__ = ("request_id", "target")

    def __init__(self, request_id):
        self.request_id = request_id
        self.target = None


class ReplicationManager:
    """The per-processor Replication Manager."""

    def __init__(self, processor, scheduler, endpoint, config, obs=None):
        self.processor = processor
        self.scheduler = scheduler
        self.endpoint = endpoint
        self.config = config
        self._obs = obs
        self._spans = obs.spans if obs is not None else None
        # the causal TraceCollector, for the payload registrations
        self._tracer = obs.trace if obs is not None else None
        self.my_id = processor.proc_id
        self.groups = ObjectGroupTable()
        self.voting_enabled = config.case.voting
        self._orb = None
        #: group -> HostedGroup, from the first time a replica of the
        #: group is hosted here (kept after a drop, so a re-hosted
        #: replica resumes the same voter)
        self._hosted = {}
        #: groups known (system-wide) to be passively replicated, whose
        #: responses are sent by the primary alone and must therefore
        #: bypass response voting at the clients
        self._passive_sources = set()
        self._op_counters = {}
        #: two-way invocations intercepted here and not yet answered:
        #: (source_group, op_num) -> InFlight
        self._inflight = {}
        #: elastic live migration: target group -> the frames a hold
        #: parks for it, in interception order
        self._held = {}
        #: listeners for processor exclusions (a gateway forwarder
        #: rechecks its voters): fn(excluded_pid, affected_groups)
        self._exclusion_listeners = []
        #: replica reallocation: group -> (install(state, op_counter),
        #: the group's deliveries buffered since the join marker)
        self._joins = {}
        self._vfd = ValueFaultDetector(
            self.groups,
            endpoint.report_value_fault_suspect,
            self.my_id,
            obs=obs,
        )
        self.stats = {
            "invocations_sent": 0,
            "responses_sent": 0,
            "delivered_to_orb": 0,
            "duplicates_suppressed": 0,
            "value_fault_votes_sent": 0,
            "group_updates_refused": 0,
            "checkpoints_refused": 0,
        }
        if obs is not None:
            obs.registry.derive_counters(
                self.stats,
                {
                    "invocations_sent": "rm.invocations_sent",
                    "responses_sent": "rm.responses_sent",
                    "delivered_to_orb": "rm.delivered_to_orb",
                    "duplicates_suppressed": "rm.duplicates_suppressed",
                },
                proc=self.my_id,
            )
        endpoint.on_deliver(self._on_deliver)
        endpoint.on_membership_change(self._on_membership_change)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind_orb(self, orb):
        """Called by the interceptor transport when installed in an ORB."""
        self._orb = orb

    def register_group(self, group_name, proc_ids, passive=False):
        """Bootstrap knowledge of an object group's replica placement.

        Initial deployment is configuration-time knowledge shared by
        every Replication Manager; runtime changes flow through the
        base group and the processor membership protocol.  A
        ``passive`` group is warm-passively replicated system-wide.
        """
        self.groups.create(group_name, proc_ids)
        if passive:
            self._passive_sources.add(group_name)

    def host_replica(self, group_name, op_counter=None):
        """Mark that a replica of ``group_name`` is active on this ORB.

        A replica that starts from a checkpoint resumes the group's
        operation counter (``op_counter``) so its outbound numbering
        matches its peers'.
        """
        hosted = self._hosted.get(group_name)
        if hosted is None:
            hosted = self._hosted[group_name] = HostedGroup()
            if group_name in self._passive_sources:
                hosted.passive = PassiveGroupDriver(self, group_name, hosted.dup)
            else:
                hosted.voter = Voter(
                    group_name,
                    self.groups,
                    self.endpoint.signing.digest_fn,
                    obs=self._obs,
                    proc_id=self.my_id,
                )
        hosted.active = True
        if op_counter is not None:
            self._op_counters[group_name] = op_counter

    def drop_replica(self, group_name):
        hosted = self._hosted.get(group_name)
        if hosted is not None:
            hosted.active = False

    def hosts(self, group_name):
        hosted = self._hosted.get(group_name)
        return hosted is not None and hosted.active

    def on_exclusion(self, fn):
        self._exclusion_listeners.append(fn)

    def resync_groups(self, snapshot):
        """Administrator resync of the object group table after rejoin.

        A processor that was excluded missed every GroupUpdate since;
        its table is stale.  A production deployment would carry the
        table inside the state checkpoints; here the administrator (the
        facade) reinstalls a correct manager's snapshot before the
        replicas are reallocated.  The table is rewritten in place, so
        whatever holds it (voters, a gateway forwarder's voters) reads
        the new placements.
        """
        for group_name, members in sorted(snapshot.items()):
            self.groups.replace(group_name, members)
        # groups are never deleted, so the snapshot names every group
        assert self.groups.snapshot() == snapshot

    def reregister_group(self, group_name, proc_ids):
        """Atomically rewrite a group's replica placement (migration cutover)."""
        self.groups.replace(group_name, proc_ids)

    # ------------------------------------------------------------------
    # elastic live migration: holds and drain accounting
    # ------------------------------------------------------------------

    def hold_group(self, group_name):
        """Park outbound invocations addressed to ``group_name``.

        Interception still runs to completion (op numbers are identity,
        not ordering, so assigning them under a hold is safe) but the
        multicast is deferred until :meth:`release_group`, keeping the
        migrating group's delivery pipeline drainable.
        """
        self._held.setdefault(group_name, [])

    def release_group(self, group_name):
        """Release a hold and multicast the parked frames in order."""
        for key, target_group, encoded, inflight in self._held.pop(group_name, []):
            # Marked at release: the intercepted->migration_held delta
            # prices the hold and is attributed to the migration cause.
            self._mark(key, "migration_held")
            if inflight is not None:
                inflight.target = target_group
            self.endpoint.multicast(target_group, encoded)
            self._mark(key, "multicast_queued")

    def pending_to(self, group_name):
        """Two-way invocations multicast toward ``group_name`` from here
        and not yet answered (parked frames are not pending), so a
        migration coordinator can drain a group by watching this."""
        return sum(1 for r in self._inflight.values() if r.target == group_name)

    def held_for(self, group_name):
        """Frames parked for ``group_name`` by a live-migration hold."""
        return len(self._held.get(group_name, ()))

    def capture_state(self, group_name):
        """Checkpoint a locally hosted group (reallocation and migration
        state transfer): its operation counter and servant state, or
        None when no servant here exposes ``get_state``."""
        servant = self.servant(group_name)
        get_state = getattr(servant, "get_state", None)
        if get_state is None:
            return None
        return STATE_CHECKPOINT.pack((self._op_counters.get(group_name, 0), get_state()))

    def servant(self, group_name):
        """The servant active for ``group_name`` on this ORB, or None."""
        skeleton = self._orb.adapter.skeleton(group_name.encode("utf-8"))
        return None if skeleton is None else skeleton.servant

    def voter_for(self, group_name):
        hosted = self._hosted.get(group_name)
        return None if hosted is None else hosted.voter

    def dup_filter_for(self, group_name):
        hosted = self._hosted.get(group_name)
        return None if hosted is None else hosted.dup

    def _mark(self, key, stage):
        """Mark a Figure-7 stage on the span (which marks the causal
        trace at the same instant)."""
        if self._spans is not None:
            self._spans.mark(key, stage)

    # ------------------------------------------------------------------
    # outbound: intercepted IIOP
    # ------------------------------------------------------------------

    def outgoing_iiop(self, reference, frame, source_key):
        """An intercepted outbound GIOP frame from the local ORB."""
        if source_key is None:
            raise ReplicationError(
                "invocations through the Immune system must be attributed to "
                "a local client object (create stubs via ImmuneSystem.connect)"
            )
        source_group = bytes(source_key).decode("utf-8")
        try:
            # All replicas of the client intercept byte-identical stub
            # frames (deterministic request ids): parse once, share.
            message = decode_message_shared(frame)
        except GiopError:
            return
        if not isinstance(message, RequestMessage):
            return  # replies travel through reply sinks, never here
        self.processor.charge(INTERCEPTION_COST, "rm.intercept")
        op_num = self._op_counters.get(source_group, 0)
        self._op_counters[source_group] = op_num + 1
        inflight = None
        if message.response_expected:
            inflight = self._inflight[(source_group, op_num)] = InFlight(
                message.request_id
            )
        normalised = RequestMessage(
            op_num,
            message.object_key,
            message.operation,
            message.body,
            message.response_expected,
        ).encode()
        wrapped = ImmuneMessage(
            KIND_INVOCATION,
            source_group,
            op_num,
            self.my_id,
            reference.group_name,
            normalised,
        )
        self.stats["invocations_sent"] += 1
        if self._spans is not None:
            # Spans follow the *logical* invocation: all replicas of the
            # client group issue the same (source_group, op_num), and
            # first-mark-wins in the tracker keeps the earliest time.
            self._spans.begin(
                (source_group, op_num), oneway=not message.response_expected
            )
        self._mark((source_group, op_num), "intercepted")
        encoded = wrapped.encode()
        if self._tracer is not None:
            # Each client replica registers its own encoding (the bytes
            # embed its pid); the delivery layer resolves the copy back
            # to this context when it assigns a ring sequence number.
            self._tracer.register_payload(
                encoded, (source_group, op_num), "req",
                ("stage", "multicast_queued"),
            )
        held = self._held.get(reference.group_name)
        if held is not None:
            held.append(((source_group, op_num), reference.group_name, encoded, inflight))
            return
        if inflight is not None:
            inflight.target = reference.group_name
        self.endpoint.multicast(reference.group_name, encoded)
        self._mark((source_group, op_num), "multicast_queued")

    def _response_sink(self, client_group, op_num, server_group):
        def send_response(reply_frame):
            if self.processor.crashed:
                return
            self.processor.charge(INTERCEPTION_COST, "rm.intercept")
            self._mark((client_group, op_num), "executed")
            wrapped = ImmuneMessage(
                KIND_RESPONSE,
                server_group,
                op_num,
                self.my_id,
                client_group,
                reply_frame,
            )
            self.stats["responses_sent"] += 1
            encoded = wrapped.encode()
            if self._tracer is not None:
                self._tracer.register_payload(
                    encoded, (client_group, op_num), "rep",
                    ("stage", "executed"),
                )
            self.endpoint.multicast(client_group, encoded)

        return send_response

    # ------------------------------------------------------------------
    # inbound: totally ordered multicast deliveries
    # ------------------------------------------------------------------

    def _on_deliver(self, sender_id, seq, dest_group, payload):
        try:
            # Every Replication Manager on the ring receives the same
            # delivered payload; the shared decode parses it once.
            message = ImmuneMessage.decode_shared(payload)
        except ImmuneCodecError:
            return
        if message.replica_proc != sender_id:
            # The wrapped sender must be the authenticated multicast
            # sender; a mismatch is a masquerade attempt above the
            # multicast layer.
            return
        if message.target_group != dest_group:
            return
        if dest_group == BASE_GROUP:
            self._on_base_group(message)
            return
        hosted = self._hosted.get(dest_group)
        if hosted is None or not hosted.active:
            # filtered: no replica of the target group here (a joining
            # replica buffers the group's operations until its state)
            join = self._joins.get(dest_group)
            if join is not None and message.kind in (KIND_INVOCATION, KIND_RESPONSE):
                join[1].append((sender_id, seq, dest_group, payload))
            return
        if hosted.passive is not None:
            hosted.passive.on_message(message)
            return
        if message.kind not in (KIND_INVOCATION, KIND_RESPONSE):
            return
        if message.kind == KIND_INVOCATION:
            self._mark((message.source_group, message.op_num), "ordered")
        else:
            self._mark(
                (message.target_group, message.op_num), "reply_ordered"
            )
        if message.kind == KIND_RESPONSE and message.source_group in self._passive_sources:
            # A passive primary answers alone; there is nothing to vote
            # on — which is precisely why passive replication cannot
            # mask value faults (paper section 5).  With one sender by
            # design, its key is held for good.
            self._deliver_without_voting(message, hosted.dup, None)
            return
        if self.voting_enabled:
            self._vote_on_copy(message, hosted.voter)
        else:
            self._deliver_without_voting(message, hosted.dup, self.groups)

    def _op_key(self, message):
        return (message.kind, message.source_group, message.target_group, message.op_num)

    def _vote_on_copy(self, message, voter):
        outcome = voter.add_copy(
            message.source_group, self._op_key(message), message.replica_proc, message.body
        )
        if outcome is None:
            return
        if isinstance(outcome, VoteDecision):
            if message.kind == KIND_INVOCATION:
                self._mark((message.source_group, message.op_num), "voted")
            if outcome.faulty_senders:
                self.publish_value_fault(message, outcome.vote_set)
            self._deliver_operation(message, outcome.body)
        elif isinstance(outcome, LateFault):
            self.publish_value_fault(message, outcome.vote_set)

    def _deliver_without_voting(self, message, dup, groups):
        if not dup.mark_delivered(
            self._op_key(message), message.source_group, message.replica_proc, groups
        ):
            self.stats["duplicates_suppressed"] += 1
            return
        if message.kind == KIND_INVOCATION:
            self._mark((message.source_group, message.op_num), "voted")
        self._deliver_operation(message, message.body)

    def _deliver_operation(self, message, body):
        if self._orb is None:
            raise ReplicationError("Replication Manager has no bound ORB")
        self.processor.charge(INTERCEPTION_COST, "rm.deliver")
        self.stats["delivered_to_orb"] += 1
        if message.kind == KIND_INVOCATION:
            self._mark((message.source_group, message.op_num), "dispatched")
            reply_sink = self._response_sink(
                message.source_group, message.op_num, message.target_group
            )
            self._orb.deliver_frame(body, reply_sink)
            return
        # A voted response: correlate back to this replica's original
        # GIOP request id before handing it to the ORB.
        inflight = self._inflight.pop((message.target_group, message.op_num), None)
        if inflight is None:
            return  # we never issued this invocation (or already replied)
        try:
            reply = decode_message_shared(body)
        except GiopError:
            return
        if not isinstance(reply, ReplyMessage):
            return
        restored = ReplyMessage(inflight.request_id, reply.reply_status, reply.body).encode()
        self._mark((message.target_group, message.op_num), "reply_voted")
        self._orb.deliver_frame(restored, None)

    # ------------------------------------------------------------------
    # value faults
    # ------------------------------------------------------------------

    def publish_value_fault(self, message, vote_set):
        """Multicast a ``Value_Fault_Vote`` for ``message``'s operation on
        the base group.  Public because a gateway's voter reports through
        its source-side manager (:mod:`repro.cluster.gateway`)."""
        vote = ValueFaultVote(
            reporter=self.my_id,
            source_group=message.source_group,
            op_num=message.op_num,
            target_group=message.target_group,
            entries=vote_set,
        )
        wrapped = ImmuneMessage(
            KIND_VALUE_FAULT_VOTE,
            message.source_group,
            message.op_num,
            self.my_id,
            BASE_GROUP,
            vote.encode(),
        )
        self.stats["value_fault_votes_sent"] += 1
        self.endpoint.multicast(BASE_GROUP, wrapped.encode())

    # ------------------------------------------------------------------
    # base group traffic
    # ------------------------------------------------------------------

    def _on_base_group(self, message):
        if message.kind == KIND_VALUE_FAULT_VOTE:
            try:
                vote = ValueFaultVote.decode(message.body)
            except ValueFaultCodecError:
                return
            self._vfd.on_vote(vote)
        elif message.kind == KIND_GROUP_UPDATE:
            try:
                update = GroupUpdate.decode(message.body)
            except GroupError:
                return
            if update.proc_id != message.replica_proc:
                # A manager announces only its own replicas (a join, a
                # replica crash): anything else is one processor
                # rewriting another's placement.
                self.stats["group_updates_refused"] += 1
                return
            self.groups.apply(update)
        elif message.kind == KIND_STATE_TRANSFER:
            self._on_state_transfer(message)

    # ------------------------------------------------------------------
    # processor membership changes
    # ------------------------------------------------------------------

    def _on_membership_change(self, ring_id, members, excluded):
        for pid in excluded:
            affected = self.groups.remove_processor(pid)
            for fn in list(self._exclusion_listeners):
                fn(pid, affected)
        # Shrunken degrees may complete operations and unblock pending
        # votes.
        for hosted in self._hosted.values():
            hosted.dup.recheck(self.groups)
        for group_name in sorted(self._hosted):
            voter = self._hosted[group_name].voter
            if voter is None:
                continue
            for decision in voter.reconsider():
                # The voter keys entries as (source group, manager op
                # key); the inner key carries the frame coordinates.
                _, inner_key = decision.op_key
                kind, source_group, target_group, op_num = inner_key
                replica = ImmuneMessage(
                    kind, source_group, op_num, self.my_id, target_group, decision.body
                )
                if decision.faulty_senders:
                    self.publish_value_fault(replica, decision.vote_set)
                self._deliver_operation(replica, decision.body)

    # ------------------------------------------------------------------
    # replica reallocation via state transfer (section 3.1: "replicas
    # that are lost due to a Byzantine processor must be reallocated to
    # correct processors")
    # ------------------------------------------------------------------

    def request_join(self, group_name, install):
        """Start joining ``group_name`` on this processor.

        ``install(state_bytes, op_counter)`` must create the local
        servant from the checkpointed state and host it (the facade's
        one install routine); the manager handles ordering: it buffers
        the group's operations from the join marker onward and replays
        them once the state checkpoint arrives.
        """
        self._joins[group_name] = (install, [])
        marker = ImmuneMessage(
            KIND_STATE_TRANSFER, group_name, 0, self.my_id, BASE_GROUP, b"\x00"
        )
        self.endpoint.multicast(BASE_GROUP, marker.encode())

    def _on_state_transfer(self, message):
        group_name = message.source_group
        phase = message.body[:1]
        if phase == b"\x00":
            self._on_join_marker(group_name, joiner=message.replica_proc)
        elif phase == b"\x01":
            self._on_state_checkpoint(group_name, message.body[1:], joiner=message.op_num)

    def _on_join_marker(self, group_name, joiner):
        members = self.groups.members(group_name)
        if not members or not self.hosts(group_name):
            return
        if self.my_id != members[0]:
            return  # the lowest surviving member is the donor
        state = self.capture_state(group_name)
        if state is None:
            return
        checkpoint = ImmuneMessage(
            KIND_STATE_TRANSFER,
            group_name,
            joiner,
            self.my_id,
            BASE_GROUP,
            b"\x01" + state,
        )
        self.endpoint.multicast(BASE_GROUP, checkpoint.encode())

    def _on_state_checkpoint(self, group_name, state, joiner):
        if joiner != self.my_id:
            # Another processor is joining; update our table when its
            # GroupUpdate arrives (sent by the joiner below).
            return
        try:
            op_counter, servant_state = STATE_CHECKPOINT.unpack(state)
        except MarshalError:
            # Any ring member can multicast a checkpoint: a malformed
            # one is dropped, and the join waits for its donor's.
            self.stats["checkpoints_refused"] += 1
            return
        join = self._joins.pop(group_name, None)
        if join is None:
            return
        install, buffered = join
        install(servant_state, op_counter)
        self.groups.add_replica(group_name, self.my_id)
        # Replay operations delivered between the marker and now.
        for args in buffered:
            self._on_deliver(*args)
        # Announce the join so every manager raises the group's degree.
        update = GroupUpdate(UPDATE_ADD, group_name, self.my_id)
        announce = ImmuneMessage(
            KIND_GROUP_UPDATE, group_name, 0, self.my_id, BASE_GROUP, update.encode()
        )
        self.endpoint.multicast(BASE_GROUP, announce.encode())
