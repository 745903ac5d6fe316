"""Per-processor facade over the Secure Multicast Protocols.

A :class:`SecureGroupEndpoint` assembles the message delivery protocol,
the processor membership protocol, and the Byzantine fault detector for
one processor, registers the multicast port handler, and exposes the
narrow interface the paper's object group interface (and hence the
Replication Manager) is built on:

* ``multicast(dest_group, payload)`` — queue a payload for secure
  reliable totally ordered multicast addressed to an object group;
* ``on_deliver(fn)`` — totally ordered delivery upcalls
  ``fn(sender_id, seq, dest_group, payload)``;
* ``on_membership_change(fn)`` — Processor Membership Change upcalls
  ``fn(ring_id, members, excluded)``, delivered in the message
  sequence exactly once per installation;
* ``report_value_fault_suspect(proc_id)`` — the Replication Manager's
  Value_Fault_Suspect notification to the local Byzantine fault
  detector (paper section 6.2; never transmitted on the network).

Every processor on the LAN receives every multicast frame (the medium
is broadcast); filtering by destination group happens above, in the
Replication Manager, exactly as in Figure 2 of the paper.
"""

from repro.multicast.config import MulticastConfig
from repro.multicast.delivery import DeliveryProtocol
from repro.multicast.detector import ByzantineFaultDetector
from repro.multicast.membership import MembershipEngine
from repro.multicast.messages import (
    MULTICAST_PORT,
    JoinRequest,
    MembershipCommit,
    MembershipProposal,
    MessageFragment,
    MulticastCodecError,
    RegularMessage,
    decode_frame_shared,
)
from repro.multicast.token import Token, TokenCertificate


class SecureGroupEndpoint:
    """One processor's attachment to the Secure Multicast Protocols."""

    def __init__(
        self,
        processor,
        scheduler,
        network,
        keystore,
        crypto_costs,
        config=None,
        trace=None,
        obs=None,
    ):
        self.processor = processor
        self.scheduler = scheduler
        self.network = network
        self.config = config or MulticastConfig()
        self.obs = obs
        self.signing = keystore.signing_service(processor, crypto_costs, obs=obs)
        if self.config.security.signatures_enabled:
            # Draw the key pair now, not at the first signature inside
            # the run: a signing ring pays for its keys at set-up.
            keystore.provision(processor.proc_id)
        self.detector = ByzantineFaultDetector(
            processor.proc_id, scheduler, trace, obs=obs
        )
        self.delivery = DeliveryProtocol(
            processor,
            scheduler,
            network,
            self.signing,
            self.config,
            self.detector,
            self._dispatch_delivery,
            trace,
            obs=obs,
        )
        self.membership = MembershipEngine(
            processor,
            scheduler,
            network,
            self.signing,
            self.config,
            self.detector,
            self.delivery,
            self._dispatch_membership,
            trace,
            obs=obs,
        )
        self._deliver_listeners = []
        self._membership_listeners = []
        #: frame type -> protocol handler.  Fragments are ordinary
        #: ordered messages with reassembly metadata; the delivery
        #: protocol treats them alike until the final delivery upcall.
        self._handlers = {
            Token: self.delivery.on_token,
            RegularMessage: self.delivery.on_regular,
            MessageFragment: self.delivery.on_regular,
            TokenCertificate: self.delivery.on_certificate,
            MembershipProposal: self.membership.on_proposal,
            MembershipCommit: self.membership.on_commit,
            JoinRequest: self.membership.on_join_request,
        }
        processor.register_handler(MULTICAST_PORT, self._on_datagram)

    # ------------------------------------------------------------------
    # public interface (the object group interface builds on this)
    # ------------------------------------------------------------------

    def start(self, members, ring_id=1):
        """Bootstrap with an initial processor membership."""
        self.config.resolve_timeouts(self.signing.cost_model, len(members))
        self.membership.start(members, ring_id)

    def multicast(self, dest_group, payload):
        """Queue ``payload`` for totally ordered multicast to ``dest_group``."""
        self.delivery.queue_message(dest_group, payload)

    def on_deliver(self, fn):
        self._deliver_listeners.append(fn)

    def on_membership_change(self, fn):
        self._membership_listeners.append(fn)

    def report_value_fault_suspect(self, proc_id):
        """Value_Fault_Suspect from the local Replication Manager."""
        self.detector.value_fault_suspect(proc_id)

    def request_join(self):
        """(Re)join the processor membership after repair or exclusion."""
        self.config.resolve_timeouts(
            self.signing.cost_model, max(len(self.members), 4)
        )
        self.membership.request_join()

    @property
    def members(self):
        return self.membership.members

    @property
    def ring_id(self):
        return self.membership.ring_id

    @property
    def halted(self):
        from repro.multicast.membership import STATE_HALTED

        return self.membership.state == STATE_HALTED

    # ------------------------------------------------------------------
    # frame routing
    # ------------------------------------------------------------------

    def _on_datagram(self, datagram):
        # Protocol receive work consumes CPU time (starving application
        # work under load) but is handled at protocol priority rather
        # than queueing behind the application backlog.
        self.processor.charge(
            self.config.message_handling_cost, "multicast.receive", priority=True
        )
        payload = datagram.payload
        # A broadcast hands byte-identical payloads to every endpoint:
        # the shared decode parses each frame at most once per LAN, not
        # once per receiver (simulated receive CPU was charged above).
        try:
            frame = decode_frame_shared(payload)
        except MulticastCodecError:
            return  # corrupted beyond parsing: dropped, rtr repairs it
        handler = self._handlers.get(type(frame))
        if handler is not None:
            handler(frame, payload)

    # ------------------------------------------------------------------
    # upcalls
    # ------------------------------------------------------------------

    def _dispatch_delivery(self, sender_id, seq, dest_group, payload):
        for fn in list(self._deliver_listeners):
            fn(sender_id, seq, dest_group, payload)

    def _dispatch_membership(self, ring_id, members, excluded):
        # Every installation re-derives the timeouts for the population
        # that was actually installed — the churn path: a ring grown by
        # runtime joins must rescale its rotation budget upward before
        # the larger rotation falsely suspects correct-but-slow members.
        # resolve_timeouts is growth-only, so a *shrinking* ring keeps
        # the larger timeout (never tightened under a live protocol) and
        # explicitly configured timeouts are never touched.
        self.config.resolve_timeouts(self.signing.cost_model, len(members))
        for fn in list(self._membership_listeners):
            fn(ring_id, members, excluded)
