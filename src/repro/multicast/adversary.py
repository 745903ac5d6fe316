"""Byzantine behaviours for exercising the protocols.

The paper's Table 1 lists the malicious-processor faults the Secure
Multicast Protocols must cope with: masquerading as another processor,
sending mutant or improperly formed messages, and failing to send or
acknowledge.  Each behaviour here *compromises* one endpoint by
monkey-wiring its delivery protocol, exactly the way an intruder who
owns the host would: the compromised processor still holds only its own
private key, so every attack that signatures are meant to stop fails
verification at correct processors.

All behaviours derive from :class:`ByzantineBehaviour`; tests and the
Table 1/5 benches attach them with ``behaviour.compromise(endpoint)``.
"""

from repro.multicast.messages import MULTICAST_PORT, RegularMessage
from repro.multicast.token import Token


class ByzantineBehaviour:
    """Base class: remembers what it compromised for reporting.

    Compromising an endpoint assigns the behaviour a stable
    ``fault_id`` (a pure function of fault kind, culprit, and
    activation time) and, when the endpoint carries a forensics hub,
    registers the injection as scorecard ground truth — the join
    between injected faults and detector output is deterministic
    across runs.
    """

    name = "byzantine"

    def __init__(self):
        self.endpoint = None
        self.activations = 0
        self.fault_id = None

    def compromise(self, endpoint):
        self.endpoint = endpoint
        from repro.obs.forensics import fault_id_for

        culprit = endpoint.processor.proc_id
        at_time = getattr(self, "at_time", 0.0)
        self.fault_id = fault_id_for(self.name, culprit, at_time)
        obs = getattr(endpoint, "obs", None)
        if obs is not None and obs.forensics is not None:
            obs.forensics.record_ground_truth(
                self.fault_id, self.name, culprit, at_time
            )
        self._install(endpoint)
        return self

    def _install(self, endpoint):
        raise NotImplementedError


class CrashBehaviour(ByzantineBehaviour):
    """Fail-stop at a scheduled time (the benign end of Table 1)."""

    name = "crash"

    def __init__(self, at_time):
        super().__init__()
        self.at_time = at_time

    def _install(self, endpoint):
        endpoint.scheduler.at(self.at_time, endpoint.processor.crash, label="adversary.crash")


class SilentBehaviour(ByzantineBehaviour):
    """Fail to send: swallow the token instead of forwarding it.

    From ``at_time`` on, the processor accepts tokens but never
    originates its own — the ``fail_to_send`` case the progress
    timeout must catch.
    """

    name = "fail_to_send"

    def __init__(self, at_time=0.0):
        super().__init__()
        self.at_time = at_time

    def _install(self, endpoint):
        delivery = endpoint.delivery
        original = delivery._originate_token

        def muted(expected_ring_id):
            if endpoint.scheduler.now >= self.at_time:
                self.activations += 1
                return
            original(expected_ring_id)

        delivery._originate_token = muted


class ReceiveOmissionBehaviour(ByzantineBehaviour):
    """Fail to receive regular messages (but still handle tokens).

    The processor's coverage stalls, it pins the ring's aru, and the
    ``fail_to_ack`` detection must eventually suspect it.
    """

    name = "fail_to_ack"

    def __init__(self, at_time=0.0):
        super().__init__()
        self.at_time = at_time

    def _install(self, endpoint):
        delivery = endpoint.delivery
        original = delivery.on_regular

        def deaf(message, raw):
            if endpoint.scheduler.now >= self.at_time:
                self.activations += 1
                return
            original(message, raw)

        delivery.on_regular = deaf


class MutantTokenBehaviour(ByzantineBehaviour):
    """Equivocate: send different tokens for the same visit.

    The mutant differs in its ``seq`` field (claiming an extra message
    was sent), is validly signed with the compromised processor's own
    key, and is unicast to half the ring while the original goes to the
    other half — the hardest variant to detect, requiring the evidence
    exchange via the previous-token digest chain.
    """

    name = "mutant_token"

    def __init__(self, at_time=0.0, once=True):
        super().__init__()
        self.at_time = at_time
        self.once = once

    def _install(self, endpoint):
        network = endpoint.network
        my_id = endpoint.processor.proc_id
        original_broadcast = network.broadcast
        behaviour = self

        def equivocating_broadcast(src_id, dst_port, payload):
            if (
                src_id != my_id
                or dst_port != MULTICAST_PORT
                or endpoint.scheduler.now < behaviour.at_time
                or (behaviour.once and behaviour.activations > 0)
            ):
                original_broadcast(src_id, dst_port, payload)
                return
            try:
                from repro.multicast.messages import decode_frame

                frame = decode_frame(payload)
            except Exception:
                original_broadcast(src_id, dst_port, payload)
                return
            if not isinstance(frame, Token):
                original_broadcast(src_id, dst_port, payload)
                return
            behaviour.activations += 1
            mutant = Token(
                sender_id=frame.sender_id,
                ring_id=frame.ring_id,
                visit=frame.visit,
                seq=frame.seq + 1,
                aru=frame.aru,
                successor=frame.successor,
                aru_id=frame.aru_id,
                rtr_list=frame.rtr_list,
                rtg_list=frame.rtg_list,
                message_digest_list=frame.message_digest_list,
                prev_token_digest=frame.prev_token_digest,
            )
            if endpoint.config.security.signatures_enabled:
                mutant.signature = endpoint.signing.sign(mutant.signable_bytes())
            mutant_raw = mutant.encode()
            others = [pid for pid in network.processor_ids() if pid != my_id]
            half = len(others) // 2
            for pid in others[:half]:
                network.unicast(my_id, pid, dst_port, payload)
            for pid in others[half:]:
                network.unicast(my_id, pid, dst_port, mutant_raw)

        network.broadcast = equivocating_broadcast
        self._network = network
        self._original_broadcast = original_broadcast

    def restore(self):
        """Undo the network tap (so other endpoints broadcast normally)."""
        self._network.broadcast = self._original_broadcast


class MasqueradeBehaviour(ByzantineBehaviour):
    """Send a regular message claiming another processor originated it.

    With digests+signatures the forged message never matches a digest
    in a token the *victim* holder signed, so it is never delivered.
    """

    name = "masquerade"

    def __init__(self, victim_id, dest_group, payload, at_time=0.0):
        super().__init__()
        self.victim_id = victim_id
        self.dest_group = dest_group
        self.payload = payload
        self.at_time = at_time

    def _install(self, endpoint):
        def inject():
            if endpoint.processor.crashed:
                return
            self.activations += 1
            delivery = endpoint.delivery
            forged = RegularMessage(
                self.victim_id,
                delivery.ring_id,
                delivery._max_seq_seen + 1,
                self.dest_group,
                self.payload,
            )
            endpoint.network.broadcast(
                endpoint.processor.proc_id, MULTICAST_PORT, forged.encode()
            )

        endpoint.scheduler.at(self.at_time, inject, label="adversary.masquerade")


class MalformedTokenBehaviour(ByzantineBehaviour):
    """Send an improperly formed (but validly signed) token.

    The token names a bogus successor, violating the ring structure;
    the detector's token-form check must suspect the sender.
    """

    name = "malformed_token"

    def __init__(self, at_time=0.0):
        super().__init__()
        self.at_time = at_time

    def _install(self, endpoint):
        def inject():
            if endpoint.processor.crashed:
                return
            delivery = endpoint.delivery
            if not delivery.members:
                return
            self.activations += 1
            last = delivery._last_accepted
            bogus = Token(
                sender_id=endpoint.processor.proc_id,
                ring_id=delivery.ring_id,
                visit=(last.visit + 1) if last is not None else 1,
                seq=delivery._max_seq_seen + 10,
                aru=delivery._max_seq_seen + 20,  # aru > seq: malformed
                successor=endpoint.processor.proc_id,  # wrong successor
            )
            if endpoint.config.security.signatures_enabled:
                bogus.signature = endpoint.signing.sign(bogus.signable_bytes())
            endpoint.network.broadcast(
                endpoint.processor.proc_id, MULTICAST_PORT, bogus.encode()
            )

        endpoint.scheduler.at(self.at_time, inject, label="adversary.malformed")
