"""Byzantine behaviours for exercising the protocols.

The paper's Table 1 lists the malicious-processor faults the Secure
Multicast Protocols must cope with: masquerading as another processor,
sending mutant or improperly formed messages, and failing to send or
acknowledge.  An intruder who owns a host controls what crosses its
network interface, so each behaviour is a rule at the compromised
processor's interception stage (:class:`EdgeStage`, its
``Processor.stage``) over the decoded multicast frames it sends and
receives: drop a frame, fork it to different receivers, or
:func:`rewrite` named ``SCHEMA`` fields, re-signed with the processor's
own key.  No rule reads protocol state, and every attack signatures are
meant to stop fails verification at correct processors.

Tests and the Table 1/5 benches attach a behaviour with
``behaviour.compromise(endpoint)`` and take it off with ``restore()``.
Faults above the multicast layer are injected where they act: gateway
corruption (``corrupt_gateway``, :mod:`repro.cluster.gateway`) and the
replica taps of :mod:`repro.core.replica` (``ClientInvocationCorrupter``,
``SendOmissionTap``).  Rewriting their bytes at the edge would break the
digest the token carries for the message: link corruption, not the
value fault the voters must mask.
"""

from repro.multicast.messages import (
    MULTICAST_PORT,
    MessageFragment,
    MulticastCodecError,
    RegularMessage,
    decode_frame_shared,
)
from repro.multicast.token import Token
from repro.sim.network import Datagram


def rewrite(frame, **fields):
    """A copy of ``frame`` with the named ``SCHEMA`` fields replaced
    (unsigned: a rule re-signs it with its own key)."""
    values = {name: getattr(frame, name) for name in frame.SCHEMA.names}
    values.update(fields)
    return type(frame)(**values)


def _decoded(port, payload):
    if port != MULTICAST_PORT:
        return None
    try:
        return decode_frame_shared(payload)
    except MulticastCodecError:
        return None


class EdgeStage:
    """A compromised processor's network edge.

    Each multicast frame it sends passes every rule's ``outbound(frame,
    dst) -> [(frame, dst)]`` (``dst`` None broadcasts), and each one it
    receives every rule's ``inbound(frame) -> frame | None``, in the
    order the rules were installed.  Other ports and unparseable bytes
    pass untouched, and so do the bytes of a frame passed on as it came.
    """

    def __init__(self):
        self.rules = []

    def outbound(self, port, payload, dst):
        frame = _decoded(port, payload)
        if frame is None:
            return [(payload, dst)]
        sends = [(frame, dst)]
        for rule in self.rules:
            sends = [out for sent, to in sends for out in rule.outbound(sent, to)]
        raws = {id(frame): payload}
        for sent, _to in sends:
            if id(sent) not in raws:  # a forked frame is encoded once
                raws[id(sent)] = sent.encode()
        return [(raws[id(sent)], to) for sent, to in sends]

    def inbound(self, datagram):
        frame = original = _decoded(datagram.dst_port, datagram.payload)
        if frame is None:
            return datagram
        for rule in self.rules:
            frame = rule.inbound(frame)
            if frame is None:
                return None
        if frame is original:
            return datagram
        return Datagram(datagram.src, datagram.dst, datagram.dst_port,
                        frame.encode(), datagram.sent_at)


class ByzantineBehaviour:
    """Base class: one rule, passing every frame, from ``at_time`` on.

    Compromising an endpoint assigns the behaviour a stable
    ``fault_id`` (a pure function of fault kind, culprit, and
    activation time) and, when the endpoint carries a forensics hub,
    registers the injection as scorecard ground truth — the join
    between injected faults and detector output is deterministic
    across runs.  ``activations`` counts the frames a rule acted on.
    """

    name = "byzantine"

    def __init__(self, at_time=0.0):
        self.at_time = at_time
        self.endpoint = None
        self.activations = 0
        self.fault_id = None

    def compromise(self, endpoint):
        self.endpoint = endpoint
        from repro.obs.forensics import fault_id_for

        culprit = endpoint.processor.proc_id
        self.fault_id = fault_id_for(self.name, culprit, self.at_time)
        obs = getattr(endpoint, "obs", None)
        if obs is not None and obs.forensics is not None:
            obs.forensics.record_ground_truth(
                self.fault_id, self.name, culprit, self.at_time
            )
        self._install(endpoint)
        return self

    def _install(self, endpoint):
        processor = endpoint.processor
        if processor.stage is None:
            processor.stage = EdgeStage()
        processor.stage.rules.append(self)

    def restore(self):
        """Take the rule off its processor's edge (and the stage with
        its last rule)."""
        processor = self.endpoint.processor
        processor.stage.rules.remove(self)
        if not processor.stage.rules:
            processor.stage = None

    def _due(self):
        return self.endpoint.scheduler.now >= self.at_time

    def outbound(self, frame, dst):
        return [(frame, dst)]

    def inbound(self, frame):
        return frame


class CrashBehaviour(ByzantineBehaviour):
    """Fail-stop at a scheduled time (the benign end of Table 1): no
    rule, a scheduler event."""

    name = "crash"

    def __init__(self, at_time):
        super().__init__(at_time)

    def _install(self, endpoint):
        endpoint.scheduler.at(self.at_time, endpoint.processor.crash, label="adversary.crash")


class SilentBehaviour(ByzantineBehaviour):
    """Fail to send: every token the processor sends from ``at_time`` on
    is swallowed — the ``fail_to_send`` case the progress timeout must
    catch."""

    name = "fail_to_send"

    def outbound(self, frame, dst):
        if type(frame) is Token and self._due():
            self.activations += 1
            return []
        return [(frame, dst)]


class ReceiveOmissionBehaviour(ByzantineBehaviour):
    """Fail to receive regular messages (but still handle tokens).

    The processor's coverage stalls, it pins the ring's aru, and the
    ``fail_to_ack`` detection must eventually suspect it.
    """

    name = "fail_to_ack"

    def inbound(self, frame):
        kind = type(frame)
        if (kind is RegularMessage or kind is MessageFragment) and self._due():
            self.activations += 1
            return None
        return frame


class TokenRewriteBehaviour(ByzantineBehaviour):
    """Rewrite fields of the first token sent from ``at_time`` on.

    ``fields`` is data: ``(name, source, offset)`` triples setting the
    token's ``name`` to its ``source`` field plus ``offset``.  On a ring
    that signs, the token is signed with the sender's own key, so a
    rewrite that breaks its form convicts the sender of
    ``malformed_token``.
    """

    name = "malformed_token"
    once = True

    def __init__(self, fields, at_time=0.0):
        super().__init__(at_time)
        self.fields = fields

    def _takes(self, frame):
        return type(frame) is Token and not (self.once and self.activations) and self._due()

    def _variant(self, token):
        self.activations += 1
        variant = rewrite(token, **{name: getattr(token, source) + offset
                                    for name, source, offset in self.fields})
        endpoint = self.endpoint
        if endpoint.config.security.signatures_enabled:
            variant.signature = endpoint.signing.sign(variant.signable_bytes())
        return variant

    def outbound(self, frame, dst):
        return [(self._variant(frame) if self._takes(frame) else frame, dst)]


class MalformedTokenBehaviour(TokenRewriteBehaviour):
    """Send an improperly formed (but validly signed) token: it names
    its sender as successor and claims ``aru > seq``, and the detector's
    token-form check must suspect the sender."""

    def __init__(self, at_time=0.0):
        super().__init__((("aru", "seq", 10), ("successor", "sender_id", 0)), at_time)


class MutantTokenBehaviour(TokenRewriteBehaviour):
    """Equivocate: send different tokens for the same visit.

    The mutant differs in its ``seq`` field (claiming an extra message
    was sent), is validly signed with the compromised processor's own
    key, and is unicast to half the ring while the original goes to the
    other half — the hardest variant to detect, requiring the evidence
    exchange via the previous-token digest chain.
    """

    name = "mutant_token"

    def __init__(self, at_time=0.0, once=True):
        super().__init__((("seq", "seq", 1),), at_time)
        self.once = once

    def outbound(self, frame, dst):
        if dst is not None or not self._takes(frame):
            return [(frame, dst)]
        mutant = self._variant(frame)
        me = self.endpoint.processor.proc_id
        others = [pid for pid in self.endpoint.network.processor_ids() if pid != me]
        half = len(others) // 2
        return [(frame, pid) for pid in others[:half]] + [
            (mutant, pid) for pid in others[half:]
        ]


class MasqueradeBehaviour(ByzantineBehaviour):
    """Send a regular message claiming another processor originated it.

    At ``at_time`` the processor broadcasts one with the victim's
    ``sender_id``, its ``ring_id`` and ``seq`` from the latest token its
    edge has seen.  With digests+signatures it never matches a digest in
    a token the *victim* holder signed, so it is never delivered.
    """

    name = "masquerade"

    def __init__(self, victim_id, dest_group, payload, at_time=0.0):
        super().__init__(at_time)
        self.victim_id = victim_id
        self.dest_group = dest_group
        self.payload = payload
        self._token = None

    def _install(self, endpoint):
        super()._install(endpoint)
        endpoint.scheduler.at(self.at_time, self._inject, label="adversary.masquerade")

    def inbound(self, frame):
        if type(frame) is Token:
            self._token = frame
        return frame

    def outbound(self, frame, dst):
        return [(self.inbound(frame), dst)]

    def _inject(self):
        endpoint, token = self.endpoint, self._token
        if endpoint.processor.crashed or token is None:
            return
        self.activations += 1
        forged = RegularMessage(
            self.victim_id, token.ring_id, token.seq + 1, self.dest_group, self.payload
        )
        endpoint.network.broadcast(
            endpoint.processor.proc_id, MULTICAST_PORT, forged.encode()
        )
