"""Configuration of the Secure Multicast Protocols.

The four cases of the paper's Figure 7 differ in which protocol
mechanisms are active; :class:`SecurityLevel` names the three levels
that involve the multicast stack (case 1 bypasses it entirely):

* ``NONE`` — reliable totally ordered multicast only: no message
  digests, no token signatures (case 2);
* ``DIGESTS`` — MD4 digests of every message carried in the token
  (case 3);
* ``SIGNATURES`` — digests plus RSA-signed tokens with previous-token
  digest chaining (case 4).
"""

import enum


class MulticastConfigError(ValueError):
    """Raised when a :class:`MulticastConfig` parameter makes no sense."""


def _checked_int(name, value, minimum, maximum):
    """Validate an integer knob; the error names the field and the range."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MulticastConfigError(
            "%s must be an integer between %d and %d, got %r"
            % (name, minimum, maximum, value)
        )
    if not minimum <= value <= maximum:
        raise MulticastConfigError(
            "%s must be between %d and %d, got %d" % (name, minimum, maximum, value)
        )
    return value


def _checked_bool(name, value):
    if not isinstance(value, bool):
        raise MulticastConfigError(
            "%s must be True or False, got %r" % (name, value)
        )
    return value


class SecurityLevel(enum.Enum):
    NONE = "none"
    DIGESTS = "digests"
    SIGNATURES = "signatures"

    @property
    def digests_enabled(self):
        return self in (SecurityLevel.DIGESTS, SecurityLevel.SIGNATURES)

    @property
    def signatures_enabled(self):
        return self is SecurityLevel.SIGNATURES


class MulticastConfig:
    """Parameters of the protocol stack.

    What a deployment varies (the security level, the paper's ``j`` and
    batch signatures) is a constructor argument; everything else is a
    class constant, one value for every ring.
    """

    #: CPU cost of processing a token visit (excluding crypto)
    token_hold_cost = 15e-6
    #: how long a holder parks the token when the ring is idle
    #: (Totem-style token retention: bounds idle protocol overhead)
    token_idle_delay = 1.5e-3
    #: recent-traffic window within which the ring stays at full speed
    idle_activity_window = 5e-3
    #: CPU cost of handling one regular message (excluding crypto)
    message_handling_cost = 20e-6
    #: token retransmissions attempted before suspicion
    token_retransmit_limit = 3
    #: token rotations a processor's aru may stall before it is
    #: suspected of receive omission
    aru_stall_rotations = 12
    #: on a batch-signature ring, a holder certifies after this many of
    #: its own token visits (larger amortises the signature further but
    #: delays authentication, and with it delivery)
    signature_batch_visits = 4
    #: maximum token *rotations* of unauthenticated visits kept in
    #: flight before a holder certifies synchronously (backpressure:
    #: bounds how far ordering may run ahead of authentication)
    pipeline_depth = 4
    #: payloads larger than this are split into MessageFragment frames,
    #: each with its own sequence number and digest, and reassembled at
    #: delivery
    fragment_payload_bytes = 4096

    def __init__(
        self,
        security=SecurityLevel.SIGNATURES,
        max_messages_per_token_visit=6,
        batch_signatures=False,
    ):
        self.security = security
        #: the paper's parameter j: "up to six multicast messages are
        #: sent with each token visit"
        self.max_messages_per_token_visit = _checked_int(
            "max_messages_per_token_visit (the paper's j)",
            max_messages_per_token_visit,
            1,
            4096,
        )
        #: how long a processor waits for token progress before acting,
        #: and how long a membership round waits for proposals: both
        #: derived by :meth:`resolve_timeouts` at endpoint setup
        self.token_rotation_timeout = None
        self.membership_round_timeout = None
        #: batch-signature pipeline (requires ``SIGNATURES``): tokens
        #: circulate unsigned and holders periodically broadcast one
        #: RSA-signed :class:`~repro.multicast.token.TokenCertificate`
        #: vouching a contiguous span of token-visit digests (a
        #: MABS-style flat batch), so one signature covers many visits
        #: and signing leaves the ring's critical path
        self.batch_signatures = _checked_bool("batch_signatures", batch_signatures)
        if self.batch_signatures and not security.signatures_enabled:
            raise MulticastConfigError(
                "batch_signatures requires SecurityLevel.SIGNATURES "
                "(certificates are RSA-signed); got security=%s" % security.name
            )

    def resolve_timeouts(self, cost_model, num_processors):
        """Derive the timeouts, scaled to crypto costs and ring size.

        Timeouts must comfortably exceed what they time or
        correct-but-slow processors get suspected, violating eventual
        strong accuracy.  They time two different things, so two
        estimates are derived:

        * a *membership round* is signature-bound at every SIGNATURES
          ring, batch or not (proposals and commits are RSA-signed):
          ``n`` steps of hold + idle parking + a signature and two
          verifications;
        * a *token visit* pays that crypto only where it is on the
          rotation path **in this ring's mode**: nothing below
          SIGNATURES, all of it on a per-visit-signed ring, and on a
          batch ring one certificate signature per
          ``signature_batch_visits`` of a holder's own visits (it
          occupies the priority lane the holder's next origination
          waits on) -- or per ``pipeline_depth`` rotations where that
          is fewer: past that lag a holder certifies *before*
          originating whatever the cadence says, so a cadence longer
          than the pipeline buys the rotation nothing.  Only the
          delivery progress timer reads ``token_rotation_timeout``.

        The timeouts track the *largest* ring size they have been
        resolved for: a cluster hands rings of different sizes their own
        config, but a config reused across resolutions (a 2-processor
        ring resolved before a 7-processor one, or a ring growing on
        rejoin) must rescale upward rather than keep the stale smaller
        timeout and falsely suspect correct-but-slow processors.
        """
        per_visit = self.token_hold_cost + self.token_idle_delay + 200e-6
        per_step = per_visit
        if self.security.signatures_enabled:
            signing = cost_model.sign_cost() + cost_model.verify_cost() * 2
            per_step += signing
            if self.batch_signatures:
                signing /= min(self.signature_batch_visits, self.pipeline_depth)
            per_visit += signing
        n = max(num_processors, 2)
        self.token_rotation_timeout = max(
            self.token_rotation_timeout or 0.0, 8 * (per_visit * n))
        self.membership_round_timeout = max(
            self.membership_round_timeout or 0.0, 12 * (per_step * n))
        return self
