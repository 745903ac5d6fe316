"""The message delivery protocol — secure reliable totally ordered multicast.

A logical ring is imposed on the current processor membership; a token
circulates and only the holder originates regular messages, each
stamped with the next ring-wide sequence number.  Total order follows
from delivering strictly in sequence; reliability from retransmission
requests (``rtr_list``) carried on the token; integrity/uniqueness from
MD4 digests of every message carried in the token; and authentication
of the token itself from an RSA signature plus a digest chain to the
previous token (``prev_token_digest``).

Delivery rule at security level:

* ``NONE`` — a message is delivered once every earlier sequence number
  has been delivered (reliable total order only, the paper's case 2);
* ``DIGESTS`` / ``SIGNATURES`` — additionally, the message bytes must
  match the digest carried in an accepted token, and the message's
  claimed sender must be the token holder that originated it, which
  suppresses corrupted, masqueraded, and mutant messages (cases 3/4).

Mutant *tokens* are handled by evidence exchange: every processor
holds the raw bytes of recent tokens; on seeing either (a) a second
validly-signed token for the same visit with different bytes, or (b) a
successor token whose ``prev_token_digest`` contradicts the stored
predecessor, it rebroadcasts its stored copy so that every correct
processor eventually holds two signed mutants and permanently suspects
the equivocating holder.

With ``batch_signatures`` enabled (a ``SIGNATURES``-level option),
tokens circulate *unsigned* and each holder periodically broadcasts a
:class:`~repro.multicast.token.TokenCertificate` whose single RSA
signature vouches the raw-frame digests of a contiguous span of recent
token visits.  Ordering runs ahead of authentication — the ring keeps
rotating and originating while signatures are pending — and delivery of
each message is gated on its covering token visit falling inside the
*authentication horizon* established by verified certificates.
``MulticastConfig.pipeline_depth`` (a class constant) bounds how many
rotations ordering may run ahead; past it the holder certifies
synchronously before originating, putting the signature back on the
critical path (backpressure).  A validly signed token variant that
contradicts the same processor's own verified certificate is a provable
mutant and is convicted exactly as in the per-visit-signature mode.
"""

import itertools
from collections import deque

from repro.multicast.messages import (
    MULTICAST_PORT,
    MessageFragment,
    MulticastCodecError,
    RegularMessage,
    decode_frame_shared,
)
from repro.multicast.token import MAX_CERT_SPAN, Token, TokenCertificate

#: how many token visits' raw bytes are retained for evidence exchange
#: and membership-change recovery
_TOKEN_HISTORY = 64


def _drop_below(table, low, limit):
    """Delete the integer keys of ``table`` in ``[low, limit)``.

    The caller guarantees ``table`` holds no key under ``low``.  The
    history and garbage sweeps advance by a key or two per token visit,
    so walking the gap costs O(1) where scanning the table costs its
    size; after a jump of more than a history window (a replayed
    ancient token lowered ``low``, a token skipped far ahead) the table
    is the shorter walk.
    """
    if limit - low <= _TOKEN_HISTORY:
        for key in range(low, limit):
            table.pop(key, None)
    else:
        for key in [k for k in table if k < limit]:
            del table[key]


class SeqRecord:
    """What one processor knows about one sequence number.

    ``variants`` are the distinct raw bytes received (mutant candidates).
    ``digest``, ``sender`` and ``visit`` come from the one accepted token
    that vouches the seq (``None`` while none does), ``visit`` so that a
    retransmission resends that token too.  ``originated`` is the
    send-queue entry this processor sequenced as the seq, until it
    delivers it: what an installation that cuts below it queues again.
    """

    __slots__ = ("variants", "digest", "sender", "visit", "originated")

    def __init__(self):
        self.variants = ()
        self.digest = None
        self.sender = None
        self.visit = None
        self.originated = None


class VisitEvidence:
    """What one processor knows about one token visit.

    ``raw`` is the token bytes held for the visit, ``None`` while none
    are.  That is all a ring without batch signatures keeps: nothing
    else reads a visit there, so its records have no other field.  On
    a batch-signature ring each record is a :class:`BatchVisitEvidence`.
    """

    __slots__ = ("raw",)

    def __init__(self):
        self.raw = None


class BatchVisitEvidence(VisitEvidence):
    """What a processor of a batch-signature ring knows about one visit.

    ``digest`` and ``seq`` are the held bytes', set exactly while they
    are held.  The rest is the authentication horizon's.  ``claims``
    maps each certificate signer to the digest it vouched; ``agreed`` is
    the digest every claim shares, ``None`` while there is none or once
    two disagree (a receipt never replaces a claim, so a disagreement
    lasts until the record is swept).  ``variants`` are raw token
    variants kept until a certificate arbitrates which bytes are
    genuine, and ``certs`` the raw certificates whose span ends at this
    visit, keyed ``(signer, first_visit, last_visit)``, kept for
    recovery and duplicate suppression: they leave with the record.
    """

    __slots__ = ("digest", "seq", "claims", "agreed", "variants", "certs")

    def __init__(self):
        self.raw = None
        self.digest = None
        self.seq = None
        self.claims = {}
        self.agreed = None
        self.variants = []
        self.certs = {}


class DeliveryProtocol:
    """One processor's instance of the message delivery protocol."""

    def __init__(
        self,
        processor,
        scheduler,
        network,
        signing,
        config,
        detector,
        deliver_cb,
        trace=None,
        obs=None,
    ):
        self.processor = processor
        self.scheduler = scheduler
        self.network = network
        self.signing = signing
        #: structural hashing for chain and vouch comparison: the
        #: keystore's digest function, uncharged (verification and
        #: origination charge the simulated digest time themselves)
        self._digest_of = signing.digest_fn
        self.config = config
        self.detector = detector
        self.deliver_cb = deliver_cb
        self._trace = trace

        self.my_id = processor.proc_id
        #: a ring is installed and frames for it are absorbed
        self.active = False
        #: token circulation is running (False during reconfiguration:
        #: frames are still absorbed for recovery, but no tokens are
        #: originated and no progress timeouts fire)
        self.circulating = False
        self.members = ()
        #: who follows this processor in ``members``
        self._successor = None
        self.ring_id = 0
        #: never deliver beyond this seq (None = unlimited); frozen at
        #: reconfiguration start and raised to the agreed cut so that
        #: all members deliver exactly the same old-ring prefix
        self._ceiling = None
        #: called whenever delivered coverage advances (the membership
        #: engine uses this to finish recovery)
        self.coverage_listener = None

        # The security level is fixed for a protocol instance's life:
        # resolve the enum property chains once, not per token visit.
        self._digests = config.security.digests_enabled
        self._signatures = config.security.signatures_enabled
        #: batch-signature pipeline active (config guarantees SIGNATURES)
        self._batch = config.batch_signatures

        self._send_queue = deque()
        #: seq -> :class:`SeqRecord`
        self._seqs = {}
        #: visit -> :class:`VisitEvidence`, of the kind ``_record`` makes
        self._visits = {}
        self._record = BatchVisitEvidence if self._batch else VisitEvidence
        self._delivered_up_to = 0
        self._max_seq_seen = 0
        self._last_accepted = None
        self._last_accepted_raw = b""
        #: ``_visits`` holds no key under this one (swept below it)
        self._history_low = 0
        #: ``_seqs`` holds no key at or under this one (swept up to it)
        self._collected_up_to = 0
        self._pending_rtr = set()
        self._progress_timer = None
        self._strikes = 0
        self._stall_rotations = 0
        self._stall_key = None
        self._last_activity = 0.0
        self._parked_origination = None
        #: frames accumulated during one origination, transmitted
        #: together once the visit's CPU work completes
        self._outgoing_frames = []
        #: arus of the most recent full rotation of tokens; messages
        #: are only garbage-collected below the *minimum* of a full
        #: window, because the interim aru can exceed a member's
        #: coverage until that member's next visit lowers it
        self._recent_arus = deque(maxlen=8)
        # --- batch-signature pipeline state ---
        #: highest visit such that every visit <= it is *settled*: its
        #: digest is unanimously vouched by verified certificates and
        #: any raw token we hold for it matches the vouch
        self._auth_visit = 0
        #: own token visits since this processor last certified
        self._own_visits_since_cert = 0
        self._last_cert_raw = b""
        self._last_cert_span = None
        #: processors already convicted here (suppresses re-suspicion)
        self._convicted = set()
        # --- fragmentation state ---
        #: (sender, frag_id) -> {"total": n, "group": g, "chunks": {i: bytes}}
        self._reassembly = {}
        #: monotonic fragment-stream id for payloads this processor splits
        self._frag_counter = 0
        self.stats = {
            "delivered": 0,
            "sent": 0,
            "retransmits": 0,
            "digest_discards": 0,
            "token_visits": 0,
            "token_rotations": 0,
            "tokens_signed": 0,
            "certs_signed": 0,
            "certs_verified": 0,
            "fragments_sent": 0,
        }
        # Forensic flight recorder (repro.obs.forensics) and the causal
        # TraceCollector (distinct from self._trace, the property
        # checkers' TraceLog): resolved once here so every hot-path site
        # pays a single None check.
        self._forensics = obs.recorder(self.my_id) if obs is not None else None
        self._tracer = obs.trace if obs is not None else None
        if obs is not None:
            families = {key: "multicast." + key for key in self.stats}
            obs.registry.derive_counters(self.stats, families, proc=self.my_id)
        #: mutant evidence already recorded, keyed (ring, visit, holder):
        #: evidence rebroadcasts re-present the same mutant many times
        self._forensic_mutants = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start_ring(self, members, ring_id, start_seq):
        """Begin operating on a freshly installed membership.

        Sequence numbers continue from ``start_seq`` (the agreed
        delivery cut of the previous ring) so coverage comparisons stay
        meaningful across reconfigurations.  What this processor
        sequenced above the cut was delivered by nobody and the old
        ring's frames are cleared here, so it goes back to the head of
        the send queue first, to be sequenced again on the new ring.
        """
        self._reoriginate()
        self.active = True
        self.circulating = True
        self._ceiling = None
        index = self.install_members(members)
        self.ring_id = ring_id
        self._seqs.clear()
        self._visits.clear()
        self._history_low = 0
        self._collected_up_to = start_seq
        self._pending_rtr.clear()
        self._delivered_up_to = start_seq
        self._max_seq_seen = start_seq
        self._last_accepted = None
        self._last_accepted_raw = b""
        self._strikes = 0
        self._stall_rotations = 0
        self._stall_key = None
        self._last_activity = self.scheduler.now
        self._parked_origination = None
        self._recent_arus = deque(maxlen=max(len(self.members), 2))
        self._auth_visit = 0
        self._last_cert_raw = b""
        self._last_cert_span = None
        self._convicted = set()
        self._reassembly.clear()
        # Stagger certification cadence around the ring so roughly
        # n / signature_batch_visits certificates land per rotation
        # instead of every holder certifying in the same rotation.
        self._own_visits_since_cert = index % max(self.config.signature_batch_visits, 1)
        if self._forensics is not None:
            self._forensics.set_context(ring=ring_id, seq=start_seq)
        self._reset_progress_timer()
        if self.my_id == self.members[0]:
            self._schedule_origination("token.first")

    def install_members(self, members):
        """Adopt ``members`` (this processor among them) as the ring, in
        ring order, and derive who follows this processor; returns its
        place in the order."""
        self.members = ordered = tuple(sorted(members))
        index = ordered.index(self.my_id)
        self._successor = ordered[(index + 1) % len(ordered)]
        return index

    def suspend(self):
        """Pause token circulation (a membership change is in progress).

        Frames for the current ring are still absorbed — recovery
        depends on retransmitted messages and tokens — but no new
        tokens are originated and progress timeouts stop firing.
        """
        self.circulating = False
        if self._progress_timer is not None:
            self._progress_timer.cancel()

    def freeze_delivery(self):
        """Pin the delivery ceiling at the current coverage.

        Called at reconfiguration start so that the coverage a member
        reports in its proposal cannot change under it; the agreed cut
        then raises the ceiling again.
        """
        self._ceiling = self._delivered_up_to

    def raise_ceiling(self, cut):
        """Allow delivery up to the agreed cut during recovery."""
        if self._ceiling is None or cut > self._ceiling:
            self._ceiling = cut
        self._advance_delivery()

    def drop_originated(self):
        """Forget what this processor sequenced and has not delivered.

        Called when it (re)joins: the ring that excluded it dropped
        those messages at every survivor, so they are dropped here too.
        """
        for record in self._seqs.values():
            record.originated = None

    def _reoriginate(self):
        """Put what this processor sequenced and nobody delivered back at
        the head of the send queue.

        Every survivor delivers exactly up to the cut before it
        installs, so the entries still ``originated`` lie above it
        and were delivered nowhere: sending them again, in seq order, is
        exactly-once.  Every member drops its partial reassemblies at
        the install, so a payload split into fragments goes again whole:
        the chunks of it delivered below the cut (this processor's own
        reassembly buffer holds them) go first, then the rest, which is
        above the cut or still queued.  A payload is handed up with its
        last chunk, so the order of hand-ups is unchanged.
        """
        records = [record for _, record in sorted(self._seqs.items())]
        resend = [r.originated for r in records if r.originated is not None]
        restart = []
        for (sender, frag_id), partial in self._reassembly.items():
            if sender != self.my_id:
                continue
            rest = next(
                (
                    entry
                    for entry in itertools.chain(resend, self._send_queue)
                    if entry[2] is not None and entry[2][0] == frag_id
                ),
                None,
            )
            if rest is None:
                continue
            dest_group, _chunk, (_, _, total), ctx = rest
            restart.extend(
                (dest_group, chunk, (frag_id, index, total), ctx)
                for index, chunk in sorted(partial["chunks"].items())
            )
        self._send_queue.extendleft(reversed(restart + resend))

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def queue_message(self, dest_group, payload):
        """Queue ``payload`` for totally-ordered multicast to ``dest_group``.

        Payloads larger than ``fragment_payload_bytes`` are split into
        :class:`MessageFragment` frames here, each of which then flows
        through ordering/digesting/retransmission as an ordinary
        message with its own sequence number; the receiving side
        reassembles and delivers the joined payload once the *last*
        fragment's sequence number is deliverable.
        """
        if self._trace is not None:
            self._trace.record(
                "multicast.originate",
                proc=self.my_id,
                group=dest_group,
                payload=self._digest_of(payload),
            )
        ctx = self._tracer.context_for(payload) if self._tracer is not None else None
        limit = self.config.fragment_payload_bytes
        if len(payload) > limit:
            chunks = [payload[i : i + limit] for i in range(0, len(payload), limit)]
            self._frag_counter += 1
            frag_id = self._frag_counter
            total = len(chunks)
            if ctx is not None:
                # The split is a causal node; every chunk's copy hangs
                # off it instead of the original payload's parent.
                ctx = self._tracer.fragmented(ctx, self.my_id, total)
            for index, chunk in enumerate(chunks):
                self._send_queue.append(
                    (dest_group, chunk, (frag_id, index, total), ctx)
                )
        else:
            self._send_queue.append((dest_group, payload, None, ctx))
        self._last_activity = self.scheduler.now
        self._release_parked_token()

    def queue_length(self):
        return len(self._send_queue)

    # ------------------------------------------------------------------
    # state inspection (used by the membership engine's recovery phase)
    # ------------------------------------------------------------------

    def deliverable_coverage(self):
        """Highest seq up to which everything has been delivered here."""
        return self._delivered_up_to

    def recovery_frames(self, above_seq):
        """Raw frames (messages + covering tokens) others may be missing."""
        frames = []
        seqs = self._seqs
        for seq in sorted(seqs):
            if seq > above_seq:
                frames.extend(seqs[seq].variants)
        visits = self._visits
        if self._digests:
            held = [visits[visit].raw for visit in sorted(visits)]
            frames.extend(raw for raw in held if raw is not None)
        if self._batch:
            # Certificates are what let a recovering processor
            # authenticate the tokens above: ship every span we hold.
            certs = {}
            for evidence in visits.values():
                certs.update(evidence.certs)
            for key in sorted(certs):
                frames.append(certs[key])
        return frames

    # ------------------------------------------------------------------
    # inbound frames (called by the endpoint after CPU charging)
    # ------------------------------------------------------------------

    def on_regular(self, message, raw):
        if not self.active or message.ring_id != self.ring_id:
            return
        if message.seq <= self._delivered_up_to:
            return  # already delivered (a late retransmission)
        if message.seq > self._max_seq_seen + 4 * self.config.max_messages_per_token_visit:
            # Far beyond any sequence number a token has vouched for:
            # either corruption of the seq field or a malicious sender.
            # The seq horizon is only ever extended by verified tokens —
            # otherwise one flipped bit would have us request a 2^56
            # message backlog.
            return
        seqs = self._seqs
        record = seqs.get(message.seq) or seqs.setdefault(message.seq, SeqRecord())
        variants = record.variants
        if raw not in variants and len(variants) < 3:
            record.variants = variants + (raw,)
        self._last_activity = self.scheduler.now
        self._advance_delivery()

    def on_token(self, token, raw):
        if not self.active or token.ring_id != self.ring_id:
            return
        if self._batch:
            self._on_token_batch(token, raw)
            return
        if self._signatures:
            if not self.signing.verify(token.sender_id, token.sealed_bytes(), token.signature):
                return
        if not token.well_formed(self.members):
            # Only a validly signed token is evidence against its sender;
            # below SIGNATURES a bit flip or a masquerader is dropped.
            if self._signatures:
                self.detector.suspect(token.sender_id, "malformed_token")
            return
        # Off a batch ring a record always holds bytes (only batch code
        # makes one without), so the record alone says whether any are.
        evidence = self._visits.get(token.visit)
        if evidence is not None:
            stored = evidence.raw
            if stored == raw:
                self._reset_progress_timer()  # a benign retransmission
                return
            # Two different tokens for the same visit: a mutant.  With
            # signatures both are provably from the same holder.
            if self._forensics is not None:
                mutant_key = (self.ring_id, token.visit, token.sender_id)
                if mutant_key not in self._forensic_mutants:
                    self._forensic_mutants.add(mutant_key)
                    self._forensics.record(
                        "mutant_token",
                        holder=token.sender_id,
                        visit=token.visit,
                        stored_digest=self._digest_of(stored),
                        mutant_digest=self._digest_of(raw),
                    )
            self.detector.suspect(token.sender_id, "mutant_token")
            self._rebroadcast_evidence(token.visit)
            return
        previous = self._last_accepted
        if previous is not None and token.visit <= previous.visit:
            # A token we missed earlier, rebroadcast so we can recover
            # the digests it carried: absorb it without disturbing the
            # chain head or the rotation.
            self._absorb_historical_token(token, raw)
            return
        if (
            self._signatures
            and previous is not None
            and token.visit == previous.visit + 1
            and token.prev_token_digest != self._digest_of(self._last_accepted_raw)
        ):
            # The chain contradicts the predecessor we hold: someone
            # equivocated.  Publish our copy so everyone can compare.
            if self._forensics is not None:
                self._forensics.record(
                    "digest_mismatch",
                    scope="token_chain",
                    holder=token.sender_id,
                    visit=token.visit,
                    claimed_prev=token.prev_token_digest,
                    stored_prev=self._digest_of(self._last_accepted_raw),
                )
            self._rebroadcast_evidence(previous.visit)
            return
        self._accept_token(token, raw)

    # ------------------------------------------------------------------
    # batch signatures: certificates and the authentication horizon
    # ------------------------------------------------------------------

    def _on_token_batch(self, token, raw):
        """Absorb a token in batch mode: no per-visit signature check.

        Tokens circulate unsigned; authentication arrives later on
        certificates.  Unsigned garbage therefore cannot be attributed
        to anyone — only *validly signed* frames convict.
        """
        if not token.well_formed(self.members):
            if (
                token.signature
                and token.sender_id in self.members
                and self.signing.verify(
                    token.sender_id, token.sealed_bytes(), token.signature
                )
            ):
                self._convict(token.sender_id, "malformed_token")
            return
        stored = self._held(token.visit)
        if stored is not None:
            if stored == raw:
                self._reset_progress_timer()  # a benign retransmission
                return
            self._note_variant(token.visit, raw)
            self._resolve_visit(token.visit)
            return
        previous = self._last_accepted
        if previous is not None and token.visit <= previous.visit:
            self._absorb_historical_batch(token, raw)
            return
        vouched = self._vouch_digest(token.visit)
        if vouched is not None and self._digest_of(raw) != vouched:
            # A fresh token already contradicted by a verified
            # certificate: never accept it as the chain head.
            self._note_variant(token.visit, raw)
            self._resolve_visit(token.visit)
            return
        self._accept_token(token, raw)

    def _absorb_historical_batch(self, token, raw):
        """Recover a missed token, honouring any certificate vouches."""
        evidence = self._visits.get(token.visit)
        vouched = evidence.agreed if evidence is not None else None
        if vouched is not None and self._digest_of(raw) != vouched:
            self._note_variant(token.visit, raw)
            self._resolve_visit(token.visit)
            return
        if vouched is None and evidence is not None and evidence.claims:
            # Certificates disagree about this visit: hold the bytes
            # for evidence but trust nothing until membership resolves.
            self._note_variant(token.visit, raw)
            return
        self._harvest_token(token, raw)
        self._max_seq_seen = max(self._max_seq_seen, token.seq)
        self._advance_authentication()
        self._advance_delivery()

    def on_certificate(self, cert, raw):
        """A TokenCertificate arrived: verify once, vouch a whole span."""
        if not self.active or cert.ring_id != self.ring_id or not self._batch:
            return
        if cert.signer_id == self.my_id:
            return  # our own certificate echoed back by recovery
        if cert.signer_id not in self.members:
            return
        key = (cert.signer_id, cert.first_visit, cert.last_visit)
        last = self._visits.get(cert.last_visit)
        if last is not None and last.certs.get(key) == raw:
            return  # duplicate (retransmission or recovery overlap)
        if not self.signing.verify_batch(
            cert.signer_id, cert.sealed_bytes(), cert.signature, len(cert.digests)
        ):
            return
        if self._forensics is not None:
            self._forensics.record_fields("batch_verify", cert.sealed_summary())
        if not cert.well_formed(self.members):
            # Validly signed yet malformed: provable misbehaviour.
            self._convict(cert.signer_id, "malformed_token")
            return
        self.stats["certs_verified"] += 1
        if cert.first_visit < self._history_low:
            self._history_low = cert.first_visit
        self._evidence(cert.last_visit).certs[key] = raw
        self._last_activity = self.scheduler.now
        self._apply_vouches(cert)

    def _evidence(self, visit):
        """The record of ``visit``, made empty if there is none yet (the
        caller has lowered ``_history_low`` to ``visit`` if need be)."""
        evidence = self._visits.get(visit)
        if evidence is None:
            evidence = self._visits[visit] = BatchVisitEvidence()
        return evidence

    def _held(self, visit):
        """The token bytes held for ``visit``, or ``None``."""
        evidence = self._visits.get(visit)
        return evidence.raw if evidence is not None else None

    def _apply_vouches(self, cert):
        """Record a verified certificate's per-visit digest claims."""
        # Every certificate re-vouches the whole token history, so this
        # loop runs ~64 entries per receipt: an entry already known from
        # this signer costs a probe and a compare, a new one a compare
        # with the record's agreed and held digests.  The table is only
        # ever cleared in place, never rebound.
        signer = cert.signer_id
        records = self._visits
        conflicted = []
        for visit, digest in enumerate(cert.digests, cert.first_visit):
            evidence = records.get(visit)
            if evidence is None:
                evidence = records[visit] = BatchVisitEvidence()
            claims = evidence.claims
            existing = claims.get(signer)
            if existing is not None:
                if existing != digest:
                    # One signer vouching two digests for one visit:
                    # provable certificate equivocation.
                    self._convict(signer, "mutant_token")
                continue
            if not claims:
                evidence.agreed = digest
            elif evidence.agreed != digest:
                evidence.agreed = None
            claims[signer] = digest
            held = evidence.digest
            if (
                evidence.variants
                or evidence.agreed is None
                or (held is not None and held != digest)
            ):
                conflicted.append(visit)
        for visit in conflicted:
            if self._forensics is not None:
                self._forensics.record(
                    "digest_mismatch",
                    scope="certificate",
                    cert_visit=visit,
                    signer=cert.signer_id,
                )
            self._resolve_visit(visit)
        self._advance_authentication()
        self._advance_delivery()

    def _vouch_digest(self, visit):
        """The unanimously vouched digest for ``visit`` (None if unknown
        or certificates disagree — conflicting vouches authenticate
        nothing until the equivocator is excluded)."""
        evidence = self._visits.get(visit)
        return evidence.agreed if evidence is not None else None

    def _advance_authentication(self):
        """Advance the contiguous horizon of settled token visits.

        A visit settles once a verified certificate vouches it and any
        raw token we hold for it matches the vouch.  A vouched visit we
        hold *no* token for settles too: the vouch proves the token
        existed, and any message it covered surfaces as a digest-less
        gap that retransmission repairs (the covering token is resent
        and must then match the vouch to be harvested).
        """
        records = self._visits
        nxt = self._auth_visit + 1
        while True:
            evidence = records.get(nxt)
            if evidence is None:
                break
            agreed = evidence.agreed
            if agreed is None:
                break
            held = evidence.digest
            if held is not None and held != agreed:
                break  # contradiction pending evidence resolution
            self._auth_visit = nxt
            nxt += 1

    def _note_variant(self, visit, raw):
        if visit < self._history_low:
            self._history_low = visit
        variants = self._evidence(visit).variants
        if raw not in variants and len(variants) < 4:
            variants.append(raw)

    def _resolve_visit(self, visit):
        """Arbitrate raw token variants once certificates weigh in.

        Unsigned variants cannot be attributed, so without a vouch they
        are merely held.  A unanimous vouch names the genuine bytes:
        the matching variant is (re)harvested, every validly signed
        contradicting variant whose own sender vouched otherwise is
        convicted, and our contradicted copy is published as evidence.
        Whichever copy is dropped takes its ``seq`` out of
        ``_max_seq_seen`` too.
        """
        stored = self._held(visit)
        evidence = self._visits.get(visit)
        candidates = list(evidence.variants) if evidence is not None else []
        if stored is not None and stored not in candidates:
            candidates.append(stored)
        for raw in candidates:
            self._maybe_convict_mutant(visit, raw)
        vouched = self._vouch_digest(visit)
        if vouched is None:
            if stored is not None and len(candidates) > 1:
                # Competing variants, no arbiter yet: publish ours so
                # every correct processor can compare.
                self._rebroadcast_evidence(visit)
            return
        keeper = None
        for raw in candidates:
            if self._digest_of(raw) == vouched:
                keeper = raw
                break
        if keeper is not None:
            if keeper != stored:
                try:
                    token = decode_frame_shared(keeper)
                except MulticastCodecError:
                    token = None
                if isinstance(token, Token):
                    if stored is None:
                        self._harvest_token(token, keeper)
                        self._max_seq_seen = max(self._max_seq_seen, token.seq)
                    else:
                        self._unharvest(visit)
                        self._harvest_token(token, keeper)
                        self._recount_max_seq()
        elif stored is not None:
            # Our copy contradicts the certificate: publish it as
            # evidence, then drop its harvested digests so nothing
            # mutant-covered can deliver; retransmission brings the
            # genuine token back.
            self._rebroadcast_evidence(visit)
            self._unharvest(visit)
            self._recount_max_seq()
        self._advance_authentication()
        self._advance_delivery()

    def _recount_max_seq(self):
        """Derive ``_max_seq_seen`` again after a held token was dropped:
        a provisional token that lost arbitration leaves no trace in the
        seq horizon (its ``seq`` may be anything its sender made up)."""
        self._max_seq_seen = max(
            [self._delivered_up_to]
            + [e.seq for e in self._visits.values() if e.seq is not None]
        )

    def _maybe_convict_mutant(self, visit, raw):
        """Convict the sender of a signed token contradicting its own cert."""
        try:
            token = decode_frame_shared(raw)
        except MulticastCodecError:
            return
        if not isinstance(token, Token) or not token.signature:
            return
        evidence = self._visits.get(visit)
        claimed = evidence.claims.get(token.sender_id) if evidence is not None else None
        if claimed is None or claimed == self._digest_of(raw):
            return
        if not self.signing.verify(
            token.sender_id, token.sealed_bytes(), token.signature
        ):
            return
        # The sender's verified certificate vouches different bytes for
        # this visit than its validly signed token: provable
        # equivocation, exactly the mutant-token proof of the
        # per-visit-signature mode.
        if self._forensics is not None:
            mutant_key = (self.ring_id, visit, token.sender_id)
            if mutant_key not in self._forensic_mutants:
                self._forensic_mutants.add(mutant_key)
                self._forensics.record(
                    "mutant_token",
                    holder=token.sender_id,
                    visit=visit,
                    stored_digest=claimed,
                    mutant_digest=self._digest_of(raw),
                )
        self._convict(token.sender_id, "mutant_token")
        self._rebroadcast_evidence(visit)

    def _convict(self, proc_id, kind):
        if proc_id in self._convicted:
            return
        self._convicted.add(proc_id)
        self.detector.suspect(proc_id, kind)

    def _harvest_token(self, token, raw, reindex=True):
        """Adopt ``raw`` as the genuine token of its visit: hold it in the
        visit's record (on a batch ring with its seq and digest, hashed
        once for every certificate that vouches the visit) and index the
        message digests it carries (``reindex`` replaces what an earlier
        token claimed for the same seqs)."""
        visit = token.visit
        if visit < self._history_low:
            self._history_low = visit
        visits = self._visits
        evidence = visits.get(visit) or visits.setdefault(visit, self._record())
        evidence.raw = raw
        if self._batch:
            evidence.digest = self._digest_of(raw)
            evidence.seq = token.seq
        digests = token.message_digest_list
        if digests and self._digests:
            self._index_digests(token.sender_id, visit, digests, reindex)

    def _hold_token(self, token, raw):
        """Hold the new chain head ``token`` and sweep the visit that left
        the history window: what :meth:`_harvest_token` followed by a
        sweep of ``[low, visit - _TOKEN_HISTORY)`` did, in one step.

        A chain head lies above the one before it, and the watermark
        never above that one's floor, so holding it never lowers the
        watermark: the sweep starts where an earlier harvest or
        certificate left it.  A chain head is one visit past the last
        one nearly always, so the window advances by one key: one pop.
        """
        visit = token.visit
        visits = self._visits
        evidence = visits.get(visit)
        if evidence is None:
            evidence = visits[visit] = self._record()
        evidence.raw = raw
        if self._batch:
            evidence.digest = self._digest_of(raw)
            evidence.seq = token.seq
        digests = token.message_digest_list
        if digests and self._digests:
            self._index_digests(token.sender_id, visit, digests, True)
        floor = visit - _TOKEN_HISTORY
        low = self._history_low
        if floor > low:
            self._history_low = floor
            # A certificate lives in the record of its span's last visit,
            # so it is swept with that visit.
            if floor == low + 1:
                visits.pop(low, None)
            else:
                _drop_below(visits, low, floor)

    def _index_digests(self, sender, visit, digests, reindex):
        """Record that ``visit``'s token, held by ``sender``, vouches each
        ``(seq, digest)`` of ``digests`` (a non-empty list)."""
        lowest = min(digests)[0]
        if lowest <= self._collected_up_to:
            self._collected_up_to = lowest - 1
        seqs = self._seqs
        for seq, digest in digests:
            record = seqs.get(seq) or seqs.setdefault(seq, SeqRecord())
            if reindex or record.visit is None:
                record.digest = digest
                record.sender = sender
                record.visit = visit

    def _unharvest(self, visit):
        """Drop a visit's held token and the vouches it still gives."""
        evidence = self._visits[visit]
        token = decode_frame_shared(evidence.raw)
        evidence.raw = evidence.digest = evidence.seq = None
        for seq, _digest in token.message_digest_list:
            record = self._seqs.get(seq)
            if record is not None and record.visit == visit:
                record.digest = record.sender = record.visit = None

    def _issue_certificate(self, reason):
        """Sign one certificate vouching our contiguous recent span.

        The span reaches *down* from the newest visit through the whole
        retained token history (bounded by ``MAX_CERT_SPAN``), not
        merely to our own authentication horizon: re-vouching is
        idempotent, and the overlap means a processor that lost any
        earlier certificate is healed by the next one from any holder.
        """
        newest_token = self._last_accepted
        if newest_token is None:
            return
        newest = newest_token.visit
        floor = max(1, newest - min(_TOKEN_HISTORY, MAX_CERT_SPAN) + 1)
        records = self._visits
        held = []
        visit = newest
        while visit >= floor:
            evidence = records.get(visit)
            if evidence is None or evidence.digest is None:
                break  # a gap ends the contiguous span we can vouch
            held.append(evidence)
            visit -= 1
        if not held:
            return
        first = visit + 1
        span = (first, newest)
        if span == self._last_cert_span:
            return  # nothing new since our previous certificate
        held.reverse()
        digests = [evidence.digest for evidence in held]
        cert = TokenCertificate(self.my_id, self.ring_id, first, digests)
        raw = cert.encode_signed(
            lambda signable: self.signing.sign_batch(signable, len(digests))
        )
        self._last_cert_span = span
        self._last_cert_raw = raw
        held[-1].certs[(self.my_id, first, newest)] = raw
        self._own_visits_since_cert = 0
        self.stats["certs_signed"] += 1
        if self._forensics is not None:
            self._forensics.record(
                "batch_sign", reason=reason, **cert.sealed_summary()
            )
        if self._tracer is not None:
            self._tracer.certified(cert.sealed_summary())
        # The frame leaves once the CPU finishes the signature — for a
        # backpressure certificate that delay lands on the critical
        # path (before this visit's token), for a cadence certificate
        # the token is already scheduled and the ring rotates on.
        send_at = self.processor.prio_free_at
        if send_at <= self.scheduler.now:
            self._transmit_frames([raw])
        else:
            self.scheduler.at(
                send_at, self._transmit_frames, [raw], label="cert.transmit"
            )
        # Our own broadcast does not loop back: apply the vouches here.
        # Our own claims are the only ones a later call may replace, so
        # ``agreed`` is recomputed from the claims whenever it is not
        # already our digest.
        my_id = self.my_id
        for evidence, digest in zip(held, digests):
            claims = evidence.claims
            claims[my_id] = digest
            if evidence.agreed != digest:
                evidence.agreed = (
                    digest if all(c == digest for c in claims.values()) else None
                )
        self._advance_authentication()
        self._advance_delivery()

    # ------------------------------------------------------------------
    # token acceptance and origination
    # ------------------------------------------------------------------

    def _absorb_historical_token(self, token, raw):
        """Recover the digest list of a token missed earlier."""
        self._harvest_token(token, raw, reindex=False)
        self._max_seq_seen = max(self._max_seq_seen, token.seq)
        self._advance_delivery()

    def _accept_token(self, token, raw):
        # A *fresh* token from the sender proves it is alive: clear any
        # transient (timeout-based) suspicion of it.  Historical tokens
        # replayed by others must not absolve — a crashed processor's
        # old tokens keep circulating during recovery.
        self.detector.absolve(token.sender_id)
        self._last_accepted = token
        self._last_accepted_raw = raw
        self._hold_token(token, raw)
        seq, aru, aru_id = token.seq, token.aru, token.aru_id
        if seq > self._max_seq_seen:
            self._max_seq_seen = seq
        self.stats["token_visits"] += 1
        if self._forensics is not None:
            self._forensics.seq = seq
            self._forensics.record_fields("token_receive", token.sealed_summary())
        self._strikes = 0
        self._reset_progress_timer()
        if aru_id == Token.NO_ARU_ID or aru_id == self.my_id or seq <= aru:
            # Nobody pins the aru: no receive omission to suspect.
            self._stall_key = None
            self._stall_rotations = 0
        else:
            self._track_aru_stall(aru_id, aru)
        # _advance_delivery can reach the agreed cut of an ongoing
        # reconfiguration and reentrantly install a new ring (which
        # resets this protocol's state and re-enables circulation).
        # The origination check below must therefore re-validate that
        # *this* token's ring is still the current one.
        if self._batch:
            # A certificate may have vouched this visit before the
            # token itself arrived (recovery reorders frames).
            self._advance_authentication()
            self._advance_delivery()
        elif token.message_digest_list:
            # Exact: off a batch ring the scan reads the seq records,
            # the delivered watermark and the ceiling.  Accepting a
            # token writes only the seq records, and only through its
            # digest list; every other writer of the three (on_regular,
            # raise_ceiling, start_ring, a historical absorb,
            # origination) runs the scan itself.  So with an empty list
            # the scan would stop where it last stopped, with no
            # delivery, no discard and no simulated digest charge.
            self._advance_delivery()
        self._collect_garbage(aru)
        if (
            token.ring_id == self.ring_id
            and token.successor == self.my_id
            and self.circulating
        ):
            self._schedule_origination("token.originate")

    def _schedule_origination(self, label):
        """Run token origination after its own CPU cost only.

        Protocol work behaves as higher priority than application work:
        it *consumes* CPU time (pushing application tasks back) but is
        not itself delayed by an application backlog.  The paper
        observes exactly this in case 4: "the computation of the
        signatures dominates the CPU usage ... effectively reducing the
        fraction of CPU time allocated to other processing, such as the
        ORB's batching".

        When the ring has been quiet — nothing to send, nothing to
        repair, no recent traffic — the holder parks the token for
        ``token_idle_delay`` (Totem-style token retention) so an idle
        system is not dominated by protocol overhead.  A message queued
        while parked releases the token immediately.
        """
        if self._ring_is_idle():
            self.processor.charge(
                self.config.token_hold_cost, "multicast.token", priority=True
            )
            self._parked_origination = self.scheduler.after(
                self.config.token_hold_cost + self.config.token_idle_delay,
                self._originate_token,
                self.ring_id,
                label=label + ".parked",
            )
            return
        self._parked_origination = None
        self.processor.execute(
            self.config.token_hold_cost,
            self._originate_token,
            self.ring_id,
            category="multicast.token",
            label=label,
            priority=True,
        )

    def _transmit_frames(self, frames):
        if self.processor.crashed:
            return
        for raw in frames:
            self.network.broadcast(self.my_id, MULTICAST_PORT, raw)

    def _ring_is_idle(self):
        if self._send_queue or self._pending_rtr:
            return False
        if self._delivered_up_to < self._max_seq_seen:
            return False
        previous = self._last_accepted
        if previous is not None and (previous.rtr_list or previous.aru < previous.seq):
            return False
        recent = self.scheduler.now - self._last_activity
        return recent >= self.config.idle_activity_window

    def _release_parked_token(self):
        """A message was queued while the token was parked: release it."""
        parked = self._parked_origination
        if parked is not None and not parked.cancelled:
            parked.cancel()
            self._parked_origination = None
            self.scheduler.after(0.0, self._originate_token, self.ring_id, label="token.release")

    def _originate_token(self, expected_ring_id):
        self._parked_origination = None
        if not self.active or not self.circulating or self.ring_id != expected_ring_id:
            return
        previous = self._last_accepted
        if previous is not None and previous.successor != self.my_id:
            return  # superseded while we waited for the CPU
        if self._batch and previous is not None:
            lag = previous.visit + 1 - self._auth_visit
            if lag > self.config.pipeline_depth * max(len(self.members), 1):
                # Ordering has run a full pipeline ahead of
                # authentication: certify *before* originating, putting
                # the signature back on the critical path
                # (backpressure) rather than letting unauthenticated
                # work grow without bound.
                self._issue_certificate("backpressure")
        self._outgoing_frames = []
        # An empty visit, the common one, asks for nothing, resends
        # nothing and sends nothing: each step that would come to
        # nothing is skipped.  ``rtr`` ends as what this token asks for.
        if self._pending_rtr or (previous is not None and previous.rtr_list):
            rtr = set(previous.rtr_list) if previous is not None else set()
            rtr |= self._pending_rtr
            rtg = self._service_retransmissions(rtr)
            rtr.difference_update(rtg)
        else:
            rtr, rtg = set(), []
        # What this visit sequences is held whole, so it is never a gap.
        if self._delivered_up_to < self._max_seq_seen:
            rtr |= self._missing_seqs()
        digest_list = self._send_new_messages() if self._send_queue else []
        aru, aru_id = self._update_aru(previous)
        token = Token(
            sender_id=self.my_id,
            ring_id=self.ring_id,
            visit=(previous.visit + 1) if previous is not None else 1,
            seq=self._max_seq_seen,
            aru=aru,
            aru_id=aru_id,
            successor=self._successor,
            rtr_list=sorted(rtr),
            rtg_list=sorted(rtg),
            message_digest_list=digest_list,
            prev_token_digest=(
                self._digest_of(self._last_accepted_raw) if previous is not None else b""
            ),
        )
        if self._signatures and not self._batch:
            # Batch mode circulates tokens unsigned; authentication
            # arrives on periodic certificates instead.
            raw = token.encode_signed(self.signing.sign)
            self.stats["tokens_signed"] += 1
        else:
            raw = token.encode()
        # The visit's frames (retransmissions, new messages, then the
        # token — Figure 6 of the paper) leave the processor only once
        # the CPU has actually finished the visit's protocol work, so
        # signature generation genuinely paces the ring in case 4.
        self._outgoing_frames.append(raw)
        frames = self._outgoing_frames
        self._outgoing_frames = []
        send_at = self.processor.prio_free_at
        if send_at <= self.scheduler.now:
            self._transmit_frames(frames)
        else:
            self.scheduler.at(send_at, self._transmit_frames, frames, label="token.transmit")
        # Treat our own token as accepted so the chain continues from it.
        self._last_accepted = token
        self._last_accepted_raw = raw
        self._hold_token(token, raw)
        if self._tracer is not None and digest_list:
            summary = token.trace_summary()
            for seq, _ in digest_list:
                self._tracer.token_covered(seq, summary, self._batch)
        self.stats["token_visits"] += 1
        # Originating is this processor's turn in the rotation: the
        # per-processor origination count *is* its rotation count.
        self.stats["token_rotations"] += 1
        if self._forensics is not None:
            self._forensics.seq = token.seq
            self._forensics.record_fields("token_send", token.sealed_summary())
        self._pending_rtr.clear()
        self._strikes = 0
        self._reset_progress_timer()
        self._advance_delivery()
        if self._batch:
            self._own_visits_since_cert += 1
            if self._own_visits_since_cert >= self.config.signature_batch_visits and (
                self._delivered_up_to < self._max_seq_seen or self._pending_rtr
            ):
                # Cadence certificate: issued *after* this visit's
                # frames were scheduled, so its signature occupies our
                # CPU while the token already rotates on — signing
                # leaves the ring's critical path.  An idle ring (all
                # delivered) defers until there is work to vouch; the
                # overdue counter then certifies on the next busy visit.
                self._issue_certificate("cadence")

    def _send_new_messages(self):
        digest_list = []
        seqs = self._seqs
        budget = self.config.max_messages_per_token_visit
        while self._send_queue and budget > 0:
            entry = self._send_queue.popleft()
            dest_group, payload, frag, trace_ctx = entry
            seq = self._max_seq_seen + 1
            record = seqs.get(seq) or seqs.setdefault(seq, SeqRecord())
            record.originated = entry
            if trace_ctx is not None:
                self._tracer.copy_sent(trace_ctx, self.my_id, seq)
            if frag is None:
                message = RegularMessage(
                    self.my_id, self.ring_id, seq, dest_group, payload
                )
            else:
                frag_id, frag_index, frag_total = frag
                message = MessageFragment(
                    self.my_id,
                    self.ring_id,
                    seq,
                    dest_group,
                    frag_id,
                    frag_index,
                    frag_total,
                    payload,
                )
                self.stats["fragments_sent"] += 1
            raw = message.encode()
            self.processor.charge(
                self.config.message_handling_cost, "multicast.send", priority=True
            )
            if self._digests:
                # indexed with the token that carries it
                digest_list.append((seq, self.signing.digest(raw)))
            self._outgoing_frames.append(raw)
            record.variants += (raw,)
            self._max_seq_seen = seq
            self.stats["sent"] += 1
            budget -= 1
        return digest_list

    def _service_retransmissions(self, rtr_in):
        rtg = []
        covering_visits = set()
        for seq in sorted(rtr_in):
            record = self._seqs.get(seq)
            if record is None or not record.variants:
                # Never received, discarded, or delivered and garbage
                # collected: leave it for someone who still holds it.
                continue
            for raw in record.variants:
                self._outgoing_frames.append(raw)
                self.stats["retransmits"] += 1
            visit = record.visit
            if visit is not None:
                covering_visits.add(visit)
            rtg.append(seq)
            if self._tracer is not None:
                # The servicing holder need not be the originator: any
                # processor still holding the bytes resends them.
                self._tracer.retransmitted(seq, self.my_id)
        # A requester that missed the covering token cannot verify or
        # deliver the message: resend those tokens alongside.
        for visit in sorted(covering_visits):
            raw = self._held(visit)
            if raw is not None:
                self._outgoing_frames.append(raw)
        if self._batch and covering_visits and self._last_cert_raw:
            # A resent token is useless to the requester until some
            # certificate vouches it: re-offer our latest span.
            self._outgoing_frames.append(self._last_cert_raw)
        return rtg

    def _missing_seqs(self):
        """Sequence numbers we cannot deliver yet and must ask for.

        A message is requested both when its bytes were never received
        *and* when the bytes are here but the token carrying its digest
        was missed — in that case the servicing holder resends the
        covering token, without which the message can never be verified
        or delivered.
        """
        missing = set()
        seqs = self._seqs
        digests_needed = self._digests
        for seq in range(self._delivered_up_to + 1, self._max_seq_seen + 1):
            record = seqs.get(seq)
            if record is None or not record.variants:
                missing.add(seq)
            elif digests_needed and record.digest is None:
                missing.add(seq)
        return missing

    def _update_aru(self, previous):
        coverage = self._delivered_up_to
        if previous is None:
            return coverage, Token.NO_ARU_ID
        aru, aru_id = previous.aru, previous.aru_id
        if coverage < aru:
            return coverage, self.my_id
        if aru_id == self.my_id or aru_id == Token.NO_ARU_ID:
            if coverage < self._max_seq_seen:
                return coverage, self.my_id
            return coverage, Token.NO_ARU_ID
        return aru, aru_id

    def _track_aru_stall(self, aru_id, aru):
        """Suspect a processor whose aru pins the ring (receive omission):
        a token names ``aru_id`` as holding the aru at ``aru``, below its
        seq."""
        key = (aru_id, aru)
        if key == self._stall_key:
            self._stall_rotations += 1
            window = self.config.aru_stall_rotations * max(len(self.members), 1)
            if self._stall_rotations >= window:
                self.detector.suspect(aru_id, "fail_to_ack")
        else:
            self._stall_key = key
            self._stall_rotations = 1

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def _advance_delivery(self):
        advanced = False
        while True:
            if self._ceiling is not None and self._delivered_up_to >= self._ceiling:
                break
            seq = self._delivered_up_to + 1
            record = self._seqs.get(seq)
            if record is None or not record.variants:
                break
            raw = self._select_deliverable(seq, record)
            if raw is None:
                break
            try:
                message = decode_frame_shared(raw)
            except MulticastCodecError:
                # Stored bytes fail to parse (corrupted without digests):
                # discard and let retransmission repair it.
                record.variants = ()
                self._pending_rtr.add(seq)
                break
            self._delivered_up_to = seq
            record.originated = None
            advanced = True
            self.stats["delivered"] += 1
            if self._forensics is not None:
                self._forensics.record(
                    "delivery_commit",
                    commit_seq=seq,
                    sender=message.sender_id,
                    group=message.dest_group,
                )
            if self._tracer is not None:
                self._tracer.delivered(seq, message.sender_id, record.visit)
            self.processor.charge(
                self.config.message_handling_cost, "multicast.deliver", priority=True
            )
            if isinstance(message, MessageFragment):
                payload = self._reassemble(message)
            else:
                payload = message.payload
            if self._trace is not None:
                self._trace.record(
                    "multicast.deliver",
                    proc=self.my_id,
                    ring=self.ring_id,
                    seq=seq,
                    sender=message.sender_id,
                    group=message.dest_group,
                    digest=self._digest_of(raw),
                    # what is handed up, if anything (a fragment but the
                    # last hands up nothing)
                    payload=None if payload is None else self._digest_of(payload),
                )
            if payload is not None:
                self.deliver_cb(message.sender_id, seq, message.dest_group, payload)
        if advanced and self.coverage_listener is not None:
            self.coverage_listener()

    def _reassemble(self, message):
        """Buffer one ordered fragment; the joined payload on the last one.

        Total order per sender guarantees index order, so the
        reassembled payload is handed up with the final fragment's
        sequence number — the point at which every chunk has committed.
        Returns None while chunks are outstanding.
        """
        key = (message.sender_id, message.frag_id)
        entry = self._reassembly.get(key)
        if entry is None:
            entry = self._reassembly[key] = {
                "total": message.frag_total,
                "chunks": {},
            }
        if (
            message.frag_total != entry["total"]
            or message.frag_index >= entry["total"]
        ):
            return None  # inconsistent fragmentation metadata: drop the chunk
        entry["chunks"][message.frag_index] = message.payload
        if len(entry["chunks"]) < entry["total"]:
            return None
        del self._reassembly[key]
        if self._tracer is not None:
            self._tracer.reassembled(message.seq, message.sender_id)
        return b"".join(entry["chunks"][i] for i in range(entry["total"]))

    def _select_deliverable(self, seq, record):
        """Pick the variant to deliver, honouring the security level."""
        variants = record.variants
        if not self._digests:
            return variants[0]
        digest = record.digest
        if digest is None:
            return None  # no accepted token covers this seq yet
        if self._batch and record.visit > self._auth_visit:
            # Pipelined: ordering has run ahead of authentication;
            # delivery waits for a certificate to settle the covering
            # token visit.
            return None
        token_sender = record.sender
        for raw in variants:
            if self.signing.digest(raw) != digest:
                continue
            try:
                message = decode_frame_shared(raw)
            except MulticastCodecError:
                continue
            if not isinstance(message, (RegularMessage, MessageFragment)):
                continue
            if message.sender_id != token_sender:
                # Masquerade: digest matches but the claimed sender is
                # not the token holder that originated this seq.
                continue
            return raw
        # Every variant failed the digest check: corrupted or mutant.
        record.variants = ()
        self._pending_rtr.add(seq)
        self.stats["digest_discards"] += 1
        if self._forensics is not None:
            self._forensics.record(
                "digest_mismatch",
                scope="message",
                mismatch_seq=seq,
                expected_digest=digest,
                token_sender=token_sender,
                variants=len(variants),
            )
        return None

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------

    def _collect_garbage(self, token_aru):
        """Drop messages every member has and this one has delivered."""
        arus = self._recent_arus
        arus.append(token_aru)
        low = self._collected_up_to
        if token_aru <= low or len(arus) < arus.maxlen:
            # Nothing newly acknowledged (the window's minimum cannot
            # exceed its newest entry), or no full rotation seen yet.
            return
        bound = min(min(arus), self._delivered_up_to)
        if bound <= low:
            return
        self._collected_up_to = bound
        _drop_below(self._seqs, low + 1, bound + 1)

    def _rebroadcast_evidence(self, visit):
        raw = self._held(visit)
        if raw is not None:
            self.network.broadcast(self.my_id, MULTICAST_PORT, raw)

    # ------------------------------------------------------------------
    # progress timer (token loss and fail-to-send detection)
    # ------------------------------------------------------------------

    def _reset_progress_timer(self):
        timer = self._progress_timer
        if not self.active or not self.circulating:
            if timer is not None:
                timer.cancel()
        elif timer is None:
            self._progress_timer = self.scheduler.after(
                self.config.token_rotation_timeout,
                self._on_progress_timeout,
                priority=self.scheduler.PRIORITY_TIMER,
                label="token.timeout",
            )
        else:
            self._progress_timer = self.scheduler.reschedule(
                timer, self.config.token_rotation_timeout
            )

    def _on_progress_timeout(self):
        if not self.active or not self.circulating or self.processor.crashed:
            return
        self._strikes += 1
        newest = self._last_accepted
        if (
            newest is not None
            and newest.sender_id == self.my_id
            and self._strikes <= self.config.token_retransmit_limit
        ):
            # We hold the most recent token: retransmit it in case it
            # was lost on its way to the successor.
            if self._forensics is not None:
                self._forensics.record(
                    "token_regenerate", visit=newest.visit, strike=self._strikes
                )
            self.network.broadcast(self.my_id, MULTICAST_PORT, self._last_accepted_raw)
            if self._batch and self._last_cert_raw:
                # The successor may be stalled on authentication, not
                # on the token: re-offer our latest certificate too.
                self.network.broadcast(self.my_id, MULTICAST_PORT, self._last_cert_raw)
            self._reset_progress_timer()
            return
        if self._strikes <= self.config.token_retransmit_limit:
            self._reset_progress_timer()
            return
        blamed = newest.successor if newest is not None else self.members[0]
        if blamed == self.my_id:
            # We are the stalled holder (e.g. our origination raced a
            # suspension); try again rather than suspecting ourselves.
            self._reset_progress_timer()
            self._schedule_origination("token.reoriginate")
            return
        self.detector.suspect(blamed, "fail_to_send")
