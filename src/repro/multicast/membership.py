"""The processor membership protocol.

Reconfigures the system when processors exhibit faults (paper section
7.2).  The protocol proceeds in signed proposal rounds:

1. A processor whose Byzantine fault detector reports a new suspect —
   or that receives another member's proposal — suspends regular token
   circulation, freezes its delivery coverage, and broadcasts a signed
   :class:`~repro.multicast.messages.MembershipProposal` naming the
   membership it is willing to install, its frozen coverage, and its
   suspect list.
2. Each member excludes from its candidate set every processor it
   suspects locally, plus every processor accused by at least ``f+1``
   distinct proposers (``f = ⌊(n-1)/3⌋``), so a single Byzantine
   accuser cannot evict a correct member, while provable faults —
   observed by every correct member — converge in one round.
3. When matching proposals of the current round have been received
   from *every* member of the candidate set, each member broadcasts a
   :class:`~repro.multicast.messages.MembershipCommit` bundling the
   signed proposals as self-certifying evidence; members whose own
   proposal traffic was lost can verify a bundle independently and
   still install the identical membership with the identical ring id
   (``old_ring_id + round_number``) — the uniqueness and total order
   properties of Table 4.
4. Before installing, the members agree on a *delivery cut* (the
   maximum frozen coverage among the survivors); members at the cut
   rebroadcast the messages and covering tokens others are missing,
   and each member installs only once its own coverage reaches the
   cut.  Every message delivered in the old membership by any correct
   member is thus delivered by all of them before the change — the
   flush behind Table 2's reliable delivery property.  What a survivor
   had sequenced above the cut was delivered by nobody; it sends it
   again on the new ring.  An excluded sender's messages above the cut
   are dropped everywhere, the sender's own copy included.
5. Members that stay silent for a whole round are suspected as
   ``unresponsive`` and the round restarts without them; candidate
   sets shrink monotonically, so reconfiguration terminates (given the
   detector properties of Table 5, exactly as the paper states).

After installing, a member keeps the commit evidence and the recovery
frames for its previous ring and replays them whenever it sees a
straggler still proposing in that ring.
"""

from repro.multicast.messages import (
    MULTICAST_PORT,
    JoinRequest,
    MembershipCommit,
    MembershipProposal,
    MulticastCodecError,
)

STATE_STABLE = "stable"
STATE_RECONFIG = "reconfig"
STATE_HALTED = "halted"


class MembershipEngine:
    """One processor's instance of the processor membership protocol."""

    def __init__(
        self,
        processor,
        scheduler,
        network,
        signing,
        config,
        detector,
        delivery,
        install_cb,
        trace=None,
        obs=None,
    ):
        self.processor = processor
        self.scheduler = scheduler
        self.network = network
        self.signing = signing
        self.config = config
        self.detector = detector
        self.delivery = delivery
        self.install_cb = install_cb
        self._trace = trace

        self.my_id = processor.proc_id
        self.state = STATE_STABLE
        self.members = ()
        self.ring_id = 0
        #: [(ring_id, members)] in installation order (for property checks)
        self.installed_history = []

        self._round = 0
        self._proposals = {}
        self._proposal_raw = {}
        self._round_timer = None
        self._silent_rounds = {}
        #: accuser -> set of suspects, accumulated over every proposal
        #: seen during this reconfiguration (persists across rounds so
        #: the f+1 accusation rule can converge)
        self._accusations = {}
        #: rounds a member may stay silent before being suspected
        self.silent_round_limit = 3
        #: from this round on, a single accuser suffices to exclude —
        #: favouring liveness: without escalation, one member's
        #: permanent local suspicion of a processor the others do not
        #: suspect blocks unanimity forever
        self.escalation_round = 4
        self._agreed_candidate = None
        self._agreed_cut = None
        #: old_ring_id -> (commit frame, recovery frames) for stragglers
        self._evidence = {}
        #: proc_id -> last valid JoinRequest time (candidates to admit)
        self._join_candidates = {}
        #: True while this processor is trying to (re)join a membership
        self.joining = False
        self._join_timer = None
        #: join requests older than this are ignored (replay ageing)
        self.join_request_window = 2.0

        #: when the current reconfiguration began (for duration metrics)
        self._reconfig_started_at = None
        self.stats = {"reconfigurations": 0, "installs": 0, "rounds": 0}
        self._m_reconfig_seconds = None
        self._forensics = obs.recorder(self.my_id) if obs is not None else None
        if obs is not None:
            pid = self.my_id
            obs.registry.derive_counters(
                self.stats, {key: "membership." + key for key in self.stats}, proc=pid
            )
            self._m_reconfig_seconds = obs.registry.histogram(
                "membership.reconfig_seconds", proc=pid
            )

        detector.on_change(self._on_suspicion)
        delivery.coverage_listener = self.notify_coverage

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, members, ring_id=1):
        """Install the initial membership (system bootstrap)."""
        self._install(tuple(sorted(members)), ring_id, cut=0)

    # ------------------------------------------------------------------
    # (re)joining: full eventual inclusion
    # ------------------------------------------------------------------

    def request_join(self):
        """Start (re)joining the membership after repair or exclusion.

        The processor broadcasts signed join requests until some member
        opens a reconfiguration that includes it; it then participates
        in that round with the ``joining`` flag set (so the delivery
        cut ignores its empty coverage) and installs the agreed
        membership like everyone else.
        """
        self.joining = True
        self.state = STATE_RECONFIG
        self._reconfig_started_at = self.scheduler.now
        if self._forensics is not None:
            self._forensics.record("reconfig_begin", joining=True)
        self.delivery.suspend()
        self.delivery.drop_originated()
        self._round = 0
        self._silent_rounds = {}
        self._accusations = {}
        self._reset_negotiation_state()
        self._broadcast_join_request()

    def _broadcast_join_request(self):
        if not self.joining or self.processor.crashed:
            return
        request = JoinRequest(self.my_id, self.scheduler.now)
        if self.config.security.signatures_enabled:
            request.signature = self.signing.sign(request.signable_bytes())
        self.network.broadcast(self.my_id, MULTICAST_PORT, request.encode())
        self._join_timer = self.scheduler.after(
            self.config.membership_round_timeout,
            self._broadcast_join_request,
            label="membership.join-retry",
        )

    def on_join_request(self, request, raw):
        """A non-member asks to be admitted."""
        if self.state == STATE_HALTED or self.joining:
            return
        if request.proc_id == self.my_id or request.proc_id in self.members:
            return
        if self.config.security.signatures_enabled and not self.signing.verify(
            request.proc_id, request.signable_bytes(), request.signature
        ):
            return
        if abs(self.scheduler.now - request.request_time) > self.join_request_window:
            return  # stale replay
        if not self.detector.clear_exclusion(request.proc_id):
            if self._trace is not None:
                self._trace.record(
                    "membership.join_refused",
                    proc=self.my_id,
                    joiner=request.proc_id,
                )
            return  # convicted Byzantine processors stay out
        self._join_candidates[request.proc_id] = self.scheduler.now
        if self._forensics is not None:
            self._forensics.record("membership_join", joiner=request.proc_id)
        if self.state == STATE_STABLE:
            self._begin_reconfiguration()

    # ------------------------------------------------------------------
    # suspicion handling
    # ------------------------------------------------------------------

    def _on_suspicion(self, proc_id, reason):
        if self.state == STATE_HALTED or proc_id not in self.members:
            return
        if self.state == STATE_STABLE:
            self._begin_reconfiguration()
        elif self._agreed_candidate is None:
            # Fold the new suspicion into the ongoing negotiation; once
            # agreement is reached the install proceeds and a new
            # reconfiguration will start afterwards if needed.
            self._advance_round(self._round + 1)

    def _begin_reconfiguration(self, propose=True):
        self.state = STATE_RECONFIG
        self._reconfig_started_at = self.scheduler.now
        if self._forensics is not None:
            self._forensics.record(
                "reconfig_begin",
                joining=False,
                suspects=sorted(self.detector.suspects() & set(self.members)),
            )
        self.stats["reconfigurations"] += 1
        self.stats["rounds"] += 1
        self.delivery.suspend()
        self.delivery.freeze_delivery()
        self._round = 1
        self._silent_rounds = {}
        self._accusations = {}
        self._reset_negotiation_state()
        if propose:
            self._broadcast_proposal()
        self._reset_round_timer()

    def _reset_negotiation_state(self):
        self._proposals = {}
        self._proposal_raw = {}
        self._agreed_candidate = None
        self._agreed_cut = None

    # ------------------------------------------------------------------
    # proposals
    # ------------------------------------------------------------------

    def _fresh_join_candidates(self):
        horizon = self.scheduler.now - 3 * self.config.membership_round_timeout
        local = self.detector.suspects()
        return {
            pid
            for pid, seen in self._join_candidates.items()
            if seen >= horizon and pid not in local
        }

    def _candidate_set(self):
        if self.joining:
            # A joiner works from the candidate set it adopted; it has
            # no history of its own to add.
            return tuple(sorted(set(self.members) | {self.my_id}))
        counts = {}
        for accuser, suspects in self._accusations.items():
            for suspect in suspects:
                counts[suspect] = counts.get(suspect, 0) + 1
        f = (len(self.members) - 1) // 3
        needed = 1 if self._round >= self.escalation_round else f + 1
        local = self.detector.suspects()
        excluded = {
            pid
            for pid in self.members
            if pid != self.my_id
            and (pid in local or counts.get(pid, 0) >= needed)
        }
        candidate = (set(self.members) | self._fresh_join_candidates()) - excluded
        return tuple(sorted(candidate))

    def _broadcast_proposal(self):
        candidate = self._candidate_set()
        proposal = MembershipProposal(
            proposer=self.my_id,
            old_ring_id=self.ring_id,
            round_number=self._round,
            candidate_set=candidate,
            have_contiguous=0 if self.joining else self.delivery.deliverable_coverage(),
            suspects=sorted(self.detector.suspects() & set(self.members)),
            joining=self.joining,
        )
        if self.config.security.signatures_enabled:
            proposal.signature = self.signing.sign(proposal.signable_bytes())
        raw = proposal.encode()
        self._proposals[self.my_id] = proposal
        self._proposal_raw[self.my_id] = raw
        self.network.broadcast(self.my_id, MULTICAST_PORT, raw)

    def on_proposal(self, proposal, raw):
        """Entry point for proposals received from the network."""
        if self.state == STATE_HALTED:
            return
        if (
            self.joining
            and proposal.old_ring_id != self.ring_id
            and self.my_id in proposal.candidate_set
        ):
            self._adopt_ring_context(proposal, raw)
            return
        if proposal.old_ring_id != self.ring_id:
            # A straggler still negotiating a ring we have moved past:
            # replay the evidence that lets it catch up.
            evidence = self._evidence.get(proposal.old_ring_id)
            if evidence is not None:
                commit_raw, recovery = evidence
                self.network.broadcast(self.my_id, MULTICAST_PORT, commit_raw)
                for frame in recovery:
                    self.network.broadcast(self.my_id, MULTICAST_PORT, frame)
            return
        if (
            proposal.proposer not in self.members
            and proposal.proposer not in self._join_candidates
        ):
            return
        if self.config.security.signatures_enabled and not self.signing.verify(
            proposal.proposer, proposal.signable_bytes(), proposal.signature
        ):
            return
        if self.state == STATE_STABLE:
            self._begin_reconfiguration()
        if proposal.round_number >= self._round:
            # A current (not replayed) proposal proves the proposer is
            # alive: clear any transient timeout-based suspicion of it.
            self.detector.absolve(proposal.proposer)
        if proposal.round_number > self._round:
            self._advance_round(proposal.round_number)
        if proposal.round_number != self._round:
            return  # stale round
        stored_raw = self._proposal_raw.get(proposal.proposer)
        if stored_raw is not None:
            if stored_raw != raw and proposal.proposer != self.my_id:
                # Two different signed proposals for the same round: the
                # proposer equivocated.  Publish our copy so every
                # correct member converges on the same provable proof.
                self.detector.suspect(proposal.proposer, "mutant_proposal")
                self.network.broadcast(self.my_id, MULTICAST_PORT, stored_raw)
            return
        self._record_accusations(proposal)
        self._proposals[proposal.proposer] = proposal
        self._proposal_raw[proposal.proposer] = raw
        self._check_agreement()

    def _record_accusations(self, proposal):
        # The proposer's *latest* view replaces its earlier one, so an
        # accusation it has since withdrawn (transient suspicion that
        # was absolved) stops counting.
        self._accusations[proposal.proposer] = set(proposal.suspects)

    def _adopt_ring_context(self, proposal, raw):
        """A joiner latches onto the reconfiguration that includes it."""
        if self.config.security.signatures_enabled and not self.signing.verify(
            proposal.proposer, proposal.signable_bytes(), proposal.signature
        ):
            return
        self.ring_id = proposal.old_ring_id
        self.members = tuple(sorted(set(proposal.candidate_set) | {self.my_id}))
        self._round = proposal.round_number
        self._reset_negotiation_state()
        self._broadcast_proposal()
        self._record_accusations(proposal)
        self._proposals[proposal.proposer] = proposal
        self._proposal_raw[proposal.proposer] = raw
        self._reset_round_timer()
        self._check_agreement()

    def _advance_round(self, new_round):
        if self._agreed_candidate is not None:
            return  # agreement reached; finish the install instead
        self.stats["rounds"] += 1
        self._round = new_round
        self._reset_negotiation_state()
        self._broadcast_proposal()
        self._reset_round_timer()
        self._check_agreement()

    # ------------------------------------------------------------------
    # agreement, commit, and recovery
    # ------------------------------------------------------------------

    def _check_agreement(self):
        if self.state != STATE_RECONFIG or self._agreed_candidate is not None:
            return
        candidate = self._candidate_set()
        if self.my_id not in candidate:
            self._halt()
            return
        mine = self._proposals.get(self.my_id)
        if mine is None or mine.candidate_set != candidate:
            # Our broadcast proposal is stale relative to the
            # accusations we have since accumulated.  Do NOT advance
            # the round here: round advancement is paced by the round
            # timer (and by new local suspicions), otherwise two
            # members with unstable views escalate rounds at network
            # speed instead of converging.
            return
        for member in candidate:
            proposal = self._proposals.get(member)
            if proposal is None or proposal.candidate_set != candidate:
                return  # not yet unanimous
        self._complete_agreement(candidate)

    def _complete_agreement(self, candidate, adopted_commit_raw=None):
        self._agreed_candidate = tuple(sorted(candidate))
        # Joining members carry no old-ring delivery obligations; the
        # cut covers only the members that were in the old membership.
        veterans = [m for m in candidate if not self._proposals[m].joining]
        cut = max(
            (self._proposals[m].have_contiguous for m in veterans), default=0
        )
        self._agreed_cut = cut
        if self.ring_id not in self._evidence:
            if adopted_commit_raw is not None:
                commit_raw = adopted_commit_raw
            else:
                commit = MembershipCommit(
                    self.my_id,
                    self.ring_id,
                    self._round,
                    [self._proposal_raw[m] for m in self._agreed_candidate],
                )
                commit_raw = commit.encode()
                self.network.broadcast(self.my_id, MULTICAST_PORT, commit_raw)
            # Members at the cut publish the messages (and covering
            # tokens) the others are missing; every agreeing member —
            # originator or commit adopter — stores the evidence so it
            # can replay it to stragglers after installing.
            low = min(
                (self._proposals[m].have_contiguous for m in veterans), default=0
            )
            recovery = (
                self.delivery.recovery_frames(low)
                if not self.joining
                and self.delivery.deliverable_coverage() >= cut
                and low < cut
                else []
            )
            self._evidence[self.ring_id] = (commit_raw, recovery)
            for frame in recovery:
                self.network.broadcast(self.my_id, MULTICAST_PORT, frame)
        self.delivery.raise_ceiling(cut)
        self.notify_coverage()

    def notify_coverage(self):
        """Finish the install once recovery brings us to the agreed cut."""
        if self.state != STATE_RECONFIG or self._agreed_cut is None:
            return
        if self.joining or self.delivery.deliverable_coverage() >= self._agreed_cut:
            # A joiner has no old-ring obligations: it installs at the
            # cut directly and starts delivering from there.
            self._install(
                self._agreed_candidate, self.ring_id + self._round, self._agreed_cut
            )

    def on_commit(self, commit, raw):
        """Adopt a commit bundle (possibly as a straggler)."""
        if self.state == STATE_HALTED or commit.old_ring_id != self.ring_id:
            return
        if self._agreed_candidate is not None:
            return  # already agreed; finishing recovery
        try:
            pairs = commit.proposals()
        except MulticastCodecError:
            return
        if not pairs:
            return
        candidate = None
        proposals = {}
        frames = {}
        for proposal, frame in pairs:
            if proposal.old_ring_id != commit.old_ring_id:
                return
            if proposal.round_number != commit.round_number:
                return
            if self.config.security.signatures_enabled and not self.signing.verify(
                proposal.proposer, proposal.signable_bytes(), proposal.signature
            ):
                return
            if candidate is None:
                candidate = proposal.candidate_set
            elif proposal.candidate_set != candidate:
                return
            proposals[proposal.proposer] = proposal
            frames[proposal.proposer] = frame
        if candidate is None or set(proposals) != set(candidate):
            return
        if self.my_id not in candidate:
            self._halt()
            return
        if self.state == STATE_STABLE:
            self._begin_reconfiguration(propose=False)
        self._round = commit.round_number
        self._proposals = proposals
        self._proposal_raw = frames
        self._complete_agreement(candidate, adopted_commit_raw=raw)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _install(self, candidate, new_ring_id, cut):
        excluded = tuple(sorted(set(self.members) - set(candidate)))
        self.members = tuple(sorted(candidate))
        if self.joining:
            self.joining = False
            if self._join_timer is not None:
                self._join_timer.cancel()
                self._join_timer = None
        for pid in candidate:
            self._join_candidates.pop(pid, None)
            if pid != self.my_id:
                # Installing a membership that includes pid is the
                # system's decision that it is currently correct: clear
                # stale timeout/exclusion marks (a rejoined processor
                # may hold them against the members from its outage).
                self.detector.clear_exclusion(pid)
        for pid in excluded:
            # The agreed (evidence-backed) exclusion becomes a permanent
            # local suspicion at every installing member, so that Table
            # 5's eventual strong completeness holds at processors that
            # learned of the fault only through the agreement, and an
            # excluded processor can never be proposed back in.
            self.detector.suspect(pid, "excluded")
        self.ring_id = new_ring_id
        self.state = STATE_STABLE
        self._cancel_round_timer()
        self._silent_rounds = {}
        self._accusations = {}
        self._reset_negotiation_state()
        self.installed_history.append((new_ring_id, self.members))
        self.stats["installs"] += 1
        started = self._reconfig_started_at
        if self._m_reconfig_seconds is not None and started is not None:
            self._m_reconfig_seconds.observe(self.scheduler.now - started)
        self._reconfig_started_at = None
        if self._forensics is not None:
            self._forensics.set_context(ring=new_ring_id, seq=cut)
            self._forensics.record(
                "membership_install",
                members=self.members,
                excluded=excluded,
                cut=cut,
            )
        if self._trace is not None:
            self._trace.record(
                "membership.install",
                proc=self.my_id,
                ring=new_ring_id,
                members=self.members,
                excluded=excluded,
                cut=cut,
            )
        self.delivery.start_ring(self.members, new_ring_id, cut)
        self.install_cb(new_ring_id, self.members, excluded)

    def _halt(self):
        """We were excluded: stop participating entirely.

        Self-inclusion (Table 4): a correct processor never installs a
        membership that excludes itself, so an excluded processor stops
        rather than installing.
        """
        self.state = STATE_HALTED
        self._reconfig_started_at = None
        if self._forensics is not None:
            self._forensics.record("membership_halt")
        self._cancel_round_timer()
        self.delivery.suspend()

    # ------------------------------------------------------------------
    # round timer
    # ------------------------------------------------------------------

    def _reset_round_timer(self):
        timeout = self.config.membership_round_timeout
        if self._round_timer is None:
            self._round_timer = self.scheduler.after(
                timeout,
                self._on_round_timeout,
                priority=self.scheduler.PRIORITY_TIMER,
                label="membership.round-timeout",
            )
        else:
            self._round_timer = self.scheduler.reschedule(self._round_timer, timeout)

    def _cancel_round_timer(self):
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    def _on_round_timeout(self):
        if self.state != STATE_RECONFIG or self.processor.crashed:
            return
        if self._agreed_cut is not None:
            # Agreement reached but recovery stalled (lost frames):
            # re-publish the evidence and recovery material.
            evidence = self._evidence.get(self.ring_id)
            if evidence is not None:
                commit_raw, recovery = evidence
                self.network.broadcast(self.my_id, MULTICAST_PORT, commit_raw)
                for frame in recovery:
                    self.network.broadcast(self.my_id, MULTICAST_PORT, frame)
            # Also re-publish our proposal so cut-holders resend to us.
            raw = self._proposal_raw.get(self.my_id)
            if raw is not None:
                self.network.broadcast(self.my_id, MULTICAST_PORT, raw)
            self._reset_round_timer()
            return
        candidate = self._candidate_set()
        silent = [m for m in candidate if m not in self._proposals and m != self.my_id]
        for member in candidate:
            if member in self._proposals:
                self._silent_rounds.pop(member, None)
        for member in silent:
            strikes = self._silent_rounds.get(member, 0) + 1
            self._silent_rounds[member] = strikes
            if strikes >= self.silent_round_limit:
                self.detector.suspect(member, "unresponsive")
        # Restart the round: either without the silent members, or to
        # re-trigger lost proposal traffic.
        self._advance_round(self._round + 1)
