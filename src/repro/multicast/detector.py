"""The Byzantine fault detector.

Section 7.3 of the paper: the detector monitors the messages of the
delivery and membership protocols and outputs a list of processors
currently suspected of being faulty.  The concrete fault instances it
recognises, and where each is reported from, are:

* ``fail_to_send`` — the processor holding the token failed to forward
  it (token-progress timeout in the delivery protocol);
* ``fail_to_ack`` — the processor repeatedly failed to acknowledge
  messages: its aru pinned the ring's aru for too many rotations;
* ``mutant_token`` — two validly-signed tokens for the same visit with
  different contents (direct observation, or after evidence exchange
  triggered by a broken previous-token-digest chain);
* ``malformed_token`` — a validly-signed but improperly formed token;
* ``value_fault`` — notification from the Replication Manager's value
  fault detector via a Value_Fault_Suspect message (paper section 6.2);
* ``unresponsive`` — no proposal during a membership round (membership
  protocol timeout).

Suspicions are *permanent* (eventual exclusion in Table 4 requires
that an excluded processor is never re-admitted), and are classified as
*provable* (backed by signed evidence or by the deterministic voting
agreement) or *local* (timeout-based).  The membership engine treats
them differently when merging other processors' accusations.
"""

PROVABLE_REASONS = frozenset(
    {"mutant_token", "mutant_proposal", "malformed_token", "value_fault", "excluded"}
)


class Suspicion:
    """Why one processor is suspected."""

    __slots__ = ("proc_id", "reasons", "first_time")

    def __init__(self, proc_id, reason, time):
        self.proc_id = proc_id
        self.reasons = {reason}
        self.first_time = time

    @property
    def provable(self):
        return bool(self.reasons & PROVABLE_REASONS)

    def __repr__(self):
        return "Suspicion(P%d: %s)" % (self.proc_id, ",".join(sorted(self.reasons)))


class ByzantineFaultDetector:
    """Per-processor suspicion state feeding the membership protocol."""

    def __init__(self, my_id, scheduler, trace=None, obs=None):
        self.my_id = my_id
        self.scheduler = scheduler
        self._trace = trace
        self._obs = obs
        self._forensics = obs.recorder(my_id) if obs is not None else None
        self._suspicions = {}
        self._listeners = []
        #: timeout-suspicion episodes per processor: "repeatedly fails"
        #: (paper Table 1) escalates transient suspicion to permanent
        self._episodes = {}
        self.episode_limit = 3

    def on_change(self, listener):
        """Register ``listener(proc_id, reason)`` for new suspicions."""
        self._listeners.append(listener)

    def suspect(self, proc_id, reason):
        """Record a suspicion; no-op for self or already-known reasons."""
        if proc_id == self.my_id:
            return
        existing = self._suspicions.get(proc_id)
        is_new_processor = existing is None
        if existing is None:
            self._suspicions[proc_id] = Suspicion(proc_id, reason, self.scheduler.now)
        elif reason in existing.reasons:
            return
        else:
            existing.reasons.add(reason)
        if reason not in PROVABLE_REASONS:
            self._episodes[proc_id] = self._episodes.get(proc_id, 0) + 1
        if self._obs is not None:
            self._obs.registry.counter(
                "detector.suspicions", proc=self.my_id, reason=reason
            ).inc()
        if self._forensics is not None:
            self._forensics.record(
                "suspect",
                suspect=proc_id,
                reason=reason,
                provable=reason in PROVABLE_REASONS,
                new=is_new_processor,
            )
        if self._trace is not None:
            self._trace.record(
                "detector.suspect",
                observer=self.my_id,
                suspect=proc_id,
                reason=reason,
                new=is_new_processor,
            )
        for listener in list(self._listeners):
            listener(proc_id, reason)

    def absolve(self, proc_id):
        """Clear *transient* (timeout-based) suspicion of ``proc_id``.

        Called when the suspect demonstrates liveness — a validly
        signed token or membership proposal arrives from it.  Provable
        Byzantine evidence (mutant tokens, value faults) is permanent:
        eventual strong completeness requires that a processor that
        exhibited such a fault stays suspected forever.  Timeout-based
        suspicion, in contrast, is an ambiguous observation (a lost
        token and a silent holder look identical), and clearing it when
        the processor turns out to be alive is what makes eventual
        strong *accuracy* and eventual inclusion of correct processors
        hold under transient message loss.
        """
        suspicion = self._suspicions.get(proc_id)
        if suspicion is None:
            return
        if self._episodes.get(proc_id, 0) >= self.episode_limit:
            return  # "repeatedly fails": escalated to permanent
        transient = suspicion.reasons - PROVABLE_REASONS
        if not transient:
            return
        suspicion.reasons -= transient
        fully = not suspicion.reasons
        if fully:
            del self._suspicions[proc_id]
        if self._obs is not None:
            self._obs.registry.counter("detector.absolved", proc=self.my_id).inc()
        if self._forensics is not None:
            self._forensics.record(
                "absolve",
                suspect=proc_id,
                cleared=tuple(sorted(transient)),
                fully=fully,
            )
        if self._trace is not None:
            self._trace.record(
                "detector.absolve",
                observer=self.my_id,
                suspect=proc_id,
                cleared=tuple(sorted(transient)),
                fully=fully,
            )

    def clear_exclusion(self, proc_id):
        """Forgive an ``excluded``-only suspicion for a rejoin attempt.

        A processor evicted on *timeout* grounds (crash, outage) may
        later come back repaired; its only provable mark is the
        agreement-derived ``excluded``.  Real Byzantine evidence
        (mutant tokens, value faults, malformed tokens) is never
        cleared — a convicted intruder stays out.  Returns True if the
        processor is now unsuspected.
        """
        suspicion = self._suspicions.get(proc_id)
        if suspicion is None:
            return True
        hard_evidence = suspicion.reasons & (PROVABLE_REASONS - {"excluded"})
        if hard_evidence:
            return False
        del self._suspicions[proc_id]
        self._episodes.pop(proc_id, None)
        return True

    def value_fault_suspect(self, proc_id):
        """Entry point for the Replication Manager's Value_Fault_Suspect
        notification (never transmitted on the network)."""
        if self._forensics is not None:
            self._forensics.record("value_fault_suspect", suspect=proc_id)
        self.suspect(proc_id, "value_fault")

    def is_suspected(self, proc_id):
        return proc_id in self._suspicions

    def suspects(self):
        """Current suspect set (the detector's output list)."""
        return set(self._suspicions)

    def provable_suspects(self):
        return {pid for pid, s in self._suspicions.items() if s.provable}

    def reasons_for(self, proc_id):
        suspicion = self._suspicions.get(proc_id)
        return set() if suspicion is None else set(suspicion.reasons)
