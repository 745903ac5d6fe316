"""Majority voting on invocations and responses (paper section 6.1).

One :class:`Voter` serves each object group hosted locally: ``V_I`` for
invocations arriving at a server replica, ``V_R`` for responses
arriving at a client replica — both are instances of the same
algorithm, differing only in which direction they face.

For each operation identifier the voter tallies the *distinct* sending
replicas behind each value (values compared by digest of the normalised
frame).  When some value accumulates ``ceil((r+1)/2)`` distinct senders
— a majority of the source group's ``r`` replicas, learned from the
base group — the voter produces that single value for delivery, and
reports every sender whose copy differed as a value-fault candidate.
Copies arriving after the decision are discarded (duplicates) or
reported (late divergent values).  Only copies from current members of
the source group count toward a majority, and a decided operation's
record is kept until every replica has been heard for it
(:class:`~repro.core.duplicates.Hearings`).

The algorithm is deterministic and sees the same totally-ordered copies
at every replica, so every voter produces the same result for every
operation — the property the paper's value fault detector requires.
"""

from repro.core.duplicates import Hearings
from repro.core.identifiers import KIND_INVOCATION, KIND_RESPONSE


class VoteDecision:
    """The outcome of a completed vote."""

    __slots__ = ("op_key", "body", "winning_digest", "faulty_senders", "vote_set")

    def __init__(self, op_key, body, winning_digest, faulty_senders, vote_set):
        self.op_key = op_key
        self.body = body
        self.winning_digest = winning_digest
        #: senders whose copies differed from the majority value
        self.faulty_senders = faulty_senders
        #: the full set of (sender, digest) pairs voted on
        self.vote_set = vote_set

    def __repr__(self):
        return "VoteDecision(%s, %d faulty)" % (self.op_key, len(self.faulty_senders))


class LateFault:
    """A divergent copy that arrived after the vote was decided."""

    __slots__ = ("op_key", "sender", "digest", "vote_set")

    def __init__(self, op_key, sender, digest, vote_set):
        self.op_key = op_key
        self.sender = sender
        self.digest = digest
        self.vote_set = vote_set


class Voter:
    """Majority voter for one locally-hosted target group."""

    def __init__(self, target_group, group_table, digest_fn, obs=None, proc_id=None):
        self.target_group = target_group
        self._groups = group_table
        self._digest_fn = digest_fn
        #: op_key -> {"by_digest": {digest: set(senders)},
        #:            "body": {digest: bytes}}
        self._pending = {}
        #: op_key -> (winning digest, vote set at decision time), until
        #: every replica has been heard for the operation
        self._decided = {}
        self._hearings = Hearings()
        self._retire_listeners = []
        self.stats = {"copies": 0, "decisions": 0, "late_duplicates": 0, "faults_seen": 0}
        # the forensic recorder and the causal TraceCollector
        self._forensics = self._tracer = None
        if obs is not None:
            labels = {"group": target_group}
            if proc_id is not None:
                labels["proc"] = proc_id
                self._forensics = obs.recorder(proc_id)
            obs.registry.derive_counters(
                self.stats,
                {
                    "copies": "vote.copies",
                    "decisions": "vote.decisions",
                    "faults_seen": "vote.mismatches",
                    "late_duplicates": "vote.late_duplicates",
                },
                **labels
            )
            self._tracer = obs.trace

    @staticmethod
    def _trace_target(op_num):
        """(trace key, phase) when ``op_num`` is a Replication Manager /
        gateway op key ``(kind, source_group, target_group, op_num)``;
        None for the bare operation ids direct protocol tests use."""
        if not (isinstance(op_num, tuple) and len(op_num) == 4):
            return None
        kind, source_group, target_group, inner_op = op_num
        if kind == KIND_INVOCATION:
            return (source_group, inner_op), "req"
        if kind == KIND_RESPONSE:
            return (target_group, inner_op), "rep"
        return None

    def add_copy(self, source_group, op_num, sender, body):
        """Tally one copy; returns VoteDecision, LateFault, or None."""
        if sender not in self._groups.members(source_group):
            return None  # not a replica of the claimed source group
        op_key = (source_group, op_num)
        digest = self._digest_fn(body)
        self.stats["copies"] += 1
        if self._tracer is not None:
            target = self._trace_target(op_num)
            if target is not None:
                self._tracer.vote_copy(target[0], target[1], sender)

        decided = self._decided.get(op_key)
        if decided is not None:
            self._retire(self._hearings.hear(op_key, sender))
            winning_digest, vote_set = decided
            if digest == winning_digest:
                self.stats["late_duplicates"] += 1
                return None
            self.stats["faults_seen"] += 1
            vote_set = vote_set + ((sender, digest),)
            self._decided[op_key] = (winning_digest, vote_set)
            if self._forensics is not None:
                self._forensics.record(
                    "vote_divergence",
                    culprit=sender,
                    culprit_digest=digest,
                    winning_digest=winning_digest,
                    group=self.target_group,
                    op=op_key,
                    late=True,
                )
            return LateFault(op_key, sender, digest, vote_set)

        entry = self._pending.setdefault(op_key, {"by_digest": {}, "body": {}})
        entry["by_digest"].setdefault(digest, set()).add(sender)
        entry["body"].setdefault(digest, body)
        return self._evaluate(op_key, source_group)

    def _evaluate(self, op_key, source_group):
        entry = self._pending.get(op_key)
        if entry is None:
            return None
        members = self._groups.members(source_group)
        needed = self._groups.majority(source_group)
        winner = None
        for digest in sorted(entry["by_digest"]):
            senders = entry["by_digest"][digest]
            # Only current members vouch: a copy whose sender has been
            # excluded since stays in the vote set but no longer counts.
            if len(senders) >= needed and len(senders.intersection(members)) >= needed:
                winner = digest
                break
        if winner is None:
            return None
        faulty = set()
        vote_set = []
        for digest in sorted(entry["by_digest"]):
            for sender in sorted(entry["by_digest"][digest]):
                vote_set.append((sender, digest))
                if digest != winner:
                    faulty.add(sender)
        if faulty:
            self.stats["faults_seen"] += len(faulty)
            if self._forensics is not None:
                for sender in sorted(faulty):
                    for digest in sorted(entry["by_digest"]):
                        if sender in entry["by_digest"][digest]:
                            self._forensics.record(
                                "vote_divergence",
                                culprit=sender,
                                culprit_digest=digest,
                                winning_digest=winner,
                                group=self.target_group,
                                op=op_key,
                                late=False,
                            )
        body = entry["body"][winner]
        del self._pending[op_key]
        self._decided[op_key] = (winner, tuple(vote_set))
        self._retire(
            self._hearings.open(
                op_key, source_group, set(members).difference(*entry["by_digest"].values())
            )
        )
        self.stats["decisions"] += 1
        if self._tracer is not None:
            target = self._trace_target(op_key[1])
            if target is not None:
                self._tracer.vote_decided(target[0], target[1])
        return VoteDecision(op_key, body, winner, faulty, tuple(vote_set))

    def reconsider(self):
        """Re-evaluate pending votes after a degree change.

        When an excluded processor's replicas are dropped from a source
        group, the majority threshold shrinks and previously-stuck
        votes may now be decidable, and decided ones complete.  Returns
        the resulting decisions.
        """
        self.recheck()
        decisions = []
        for op_key in sorted(self._pending):
            source_group, _ = op_key
            decision = self._evaluate(op_key, source_group)
            if decision is not None:
                decisions.append(decision)
        return decisions

    def recheck(self):
        """Drop the records an exclusion completed."""
        self._retire(self._hearings.recheck(self._groups))

    def on_retire(self, fn):
        """Register ``fn(op_key)``, called when a decided record is dropped."""
        self._retire_listeners.append(fn)

    def _retire(self, op_keys):
        for op_key in op_keys:
            del self._decided[op_key]
            for fn in self._retire_listeners:
                fn(op_key)

    def pending_count(self):
        return len(self._pending)
