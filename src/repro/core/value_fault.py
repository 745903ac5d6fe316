"""Value fault detection (paper section 6.2).

When a voter ``V_I`` (``V_R``) detects an incorrect value of an
invocation (response), the Replication Manager multicasts a
``Value_Fault_Vote`` message *to the base group*, encapsulating the set
of copies it voted on.  The value fault detector inside **every**
Replication Manager receives these messages in the same total order,
compares the vote set to determine the corrupt replica and its hosting
processor, and notifies its *local* Byzantine fault detector with a
``Value_Fault_Suspect`` — a notification that never travels on the
network.  Because the vote sets are identical everywhere, all correct
processors reach the same decision, satisfying the eventual strong
Byzantine completeness the membership protocol needs to evict the
corrupt processor.
"""

from repro.core.groups import majority_of
from repro.orb.schema import Frame, Schema


class ValueFaultCodecError(Exception):
    """Raised on malformed Value_Fault_Vote messages."""


class ValueFaultVote(Frame):
    """The vote set a Replication Manager publishes to the base group."""

    SCHEMA = Schema(
        ("reporter", "ulong"),
        ("source_group", "string"),
        ("op_num", "ulonglong"),
        ("target_group", "string"),
        ("entries", ("sequence", ("record", (("sender", "ulong"), ("digest", "octets"))))),
        error=ValueFaultCodecError,
    )
    __slots__ = SCHEMA.names

    def __init__(self, reporter, source_group, op_num, target_group, entries):
        self.reporter = reporter
        self.source_group = source_group
        self.op_num = op_num
        self.target_group = target_group
        #: tuple of (sender proc id, value digest) pairs
        self.entries = tuple(entries)


class ValueFaultDetector:
    """Correlates Value_Fault_Vote messages into processor suspicions."""

    def __init__(self, group_table, suspect_cb, my_id=None, obs=None):
        self._groups = group_table
        self._suspect_cb = suspect_cb
        known = obs is not None and my_id is not None
        self._forensics = obs.recorder(my_id) if known else None
        self._processed = set()
        self.stats = {"votes": 0, "suspected": 0, "duplicates": 0}

    def on_vote(self, vote):
        """Process one totally-ordered Value_Fault_Vote message.

        Votes for an operation already adjudicated are ignored — every
        Replication Manager hosting the target group publishes the same
        vote set, so only the first per operation matters.
        """
        op_id = (vote.source_group, vote.op_num, vote.target_group)
        if op_id in self._processed:
            self.stats["duplicates"] += 1
            return set()
        self._processed.add(op_id)
        self.stats["votes"] += 1

        by_digest = {}
        for sender, digest in vote.entries:
            by_digest.setdefault(digest, set()).add(sender)
        if not by_digest:
            return set()
        needed = majority_of(self._groups.degree(vote.source_group))
        winner = None
        for digest in sorted(by_digest):
            if len(by_digest[digest]) >= needed:
                winner = digest
                break
        if winner is None:
            # No value reached a majority — cannot adjudicate safely.
            return set()
        corrupt = set()
        for digest, senders in by_digest.items():
            if digest != winner:
                corrupt |= senders
        for proc_id in sorted(corrupt):
            self.stats["suspected"] += 1
            if self._forensics is not None:
                self._forensics.record(
                    "value_fault_convict",
                    suspect=proc_id,
                    source_group=vote.source_group,
                    op_num=vote.op_num,
                    winning_digest=winner,
                )
            self._suspect_cb(proc_id)
        return corrupt
