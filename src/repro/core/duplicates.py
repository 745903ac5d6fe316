"""Duplicate detection (paper section 5.1), and how long it remembers.

When a client (server) object is actively replicated, each replica
issues the same invocation (response); the copies must never be
delivered more than once to a target whose state would be corrupted by
reprocessing.  The filter tracks, per target, which operation
identifiers have already produced a delivery, and how many copies of
each were observed (the surplus feeds the duplicate-suppression
statistics reported by the benches).

An operation's record is needed only until every replica of its source
group has been heard for it: a correct replica sends one copy, so after
that only a faulty majority could make the operation look new again.
:class:`Hearings` tracks who is still to be heard; the filter below and
:class:`~repro.core.voting.Voter` drop a record when it says so
(docs/PROTOCOLS.md, "How long a vote is remembered").
"""


class Hearings:
    """Who is still to be heard for each decided operation.

    A record completes once every member of its source group at
    decision time that is still a member has sent its copy, so an
    exclusion can complete a record and a later join cannot pin it.
    The most recently completed operation of each source group stays,
    so a replay of it is judged as before; completing the next one
    retires it.  Every method returns the op keys it retires, for the
    owner to forget.
    """

    __slots__ = ("_unheard", "_latest")

    def __init__(self):
        #: op_key -> (source group, pids still to be heard)
        self._unheard = {}
        #: source group -> op_key of its most recently completed operation
        self._latest = {}

    def open(self, op_key, source_group, unheard):
        """Start waiting on the ``unheard`` set of a just-decided operation."""
        if unheard:
            self._unheard[op_key] = (source_group, unheard)
            return ()
        return self._complete(op_key, source_group)

    def hear(self, op_key, sender):
        """Another copy of a decided operation arrived from ``sender``."""
        entry = self._unheard.get(op_key)
        if entry is None:
            return ()
        source_group, unheard = entry
        unheard.discard(sender)
        if unheard:
            return ()
        del self._unheard[op_key]
        return self._complete(op_key, source_group)

    def recheck(self, groups):
        """Stop waiting on pids that left their source group (an exclusion)."""
        retired = []
        for op_key, (source_group, unheard) in list(self._unheard.items()):
            unheard.intersection_update(groups.members(source_group))
            if not unheard:
                del self._unheard[op_key]
                retired.extend(self._complete(op_key, source_group))
        return retired

    def _complete(self, op_key, source_group):
        previous = self._latest.get(source_group)
        self._latest[source_group] = op_key
        if previous is None or previous == op_key:
            return ()
        return (previous,)


class DuplicateFilter:
    """Tracks delivered operations for one target replica."""

    def __init__(self):
        self._delivered = set()
        self._hearings = Hearings()
        self.stats = {"delivered": 0, "suppressed": 0}

    def is_delivered(self, op_key):
        return op_key in self._delivered

    def mark_delivered(self, op_key, source_group=None, sender=None, groups=None):
        """Record a copy; returns False if the operation was already delivered.

        Given the copy's ``source_group``, its ``sender`` and the group
        table, the key is held until every replica has been heard
        (:class:`Hearings`); without them it is held for good.
        """
        if op_key in self._delivered:
            self.stats["suppressed"] += 1
            if groups is not None:
                self._delivered.difference_update(self._hearings.hear(op_key, sender))
            return False
        self._delivered.add(op_key)
        self.stats["delivered"] += 1
        if groups is not None:
            unheard = set(groups.members(source_group))
            unheard.discard(sender)
            self._delivered.difference_update(
                self._hearings.open(op_key, source_group, unheard)
            )
        return True

    def forget(self, op_key):
        """Drop a key (a gateway's voter dropped the operation's record)."""
        self._delivered.discard(op_key)

    def recheck(self, groups):
        """Drop the keys an exclusion completed."""
        self._delivered.difference_update(self._hearings.recheck(groups))

    def suppress(self, op_key):
        """Record a suppressed duplicate copy of a delivered operation."""
        self.stats["suppressed"] += 1

    def __len__(self):
        return len(self._delivered)
