"""Object group membership maintained by every Replication Manager.

The object group abstraction models a replicated object; the group's
size is the object's degree of replication.  Every Replication Manager
joins the *base group* (paper section 6.1): object group membership
messages are delivered through it — in the same secure total order as
everything else — so every manager holds an identical group table and
derives identical voting thresholds.

Resilience rule (section 3.1): at most one replica of an object per
processor, and when a processor is excluded from the processor
membership, *all* object groups drop every replica it hosted.
"""

from repro.orb.schema import Frame, Schema, one_of

UPDATE_ADD = 1
UPDATE_REMOVE = 2


class GroupError(Exception):
    """Raised on invalid group operations."""


def majority_of(degree):
    """Votes needed for a majority of ``degree`` replicas: ceil((r+1)/2),
    the correct replicas an object needs (paper section 3.1)."""
    return (degree + 2) // 2


class GroupUpdate(Frame):
    """One object-group membership change, flowing through the base group.

    A Replication Manager announces only its own replicas
    (``proc_id`` is the announcing processor); an ``action`` other
    than add or remove does not decode.
    """

    SCHEMA = Schema(
        ("action", one_of("octet", {UPDATE_ADD: "add", UPDATE_REMOVE: "remove"})),
        ("group_name", "string"),
        ("proc_id", "ulong"),
        error=GroupError,
    )
    __slots__ = SCHEMA.names

    def __init__(self, action, group_name, proc_id):
        self.action = action
        self.group_name = group_name
        self.proc_id = proc_id


class ObjectGroupTable:
    """group name -> sorted tuple of hosting processor ids."""

    def __init__(self):
        self._groups = {}

    def create(self, group_name, proc_ids):
        """Create a group with its initial replica placement."""
        if group_name in self._groups:
            raise GroupError("group %r already exists" % group_name)
        proc_ids = tuple(sorted(proc_ids))
        if len(set(proc_ids)) != len(proc_ids):
            raise GroupError(
                "at most one replica of %r per processor (got %r)"
                % (group_name, proc_ids)
            )
        self._groups[group_name] = proc_ids

    def replace(self, group_name, proc_ids):
        """Atomically install a new replica placement for a group.

        A live migration rewrites the placement in one step rather than
        as a remove/add sequence that would transiently drop the group
        below its voting threshold.  Creates the group if it does not
        exist.
        """
        proc_ids = tuple(sorted(proc_ids))
        if len(set(proc_ids)) != len(proc_ids):
            raise GroupError(
                "at most one replica of %r per processor (got %r)"
                % (group_name, proc_ids)
            )
        self._groups[group_name] = proc_ids

    def add_replica(self, group_name, proc_id):
        members = self._groups.get(group_name, ())
        if proc_id in members:
            return
        self._groups[group_name] = tuple(sorted(members + (proc_id,)))

    def remove_replica(self, group_name, proc_id):
        members = self._groups.get(group_name)
        if members is None or proc_id not in members:
            return
        self._groups[group_name] = tuple(m for m in members if m != proc_id)

    def remove_processor(self, proc_id):
        """Drop every replica hosted by an excluded processor.

        "If a malicious processor fault is detected, all objects that
        are hosted by that processor are subsequently excluded from the
        memberships of all object groups" (section 3.1).  Returns the
        affected group names.
        """
        affected = []
        for group_name in sorted(self._groups):
            if proc_id in self._groups[group_name]:
                self.remove_replica(group_name, proc_id)
                affected.append(group_name)
        return affected

    def apply(self, update):
        if update.action == UPDATE_ADD:
            self.add_replica(update.group_name, update.proc_id)
        elif update.action == UPDATE_REMOVE:
            self.remove_replica(update.group_name, update.proc_id)
        else:
            raise GroupError("unknown group update action %d" % update.action)

    def members(self, group_name):
        return self._groups.get(group_name, ())

    def degree(self, group_name):
        return len(self._groups.get(group_name, ()))

    def majority(self, group_name):
        """Copies needed for a value to win the vote for this group."""
        return majority_of(self.degree(group_name))

    def groups(self):
        return sorted(self._groups)

    def groups_hosted_by(self, proc_id):
        return [g for g in sorted(self._groups) if proc_id in self._groups[g]]

    def snapshot(self):
        return dict(self._groups)
