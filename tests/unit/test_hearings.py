"""How long a voter and a duplicate filter remember an operation.

A record lives from its decision until every member of its source group
at decision time that is still a member has been heard for it; the most
recently completed operation of each source group stays
(:class:`repro.core.duplicates.Hearings`, docs/PROTOCOLS.md).
"""

from repro.core.duplicates import DuplicateFilter
from repro.core.groups import ObjectGroupTable
from repro.core.identifiers import KIND_INVOCATION
from repro.core.voting import VoteDecision, Voter
from repro.crypto.md4 import md4_digest
from tests.unit.test_voted_link import Level


def make_voter(degree=3):
    table = ObjectGroupTable()
    table.create("client", list(range(degree)))
    return Voter("server", table, md4_digest), table


def op(n):
    return ("inv", "client", "server", n)


def records(voter):
    return sorted(key[1][3] for key in voter._decided)


def test_reconsider_counts_only_copies_from_current_members():
    """Two replicas that are then excluded cannot decide an invented op."""
    voter, table = make_voter(5)
    assert voter.add_copy("client", op(9), 3, b"invented") is None
    assert voter.add_copy("client", op(9), 4, b"invented") is None
    table.remove_processor(3)
    table.remove_processor(4)  # degree 5 -> 3, majority 3 -> 2
    assert voter.reconsider() == []
    assert voter.pending_count() == 1
    # The vote set and the divergence report still see the old copies.
    voter.add_copy("client", op(9), 0, b"honest")
    decision = voter.add_copy("client", op(9), 1, b"honest")
    assert isinstance(decision, VoteDecision) and decision.body == b"honest"
    assert decision.faulty_senders == {3, 4}
    assert {sender for sender, _digest in decision.vote_set} == {0, 1, 3, 4}


def test_a_record_goes_once_every_replica_is_heard_but_the_latest_stays():
    voter, _ = make_voter(3)
    for n in range(3):
        for sender in range(3):
            voter.add_copy("client", op(n), sender, b"v%d" % n)
    assert records(voter) == [2]
    # the latest completed operation is judged as before
    assert voter.add_copy("client", op(2), 0, b"v2") is None
    assert voter.stats["late_duplicates"] == 4
    assert voter.pending_count() == 0


def test_a_record_short_of_one_replica_is_kept():
    voter, _ = make_voter(3)
    for n in range(3):
        for sender in (0, 1):
            voter.add_copy("client", op(n), sender, b"v%d" % n)
    assert records(voter) == [0, 1, 2]
    voter.add_copy("client", op(1), 2, b"v1")
    assert records(voter) == [0, 1, 2]  # op 1 completes and is the latest
    voter.add_copy("client", op(0), 2, b"v0")
    assert records(voter) == [0, 2]  # op 0 completes and retires op 1


def test_an_exclusion_completes_a_record_and_a_join_cannot_pin_one():
    voter, table = make_voter(3)
    for n in range(2):
        for sender in (0, 1):
            voter.add_copy("client", op(n), sender, b"v%d" % n)
    table.add_replica("client", 7)  # joins after both decisions
    voter.add_copy("client", op(0), 2, b"v0")
    assert records(voter) == [0, 1]
    table.remove_processor(2)
    assert voter.reconsider() == []
    assert records(voter) == [1]  # op 1 completed by the exclusion, op 0 retired


def test_a_replay_of_a_retired_operation_never_decides():
    voter, _ = make_voter(3)
    for n in range(2):
        for sender in range(3):
            voter.add_copy("client", op(n), sender, b"v%d" % n)
    assert records(voter) == [1]
    # one faulty replica replays op 0, honestly or not: it opens a vote
    # that a single sender can never win
    assert voter.add_copy("client", op(0), 2, b"v0") is None
    assert voter.add_copy("client", op(0), 2, b"forged") is None
    assert voter.pending_count() == 1 and voter.stats["decisions"] == 2


def test_on_retire_hears_every_dropped_record():
    voter, _ = make_voter(3)
    dropped = []
    voter.on_retire(dropped.append)
    for n in range(3):
        for sender in range(3):
            voter.add_copy("client", op(n), sender, b"v")
    assert dropped == [("client", op(0)), ("client", op(1))]


def test_the_filter_forgets_with_the_same_rule():
    table = ObjectGroupTable()
    table.create("client", [0, 1, 2])
    dup = DuplicateFilter()
    for n in range(4):
        for sender in range(3):
            dup.mark_delivered(op(n), "client", sender, table)
    assert len(dup) == 1 and dup.is_delivered(op(3))
    assert dup.stats == {"delivered": 4, "suppressed": 8}
    # two of three heard, then the third is excluded
    dup.mark_delivered(op(4), "client", 0, table)
    dup.mark_delivered(op(4), "client", 1, table)
    assert len(dup) == 2
    table.remove_processor(2)
    dup.recheck(table)
    assert len(dup) == 1 and dup.is_delivered(op(4))


def test_a_key_marked_without_its_sender_is_held_for_good():
    table = ObjectGroupTable()
    table.create("client", [0, 1, 2])
    dup = DuplicateFilter()
    for n in range(3):
        dup.mark_delivered(op(n))
    dup.recheck(table)
    assert len(dup) == 3
    dup.forget(op(1))
    assert len(dup) == 2 and not dup.is_delivered(op(1))


def test_a_gateway_filter_forgets_with_its_voter_and_on_an_exclusion():
    level = Level("chassis")
    first, second, third = level.src
    forwarders = [replica.forward_ab for replica in level.link.replicas]

    def held():
        keys = [(KIND_INVOCATION, "src", "dst", n) for n in range(1, 4)]
        return [[key[3] for key in keys if f.dup_filter.is_delivered(key)] for f in forwarders]

    for n in (1, 2):
        for sender in level.src:
            level.request(sender, op=n)
    assert held() == [[2]] * 3  # op 1 went with its record; op 2 is the latest
    for sender in (first, second):
        level.request(sender, op=3)
    assert held() == [[2, 3]] * 3 and level.stats("forwarded") == [3, 3, 3]
    # the third client replica's processor is excluded on the source ring
    for f in forwarders:
        f._manager._on_membership_change(None, [], [third])
    assert held() == [[3]] * 3
    assert [len(f._voters["dst"]._decided) for f in forwarders] == [1, 1, 1]
