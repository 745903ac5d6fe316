"""Unit tests for the object group table."""

import pytest

from repro.core.groups import (
    GroupError,
    GroupUpdate,
    ObjectGroupTable,
    UPDATE_ADD,
    UPDATE_REMOVE,
    majority_of,
)


def test_majority_thresholds():
    # ceil((r+1)/2): 1->1, 2->2, 3->2, 4->3, 5->3, 6->4, 7->4
    assert [majority_of(r) for r in range(1, 8)] == [1, 2, 2, 3, 3, 4, 4]


def test_majority_is_the_papers_correct_replica_count():
    assert majority_of(3) == 2
    assert majority_of(5) == 3


def test_create_and_query():
    table = ObjectGroupTable()
    table.create("g", [2, 0, 4])
    assert table.members("g") == (0, 2, 4)
    assert table.degree("g") == 3
    assert table.majority("g") == 2
    assert table.groups() == ["g"]


def test_duplicate_create_rejected():
    table = ObjectGroupTable()
    table.create("g", [0])
    with pytest.raises(GroupError):
        table.create("g", [1])


def test_one_replica_per_processor_enforced():
    table = ObjectGroupTable()
    with pytest.raises(GroupError):
        table.create("g", [0, 0, 1])


def test_unknown_group_is_empty():
    table = ObjectGroupTable()
    assert table.members("nope") == ()
    assert table.degree("nope") == 0


def test_add_remove_replica():
    table = ObjectGroupTable()
    table.create("g", [0, 1])
    table.add_replica("g", 3)
    assert table.members("g") == (0, 1, 3)
    table.add_replica("g", 3)  # idempotent
    assert table.members("g") == (0, 1, 3)
    table.remove_replica("g", 1)
    assert table.members("g") == (0, 3)
    table.remove_replica("g", 99)  # no-op
    assert table.members("g") == (0, 3)


def test_remove_processor_hits_all_groups():
    table = ObjectGroupTable()
    table.create("a", [0, 1, 2])
    table.create("b", [1, 3])
    table.create("c", [0, 2])
    affected = table.remove_processor(1)
    assert affected == ["a", "b"]
    assert table.members("a") == (0, 2)
    assert table.members("b") == (3,)
    assert table.members("c") == (0, 2)


def test_group_update_roundtrip_and_apply():
    table = ObjectGroupTable()
    table.create("g", [0])
    add = GroupUpdate.decode(GroupUpdate(UPDATE_ADD, "g", 5).encode())
    table.apply(add)
    assert table.members("g") == (0, 5)
    remove = GroupUpdate.decode(GroupUpdate(UPDATE_REMOVE, "g", 0).encode())
    table.apply(remove)
    assert table.members("g") == (5,)


def test_apply_unknown_action_rejected():
    table = ObjectGroupTable()
    with pytest.raises(GroupError):
        table.apply(GroupUpdate(99, "g", 0))


def test_groups_hosted_by():
    table = ObjectGroupTable()
    table.create("a", [0, 1])
    table.create("b", [1, 2])
    assert table.groups_hosted_by(1) == ["a", "b"]
    assert table.groups_hosted_by(0) == ["a"]
    assert table.groups_hosted_by(9) == []


def test_replace_installs_a_sorted_placement_and_creates_or_refuses():
    table = ObjectGroupTable()
    table.create("g", [0, 1, 2])
    table.replace("g", [5, 4, 3])
    assert table.members("g") == (3, 4, 5)
    table.replace("g", [3, 4, 5])  # an unchanged placement stays
    assert table.members("g") == (3, 4, 5)
    table.replace("fresh", [7, 8])  # create-or-replace
    assert table.members("fresh") == (7, 8)
    with pytest.raises(GroupError):
        table.replace("g", [1, 1, 2])
