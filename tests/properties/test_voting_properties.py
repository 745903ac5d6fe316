"""Property-based tests: the voting algorithm's invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.groups import ObjectGroupTable
from repro.core.voting import LateFault, VoteDecision, Voter
from repro.crypto.md4 import md4_digest

OP = ("inv", "client", "server", 0)


def make_voter(degree):
    table = ObjectGroupTable()
    table.create("client", list(range(degree)))
    return Voter("server", table, md4_digest)


@given(
    degree=st.sampled_from([3, 5, 7]),
    corrupt_count=st.integers(0, 3),
    order_seed=st.randoms(use_true_random=False),
)
@settings(max_examples=100)
def test_honest_majority_always_wins(degree, corrupt_count, order_seed):
    """With a minority of corrupt senders, every arrival order delivers
    the honest value and flags exactly the corrupt senders."""
    corrupt_count = min(corrupt_count, (degree - 1) // 2)
    corrupt = set(range(corrupt_count))
    copies = [
        (sender, b"CORRUPT-%d" % sender if sender in corrupt else b"honest")
        for sender in range(degree)
    ]
    order_seed.shuffle(copies)
    voter = make_voter(degree)
    decision = None
    flagged = set()
    for sender, body in copies:
        outcome = voter.add_copy("client", OP, sender, body)
        if isinstance(outcome, VoteDecision):
            assert decision is None, "vote must decide exactly once"
            decision = outcome
            flagged |= outcome.faulty_senders
        elif isinstance(outcome, LateFault):
            flagged.add(outcome.sender)
    assert decision is not None
    assert decision.body == b"honest"
    assert flagged == corrupt


@given(
    degree=st.sampled_from([3, 5]),
    num_ops=st.integers(1, 10),
    order_seed=st.randoms(use_true_random=False),
)
@settings(max_examples=50)
def test_two_voters_fed_same_order_agree(degree, num_ops, order_seed):
    """Determinism: identical input sequences yield identical outputs."""
    copies = []
    for op in range(num_ops):
        for sender in range(degree):
            body = b"v%d" % op if sender != 0 else b"X%d" % op
            copies.append((("inv", "client", "server", op), sender, body))
    order_seed.shuffle(copies)
    outputs = []
    for _ in range(2):
        voter = make_voter(degree)
        log = []
        for op_key, sender, body in copies:
            outcome = voter.add_copy("client", op_key, sender, body)
            if isinstance(outcome, VoteDecision):
                log.append((op_key, outcome.body, tuple(sorted(outcome.faulty_senders))))
        outputs.append(log)
    assert outputs[0] == outputs[1]


@given(degree=st.sampled_from([2, 3, 4, 5, 6, 7]))
@settings(max_examples=20)
def test_majority_threshold_is_strict(degree):
    """One fewer than ceil((r+1)/2) identical copies never decides."""
    voter = make_voter(degree)
    needed = (degree + 2) // 2
    outcome = None
    for sender in range(needed - 1):
        outcome = voter.add_copy("client", OP, sender, b"v")
    assert outcome is None
    final = voter.add_copy("client", OP, needed - 1, b"v")
    assert isinstance(final, VoteDecision)


@given(
    degree=st.sampled_from([3, 5, 7]),
    num_ops=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=150)
def test_records_end_with_their_operation_under_replays_and_exclusions(degree, num_ops, data):
    """First copies, replays from at most f members and exclusions, in
    any interleaving that leaves a correct majority: no operation is
    decided twice, the honest value wins, every first divergent copy is
    flagged, and once every copy is in the voter holds one record."""
    f = (degree - 1) // 2
    faulty = data.draw(st.sets(st.integers(0, degree - 1), max_size=f), label="faulty")
    table = ObjectGroupTable()
    table.create("client", list(range(degree)))
    voter = Voter("server", table, md4_digest)
    events = [("copy", sender, n) for n in range(num_ops) for sender in range(degree)]
    if faulty:
        events += data.draw(
            st.lists(
                st.tuples(st.just("copy"), st.sampled_from(sorted(faulty)),
                          st.integers(0, num_ops - 1)),
                max_size=6,
            ),
            label="replays",
        )
    events += [
        ("exclude", pid, None)
        for pid in data.draw(st.sets(st.integers(0, degree - 1)), label="exclusions")
    ]
    events = data.draw(st.permutations(events), label="order")

    members = set(range(degree))
    decided, first_copies, divergent, flagged = {}, set(), set(), set()

    def decide(decision):
        n = decision.op_key[1][3]
        assert n not in decided, "operation %d decided twice" % n
        decided[n] = decision.body
        flagged.update((sender, n) for sender in decision.faulty_senders)

    for what, pid, n in events:
        if what == "exclude":
            remaining = members - {pid}
            if pid not in members or len(remaining - faulty) < (len(remaining) + 2) // 2:
                continue  # would leave no correct majority: outside the model
            members = remaining
            table.remove_processor(pid)
            for decision in voter.reconsider():
                decide(decision)
            continue
        honest = b"v%d" % n
        forge = pid in faulty and data.draw(st.booleans(), label="forge")
        body = b"forged-%d" % n if forge else honest  # the faulty collude
        if pid in members and (pid, n) not in first_copies:
            first_copies.add((pid, n))
            if forge:
                divergent.add((pid, n))
        outcome = voter.add_copy("client", ("inv", "client", "server", n), pid, body)
        if isinstance(outcome, VoteDecision):
            decide(outcome)
        elif isinstance(outcome, LateFault):
            flagged.add((outcome.sender, n))

    assert decided == {n: b"v%d" % n for n in range(num_ops)}
    assert divergent <= flagged
    assert len(voter._decided) == 1
