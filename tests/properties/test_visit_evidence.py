"""A batch ring's two record tables stay in step with what they record.

:class:`~repro.multicast.delivery.VisitEvidence` keeps, for one token
visit, the bytes held for it with their digest and seq, the certificate
claims and the digest they agree on, the variants and the certificates
whose span ends there; :class:`~repro.multicast.delivery.SeqRecord`
keeps, for one sequence number, the message bytes and the digest,
sender and visit of the token that vouches it.  Both are maintained
incrementally, so a Hypothesis property drives one
:class:`~tests.unit.test_delivery_batch.BatchHarness` through generated
histories — token variants that vouch a seq of the next visit too,
replays below the window, overlapping and equivocating certificates,
spans that end below the sweep floor, jumps far ahead, messages and the
processor's own certificates — and after every step checks each record
against the bytes it summarises, each key against the watermark its
table is swept from, and that a step changes a seq's vouch only through
the bytes of the visit that vouches it.
"""

from hypothesis import example, given, settings, strategies as st

from repro.multicast.messages import RegularMessage, decode_frame
from tests.unit.test_delivery_batch import BatchHarness

_SEQS = (0, 1, 2, 10**12)

# (kind, ...) steps; visits are drawn relative to the newest accepted one
_tokens = st.tuples(
    st.just("token"),
    st.integers(-70, 3),  # below the window down to just ahead of it
    st.integers(0, 2),  # which variant of the visit's bytes
    st.sampled_from(_SEQS),
    st.booleans(),  # signed by its holder
)
_certs = st.tuples(
    st.just("cert"),
    st.sampled_from((1, 2)),  # signer
    st.integers(-75, 0),  # first visit, below the sweep floor too
    st.lists(st.integers(0, 2), min_size=1, max_size=12),  # variant per visit
)
_jumps = st.tuples(st.just("jump"), st.integers(65, 200))
_own_certs = st.tuples(st.just("own cert"))
_messages = st.tuples(st.just("message"), st.integers(-3, 3))
_steps = st.lists(
    st.one_of(_tokens, _tokens, _certs, _certs, _jumps, _own_certs, _messages),
    max_size=25,
)


def _holder(seq):
    """Visit ``seq``'s holder, who originates message ``seq``."""
    return 1 + seq % 2


def _message(seq):
    return RegularMessage(_holder(seq), 1, seq, "g", b"m%d" % seq)


def _digests_for(h, visit, variant):
    """The genuine visit ``visit`` vouches message ``visit``; variant 1
    vouches a mutant of it and of the next visit's message, variant 2
    only a mutant of the next visit's."""
    if variant == 0:
        return [(visit, h.digest_of(_message(visit).encode()))]
    mutant = [(seq, h.digest_of(b"mutant %d %d" % (visit, seq))) for seq in (visit, visit + 1)]
    return mutant if variant == 1 else mutant[1:]


def _bytes_for(h, visit, variant, seq=0, signed=False):
    """Visit ``visit``'s token in one of three variants, held by P1 or P2."""
    digests = _digests_for(h, visit, variant)
    return h.token(
        _holder(visit), visit, max(seq, digests[-1][0]), digests=digests, signed=signed
    )


def _newest(h):
    last = h.protocol._last_accepted
    return last.visit if last is not None else 0


def _vouches(protocol):
    return {
        seq: (record.digest, record.sender, record.visit)
        for seq, record in protocol._seqs.items()
        if record.visit is not None
    }


def _check_records(h):
    protocol = h.protocol
    for visit, evidence in protocol._visits.items():
        assert visit >= protocol._history_low
        agreed = set(evidence.claims.values())
        assert evidence.agreed == (agreed.pop() if len(agreed) == 1 else None)
        if evidence.raw is None:
            assert evidence.digest is None and evidence.seq is None
        else:
            assert evidence.digest == h.digest_of(evidence.raw)
            assert evidence.seq == decode_frame(evidence.raw).seq
        for _signer, _first, last in evidence.certs:
            assert last == visit
    for seq, record in protocol._seqs.items():
        assert seq > protocol._collected_up_to
        assert len(record.variants) == len(set(record.variants)) <= 3
        vouch = (record.digest, record.sender, record.visit)
        assert (None in vouch) == (vouch == (None, None, None))


def _check_vouches(h, before, held_before, made):
    """A seq's vouch comes from one token, and a step changes it only
    through the bytes of the visit that gave it or of one that takes it
    over.

    ``made`` maps each seq to the visit record its vouch was given
    under: while that record holds bytes they carry the vouch.  (A
    visit swept out of the window and held again with other bytes may
    still be named by a seq the swept bytes vouched.)
    """
    protocol = h.protocol
    visits = protocol._visits
    held = {visit: evidence.raw for visit, evidence in visits.items() if evidence.raw}
    changed = {v for v in set(held) | set(held_before) if held.get(v) != held_before.get(v)}
    taken_over = {
        seq for visit in changed if visit in held
        for seq, _ in decode_frame(held[visit]).message_digest_list
    }
    after = _vouches(protocol)
    for seq, vouch in before.items():
        if vouch[2] not in changed and seq not in taken_over:
            assert after.get(seq) == vouch, (seq, vouch, after.get(seq))
    for seq, vouch in after.items():
        if before.get(seq) != vouch:
            made[seq] = visits.get(vouch[2])
        digest, sender, visit = vouch
        evidence = visits.get(visit)
        if evidence is not None and evidence is made.get(seq) and evidence.raw:
            token = decode_frame(evidence.raw)
            assert (seq, digest) in token.message_digest_list
            assert sender == token.sender_id


@given(steps=_steps)
@settings(max_examples=60, deadline=None)
# A mutant of visit 1 vouches seq 2 too; the genuine visit 2 takes seq 2
# over; a certificate then convicts the mutant: seq 2 keeps visit 2's vouch.
@example(steps=[("token", 1, 1, 0, False), ("token", 1, 0, 0, False), ("cert", 1, -1, [0])])
def test_every_record_agrees_with_the_tables_it_summarises(steps):
    h = BatchHarness()
    made = {}
    for step in steps:
        kind = step[0]
        newest = _newest(h)
        before = _vouches(h.protocol)
        held_before = {v: e.raw for v, e in h.protocol._visits.items() if e.raw}
        if kind == "token":
            _, offset, variant, seq, signed = step
            visit = max(1, newest + offset)
            token, raw = _bytes_for(h, visit, variant, seq, signed)
            h.protocol.on_token(token, raw)
        elif kind == "cert":
            _, signer, offset, variants = step
            first = max(1, newest + offset)
            raws = [
                _bytes_for(h, visit, variant)[1]
                for visit, variant in enumerate(variants, first)
            ]
            h.feed_certificate(signer, first, raws)
        elif kind == "jump":
            token, raw = _bytes_for(h, newest + step[1], 0)
            h.protocol.on_token(token, raw)
        elif kind == "message":
            message = _message(max(1, newest + step[1]))
            h.protocol.on_regular(message, message.encode())
        else:
            h.protocol._issue_certificate("cadence")
        _check_records(h)
        _check_vouches(h, before, held_before, made)
