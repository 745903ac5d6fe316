"""The batch ring's per-visit record stays in step with what it records.

:class:`~repro.multicast.delivery.VisitEvidence` keeps, for one token
visit, the digest and seq of the bytes held for it, the certificate
claims and the digest they agree on, the variants and the certificates
whose span ends there.  Its derived fields are maintained incrementally
(``agreed`` per claim, ``digest`` / ``seq`` where bytes are stored and
dropped), so a Hypothesis property drives one
:class:`~tests.unit.test_delivery_batch.BatchHarness` through generated
histories — token variants, replays below the window, overlapping and
equivocating certificates, spans that end below the sweep floor, jumps
far ahead and the processor's own certificates — and after every step
checks each record against the tables it summarises.
"""

from hypothesis import given, settings, strategies as st

from repro.multicast.messages import decode_frame
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
_steps = st.lists(
    st.one_of(_tokens, _tokens, _certs, _certs, _jumps, _own_certs), max_size=25
)


def _bytes_for(h, visit, variant, seq=0, signed=False):
    """Visit ``visit``'s token in one of three variants, held by P1 or P2."""
    holder = 1 + visit % 2
    return h.token(
        holder, visit, seq, rtr_list=[variant] if variant else [], signed=signed
    )


def _newest(h):
    last = h.protocol._last_accepted
    return last.visit if last is not None else 0


def _check_records(h):
    protocol = h.protocol
    records = protocol._evidence_by_visit
    held = protocol._token_raw_by_visit
    assert set(held) <= set(records)
    for visit, evidence in records.items():
        assert visit >= protocol._history_low
        agreed = set(evidence.claims.values())
        assert evidence.agreed == (agreed.pop() if len(agreed) == 1 else None)
        raw = held.get(visit)
        if raw is None:
            assert evidence.digest is None and evidence.seq is None
        else:
            assert evidence.digest == h.digest_of(raw)
            assert evidence.seq == decode_frame(raw).seq
        for _signer, _first, last in evidence.certs:
            assert last == visit


@given(steps=_steps)
@settings(max_examples=60, deadline=None)
def test_every_record_agrees_with_the_tables_it_summarises(steps):
    h = BatchHarness()
    for step in steps:
        kind = step[0]
        newest = _newest(h)
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
        else:
            h.protocol._issue_certificate("cadence")
        _check_records(h)
