"""Unit tests for the Table 2/4/5 history checkers themselves.

A checker that passes everything proves nothing: each test here builds
a small synthetic history containing exactly one violation and asserts
the checker flags it (plus a clean-history control).
"""

from repro.bench.properties import (
    delivery_violations,
    detector_violations,
    membership_violations,
)
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import TraceLog


def make_trace():
    return TraceLog(Scheduler())


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------

def test_clean_delivery_history_passes():
    trace = make_trace()
    for proc in (0, 1):
        for seq in (1, 2, 3):
            trace.record("multicast.deliver", proc=proc, ring=1, seq=seq, sender=0,
                         group="g", digest=b"d%d" % seq)
    assert delivery_violations(trace, {0, 1}) == []


def test_integrity_violation_flagged():
    trace = make_trace()
    trace.record("multicast.deliver", proc=0, ring=1, seq=1, sender=0, group="g", digest=b"d")
    trace.record("multicast.deliver", proc=0, ring=1, seq=1, sender=0, group="g", digest=b"d")
    violations = delivery_violations(trace, {0})
    assert any("integrity" in v for v in violations)


def test_total_order_violation_flagged():
    trace = make_trace()
    trace.record("multicast.deliver", proc=0, ring=1, seq=2, sender=0, group="g", digest=b"b")
    trace.record("multicast.deliver", proc=0, ring=1, seq=1, sender=0, group="g", digest=b"a")
    violations = delivery_violations(trace, {0})
    assert any("total order" in v for v in violations)


def test_uniqueness_violation_flagged():
    trace = make_trace()
    trace.record("multicast.deliver", proc=0, ring=1, seq=1, sender=0, group="g", digest=b"x")
    trace.record("multicast.deliver", proc=1, ring=1, seq=1, sender=0, group="g", digest=b"y")
    violations = delivery_violations(trace, {0, 1})
    assert any("uniqueness" in v for v in violations)


def test_reliable_delivery_violation_flagged():
    trace = make_trace()
    trace.record("membership.install", proc=0, ring=1, members=(0, 1), excluded=(), cut=0)
    trace.record("membership.install", proc=1, ring=1, members=(0, 1), excluded=(), cut=0)
    trace.record("multicast.deliver", proc=0, ring=1, seq=1, sender=0, group="g", digest=b"a")
    violations = delivery_violations(trace, {0, 1})
    assert any("reliable delivery" in v for v in violations)


def _originate_then_install(trace, payloads):
    for proc in (0, 1):
        trace.record("membership.install", proc=proc, ring=4, members=(0, 1),
                     excluded=(2,), cut=0)
    for payload in payloads:
        trace.record("multicast.originate", proc=0, group="g", payload=payload)


def test_a_lost_origination_is_flagged_though_every_member_agrees():
    """What a survivor sequenced above an install cut used to be lost in
    one order at every member: only the originations show it."""
    trace = make_trace()
    _originate_then_install(trace, [b"p1", b"p2"])
    for proc in (0, 1):
        trace.record("multicast.deliver", proc=proc, ring=4, seq=1, sender=0,
                     group="g", digest=b"d1", payload=b"p1")
    violations = delivery_violations(trace, {0, 1})
    assert violations == [
        "reliable delivery: 1 message(s) P0 originated never delivered there"
    ]


def test_an_origination_delivered_under_a_later_seq_passes():
    trace = make_trace()
    _originate_then_install(trace, [b"p1", b"p2"])
    for proc in (0, 1):
        for seq, payload in ((1, b"p1"), (2, None), (3, b"p2")):  # 2: a fragment
            trace.record("multicast.deliver", proc=proc, ring=4, seq=seq, sender=0,
                         group="g", digest=b"d%d" % seq, payload=payload)
    assert delivery_violations(trace, {0, 1}) == []
    # An originator outside the final membership is owed nothing.
    trace.record("multicast.originate", proc=2, group="g", payload=b"lost")
    assert delivery_violations(trace, {0, 1, 2}) == []


def test_faulty_processors_excluded_from_delivery_checks():
    trace = make_trace()
    # The faulty processor delivers garbage; only correct ones matter.
    trace.record("multicast.deliver", proc=2, ring=1, seq=1, sender=0, group="g", digest=b"x")
    trace.record("multicast.deliver", proc=2, ring=1, seq=1, sender=0, group="g", digest=b"y")
    assert delivery_violations(trace, {0, 1}) == []


# ----------------------------------------------------------------------
# Table 4
# ----------------------------------------------------------------------

def _install(trace, proc, ring, members):
    trace.record("membership.install", proc=proc, ring=ring, members=tuple(members),
                 excluded=(), cut=0)


def test_clean_membership_history_passes():
    trace = make_trace()
    for proc in (0, 1):
        _install(trace, proc, 1, (0, 1, 2))
        _install(trace, proc, 2, (0, 1))
    assert membership_violations(trace, {0, 1}, faulty={2}) == []


def test_membership_uniqueness_violation():
    trace = make_trace()
    _install(trace, 0, 1, (0, 1))
    _install(trace, 1, 1, (0, 1, 2))
    violations = membership_violations(trace, {0, 1})
    assert any("uniqueness" in v for v in violations)


def test_self_inclusion_violation():
    trace = make_trace()
    _install(trace, 0, 1, (1, 2))
    violations = membership_violations(trace, {0, 1, 2})
    assert any("self-inclusion" in v for v in violations)


def test_eventual_exclusion_violation_readmission():
    trace = make_trace()
    _install(trace, 0, 1, (0, 1, 2))
    _install(trace, 0, 2, (0, 1))
    _install(trace, 0, 3, (0, 1, 2))  # readmits the faulty processor
    violations = membership_violations(trace, {0, 1}, faulty={2})
    assert any("eventual exclusion" in v for v in violations)


def test_eventual_inclusion_violation():
    trace = make_trace()
    _install(trace, 0, 1, (0, 2))  # final membership omits correct P1
    violations = membership_violations(trace, {0, 1})
    assert any("eventual inclusion" in v for v in violations)


def test_divergent_histories_flagged():
    trace = make_trace()
    _install(trace, 0, 1, (0, 1, 2))
    _install(trace, 0, 2, (0, 1))
    _install(trace, 1, 1, (0, 1, 2))
    _install(trace, 1, 3, (0, 1))
    violations = membership_violations(trace, {0, 1})
    assert any("divergent" in v or "total order" in v for v in violations)


# ----------------------------------------------------------------------
# Table 5
# ----------------------------------------------------------------------

def test_completeness_violation():
    trace = make_trace()
    trace.record("detector.suspect", observer=0, suspect=9, reason="fail_to_send", new=True)
    violations = detector_violations(trace, {0, 1}, faulty={9})
    assert any("completeness: correct P1" in v for v in violations)


def test_accuracy_violation():
    trace = make_trace()
    trace.record("detector.suspect", observer=0, suspect=1, reason="fail_to_send", new=True)
    violations = detector_violations(trace, {0, 1})
    assert any("accuracy" in v for v in violations)


def test_absolution_clears_transient_suspicion():
    trace = make_trace()
    trace.record("detector.suspect", observer=0, suspect=1, reason="fail_to_send", new=True)
    trace.record("detector.absolve", observer=0, suspect=1,
                 cleared=("fail_to_send",), fully=True)
    assert detector_violations(trace, {0, 1}) == []


def test_partial_absolution_keeps_suspicion():
    trace = make_trace()
    trace.record("detector.suspect", observer=0, suspect=1, reason="mutant_token", new=True)
    trace.record("detector.suspect", observer=0, suspect=1, reason="fail_to_send", new=False)
    trace.record("detector.absolve", observer=0, suspect=1,
                 cleared=("fail_to_send",), fully=False)
    violations = detector_violations(trace, {0, 1})
    assert any("accuracy" in v for v in violations)
