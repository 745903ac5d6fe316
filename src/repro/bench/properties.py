"""History checkers for the paper's property tables (Tables 2, 4, 5).

Each checker takes the completed :class:`~repro.sim.tracing.TraceLog`
of a run plus the set of *correct* processors, and returns a list of
violation strings (empty = the properties hold on this history).  The
property-based tests in ``tests/properties`` and the table benches both
assert through these, so the statements verified are identical in both
places.
"""

from collections import Counter


def delivery_violations(trace, correct):
    """Table 2 — message delivery protocol properties.

    * Integrity: every correct processor delivers a sequence number at
      most once.
    * Uniqueness / suppression of mutants: if two correct processors
      deliver the same sequence number, they deliver byte-identical
      contents (compared by digest).
    * Total order: every correct processor's delivery sequence is
      strictly increasing in sequence number, hence any two correct
      processors deliver common messages in the same order.
    * Reliable delivery: correct processors that installed the same
      memberships delivered the same set of sequence numbers, and every
      message a correct member of the final membership originated was
      delivered (handed up whole) at that member.  Originations are
      matched by payload digest, not seq: a message sequenced above an
      installation's cut is delivered under a later one.
    """
    violations = []
    per_proc = {pid: [] for pid in correct}
    for rec in trace.of_kind("multicast.deliver"):
        if rec.proc in correct:
            per_proc[rec.proc].append(rec)

    digest_by_seq = {}
    delivered_seqs = {}
    for proc, records in sorted(per_proc.items()):
        seqs = [r.seq for r in records]
        if len(seqs) != len(set(seqs)):
            violations.append("integrity: P%d delivered a seq twice" % proc)
        if seqs != sorted(seqs):
            violations.append("total order: P%d delivered out of seq order" % proc)
        delivered_seqs[proc] = set(seqs)
        for rec in records:
            known = digest_by_seq.setdefault(rec.seq, rec.digest)
            if known != rec.digest:
                violations.append(
                    "uniqueness: seq %d delivered with different contents" % rec.seq
                )

    final_installs = {}
    for rec in trace.of_kind("membership.install"):
        if rec.proc in correct:
            final_installs[rec.proc] = rec
    final_rings = {proc: rec.ring for proc, rec in final_installs.items()}
    for p in sorted(delivered_seqs):
        for q in sorted(delivered_seqs):
            if p >= q:
                continue
            if final_rings.get(p) != final_rings.get(q):
                continue  # different membership histories: not comparable
            if delivered_seqs[p] != delivered_seqs[q]:
                missing = delivered_seqs[p] ^ delivered_seqs[q]
                violations.append(
                    "reliable delivery: P%d and P%d disagree on seqs %s"
                    % (p, q, sorted(missing)[:5])
                )

    last = max(final_installs.values(), key=lambda rec: rec.ring, default=None)
    members = set(correct) if last is None else set(correct) & set(last.members)
    originated = Counter(
        (rec.proc, rec.payload)
        for rec in trace.of_kind("multicast.originate")
        if rec.proc in members
    )
    handed_up = Counter(
        (proc, rec.payload)
        for proc in members
        for rec in per_proc[proc]
        if rec.sender == proc and rec.get("payload") is not None
    )
    lost = Counter()
    for (proc, payload), count in originated.items():
        lost[proc] += max(count - handed_up[proc, payload], 0)
    for proc in sorted(lost):
        if lost[proc]:
            violations.append(
                "reliable delivery: %d message(s) P%d originated never delivered there"
                % (lost[proc], proc)
            )
    return violations


def membership_violations(trace, correct, faulty=()):
    """Table 4 — processor membership protocol properties.

    * Uniqueness: the same ring id is never installed with two
      different memberships by correct processors.
    * Self-Inclusion: a correct processor only installs memberships
      containing itself.
    * Total Order: correct processors install memberships in the same
      (ring id) order, and their installation histories are
      prefix-consistent.
    * Eventual Exclusion: each faulty processor is absent from the
      final membership installed by every correct processor, and once
      excluded never readmitted.
    * Eventual Inclusion: every correct processor is in the final
      membership installed by every correct processor.
    """
    violations = []
    installs = {}
    by_ring = {}
    for rec in trace.of_kind("membership.install"):
        if rec.proc not in correct:
            continue
        installs.setdefault(rec.proc, []).append((rec.ring, tuple(rec.members)))
        known = by_ring.setdefault(rec.ring, tuple(rec.members))
        if known != tuple(rec.members):
            violations.append(
                "uniqueness: ring %d installed with different memberships" % rec.ring
            )
        if rec.proc not in rec.members:
            violations.append(
                "self-inclusion: P%d installed a membership excluding itself" % rec.proc
            )

    for proc, history in sorted(installs.items()):
        rings = [ring for ring, _ in history]
        if rings != sorted(rings):
            violations.append("total order: P%d installed rings out of order" % proc)
        for faulty_pid in faulty:
            seen_excluded = False
            for ring, members in history:
                if faulty_pid not in members:
                    seen_excluded = True
                elif seen_excluded:
                    violations.append(
                        "eventual exclusion: P%d readmitted faulty P%d in ring %d"
                        % (proc, faulty_pid, ring)
                    )
        if history:
            final_members = history[-1][1]
            for faulty_pid in faulty:
                if faulty_pid in final_members:
                    violations.append(
                        "eventual exclusion: P%d's final membership includes faulty P%d"
                        % (proc, faulty_pid)
                    )
            for other in sorted(correct):
                if other not in final_members:
                    violations.append(
                        "eventual inclusion: P%d's final membership omits correct P%d"
                        % (proc, other)
                    )

    # Prefix consistency across correct processors.
    procs = sorted(installs)
    for i, p in enumerate(procs):
        for q in procs[i + 1 :]:
            shared = min(len(installs[p]), len(installs[q]))
            if installs[p][:shared] != installs[q][:shared]:
                violations.append(
                    "total order: P%d and P%d installed divergent histories" % (p, q)
                )
    return violations


def detector_violations(trace, correct, faulty=()):
    """Table 5 — Byzantine fault detector properties.

    * Eventual Strong Byzantine Completeness: every processor that
      exhibited a fault is (permanently) suspected by every correct
      processor by the end of the run.
    * Eventual Strong Accuracy: no correct processor is ever suspected
      by a correct processor.
    """
    violations = []
    # Replay suspicion and absolution events to obtain the *final*
    # suspicion state: both Table 5 properties are "eventual" — a
    # transient timeout suspicion later withdrawn when the suspect
    # proved alive does not violate eventual strong accuracy.
    suspected_by = {}
    for rec in trace.of_kinds("detector.suspect", "detector.absolve"):
        if rec.observer not in correct:
            continue
        current = suspected_by.setdefault(rec.observer, set())
        if rec.kind == "detector.suspect":
            current.add(rec.suspect)
        elif rec.get("fully"):
            current.discard(rec.suspect)
    for faulty_pid in faulty:
        for observer in sorted(correct):
            if faulty_pid not in suspected_by.get(observer, set()):
                violations.append(
                    "completeness: correct P%d does not (finally) suspect faulty P%d"
                    % (observer, faulty_pid)
                )
    for observer, suspects in sorted(suspected_by.items()):
        wrongly = suspects & set(correct)
        for pid in sorted(wrongly):
            violations.append(
                "accuracy: correct P%d still suspects correct P%d at the end"
                % (observer, pid)
            )
    return violations
