"""Structured trace log for property checking.

The property tables of the paper (Tables 2, 4 and 5) are statements
about *histories*: which processor delivered which message in which
order, which memberships were installed, who was suspected when.  The
protocol layers append :class:`TraceRecord` entries to a shared
:class:`TraceLog`; the property checkers in ``repro.bench.properties``
and the tests then assert over the completed history.

A kind is recorded only if something reads it — a record with no reader
recognises nothing and is paid for at every site.  These are all the
kinds there are (``tests/unit/test_trace_kinds.py`` holds the record
sites to this table, to the one in docs/OBSERVABILITY.md and to the
readers); a new kind arrives together with its reader:

===========================  ==========================================
kind                         read by
===========================  ==========================================
``multicast.originate``      Table 2 checkers (``bench.properties``)
``multicast.deliver``        Table 2 checkers (``bench.properties``)
``membership.install``       Table 4 checkers (``bench.properties``)
``detector.suspect``         Table 5 checkers (``bench.properties``)
``detector.absolve``         Table 5 checkers (``bench.properties``)
``membership.join_refused``  ``test_rejoin``
===========================  ==========================================

Everything else a layer can tell goes to the metrics registry (through
its ``stats`` dict), to the flight recorders of
:mod:`repro.obs.forensics` or to the causal trace of
:mod:`repro.obs.trace`.
"""

class TraceRecord:
    """One timestamped event in the global history."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time, kind, fields):
        self.time = time
        self.kind = kind
        self.fields = fields

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def get(self, name, default=None):
        return self.fields.get(name, default)

    def __repr__(self):
        body = ", ".join("%s=%r" % kv for kv in sorted(self.fields.items()))
        return "TraceRecord(%.6f, %s, %s)" % (self.time, self.kind, body)


class TraceLog:
    """Append-only log of simulation events, indexed by kind.

    It records every kind it is handed; a deployment that records none
    (``ImmuneSystem(trace_kinds=frozenset())``) hands its layers no log.
    """

    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.records = []
        self._by_kind = {}

    def record(self, kind, **fields):
        rec = TraceRecord(self._scheduler.now, kind, fields)
        self.records.append(rec)
        self._by_kind.setdefault(kind, []).append(rec)
        return rec

    def of_kind(self, kind):
        """All records of ``kind``, in time order."""
        return list(self._by_kind.get(kind, ()))

    def of_kinds(self, *kinds):
        """Records of any of ``kinds``, merged in global order."""
        wanted = set(kinds)
        return [rec for rec in self.records if rec.kind in wanted]

    def where(self, kind, **match):
        """Records of ``kind`` whose fields equal every ``match`` item."""
        out = []
        for rec in self._by_kind.get(kind, ()):
            if all(rec.fields.get(key) == value for key, value in match.items()):
                out.append(rec)
        return out

    def count(self, kind):
        return len(self._by_kind.get(kind, ()))

    def kinds(self):
        return sorted(self._by_kind)
