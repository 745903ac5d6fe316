"""Guard: every TraceLog kind has a writer *and* a reader.

A kind recorded by the protocol layers but read by nothing is paid for
at every site and recognises nothing; a kind a checker reads but nobody
records makes the checker pass vacuously.  The set of kinds is written
down twice for people (``repro.sim.tracing``'s docstring and
docs/OBSERVABILITY.md) and exists once for real (the ``record`` call
sites); this test holds the three together and to the readers.
"""

import pathlib
import re

import repro
from repro.sim import tracing

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent
KIND = r"[a-z_]+\.[a-z_]+"


def _python_under(*directories):
    return [
        path
        for directory in directories
        for path in sorted(directory.rglob("*.py"))
        if path != pathlib.Path(__file__)
    ]


def recorded_kinds():
    """Kind literals at every ``_trace.record(`` site under src/repro."""
    kinds, sites = [], 0
    for path in _python_under(SRC):
        text = path.read_text()
        sites += text.count("_trace.record(")
        kinds += re.findall(r'_trace\.record\(\s*"(%s)"' % KIND, text)
    assert sites == len(kinds), "a record site does not name its kind as a literal"
    return kinds


def read_kinds(paths):
    """Kind literals inside TraceLog query calls in ``paths``."""
    read = set()
    for path in paths:
        for call in re.findall(
            r"\.(?:of_kinds?|where|count)\(([^)]*)\)", path.read_text()
        ):
            read |= set(re.findall(r'"(%s)"' % KIND, call))
    return read


def test_recorded_kinds_are_exactly_the_tabulated_ones():
    recorded = recorded_kinds()
    assert len(recorded) == len(set(recorded)) == 6  # one site per kind
    in_docstring = re.findall(r"^``(%s)``  +\S" % KIND, tracing.__doc__, re.MULTILINE)
    assert sorted(in_docstring) == sorted(recorded)
    docs = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = docs.split("## The trace log", 1)[1].split("\n## ", 1)[0]
    in_docs = re.findall(r"^\| `(%s)` \|[^|]*\| *[^| ]" % KIND, section, re.MULTILINE)
    assert sorted(in_docs) == sorted(recorded)


def test_every_recorded_kind_has_a_reader():
    readers = _python_under(ROOT / "tests", ROOT / "benchmarks")
    readers.append(SRC / "bench" / "properties.py")
    unread = set(recorded_kinds()) - read_kinds(readers)
    assert not unread, "TraceLog kinds nothing reads: %s" % sorted(unread)


def test_every_kind_the_property_checkers_read_is_recorded():
    read = read_kinds([SRC / "bench" / "properties.py"])
    assert read == {
        "multicast.originate",
        "multicast.deliver",
        "membership.install",
        "detector.suspect",
        "detector.absolve",
    }
    assert read <= set(recorded_kinds())
