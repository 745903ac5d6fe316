"""Guard: every observable surface of ``repro.obs`` and ``repro.bench``
has a reader.

A surface nothing reads is paid for at every run and shows nothing.
Three kinds are scanned, each as the literal that creates it:

* (a) CLI flags, ``add_argument("--…")`` under ``obs/`` and ``bench/``;
* (b) JSONL record types, ``"record": "…"`` produced under ``obs/``;
* (c) metric families created with a literal ``.counter/.gauge/
  .histogram("…")`` anywhere under ``src/repro``.  Families derived
  from a layer's ``stats`` through ``derive_counters`` are not scanned.

A reader is a CI step, ``ladder/``, ``benchmarks/``, an integration
test, or a module that consumes what another produced (the ones in
:data:`CONSUMERS`, and ``bench/`` other than the producer).  A unit test
is not a reader: a surface whose only reader is its own unit test goes,
and the test with it.  The metric catalogue of docs/OBSERVABILITY.md is
held to the families that exist.
"""

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: modules under src/repro that read what another module produced
CONSUMERS = ("obs/export.py", "obs/slo.py", "obs/watch.py", "obs/critpath.py",
             "obs/report.py")

#: record type -> (reader, what the reader reads it by).  A record that
#: serialises an in-process value is read where that value is read.
RECORD_READERS = {
    "run": ("src/repro/obs/watch.py", 'kind == "run"'),
    "metric": ("tests/integration/test_obs_end_to_end.py", "registry.snapshot()"),
    "series": ("src/repro/obs/watch.py", 'kind == "series"'),
    "span": ("src/repro/obs/report.py", '("series", "span")'),
    "stage": ("tests/integration/test_obs_end_to_end.py", 'summary["stage_breakdown"]'),
    "alert": ("src/repro/obs/watch.py", 'kind == "alert"'),
    "critpath": ("tests/integration/test_obs_slo_end_to_end.py", 'critpath["per_cause"]'),
    "summary": ("src/repro/obs/report.py", 'kind == "summary"'),
    "trace_run": ("tests/integration/test_obs_exports_pinned.py", '{"workload": "pinned"'),
    "trace": ("tests/integration/test_trace_end_to_end.py", 'record["nodes"]'),
    "trace_summary": ("tests/integration/test_obs_exports_pinned.py",
                      "collector.summary(records)"),
}

#: a module whose ``main`` is run as another module's CLI
CLI_OF = {"repro.bench.scenarios": "repro.bench", "repro.bench.trend": "repro.bench"}

FAMILY = r"[a-z_]+\.[a-z_]+"


def readers():
    """Every file that counts as a reader."""
    paths = [CI]
    for directory in ("ladder", "benchmarks", "tests/integration"):
        paths += sorted((ROOT / directory).rglob("*.py"))
    paths += [SRC / name for name in CONSUMERS]
    paths += sorted((SRC / "bench").glob("*.py"))
    return paths


def _python(*directories):
    return [path for directory in directories for path in sorted(directory.glob("*.py"))]


# ----------------------------------------------------------------------
# (a) CLI flags
# ----------------------------------------------------------------------

def cli_flags():
    """``(module as run with -m, flag)`` of every flag an obs or bench
    parser declares."""
    flags = set()
    for path in _python(SRC / "obs", SRC / "bench"):
        module = "repro.bench" if path.parent.name == "bench" else "repro.obs." + path.stem
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument":
                flags |= {
                    (module, arg.value) for arg in node.args
                    if isinstance(arg, ast.Constant) and arg.value.startswith("--")
                }
    return flags


def flags_in_ci():
    """``(module, flag)`` on every CI command line that runs ``-m repro.…``."""
    text = re.sub(r"\\\n\s*", " ", CI.read_text())
    found = set()
    for line in text.splitlines():
        for module in re.findall(r"-m (repro[a-z_.]*)", line):
            found |= {(module, flag) for flag in re.findall(r"(?<!\S)(--[a-z][a-z-]*)", line)}
    return found


def flags_passed_to_main(path):
    """``(module, flag)`` for each flag literal passed to an imported CLI
    ``main`` in ``path``."""
    tree = ast.parse(path.read_text())
    mains = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            for alias in node.names:
                if alias.name == "main":
                    mains[alias.asname or "main"] = CLI_OF.get(node.module, node.module)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in mains:
            found |= {
                (mains[node.func.id], const.value) for const in ast.walk(node)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
                and const.value.startswith("--")
            }
    return found


def test_every_cli_flag_has_a_reader():
    flags = cli_flags()
    assert ("repro.obs.report", "--quick") in flags  # the scan sees parsers
    read = flags_in_ci()
    for path in readers():
        if path.suffix == ".py":
            read |= flags_passed_to_main(path)
    unread = flags - read
    assert not unread, "CLI flags nothing sets: %s" % sorted(unread)


# ----------------------------------------------------------------------
# (b) JSONL record types
# ----------------------------------------------------------------------

def record_types():
    """``record type -> producing files`` under src/repro/obs."""
    produced = {}
    for path in _python(SRC / "obs"):
        for kind in re.findall(r'"record": "([a-z_]+)"', path.read_text()):
            produced.setdefault(kind, set()).add(path)
    return produced


def test_every_record_type_has_a_reader():
    produced = record_types()
    assert {"run", "summary", "trace"} <= set(produced)  # the scan sees exports
    unlisted = set(produced) - set(RECORD_READERS)
    assert not unlisted, "record types without a reader: %s" % sorted(unlisted)
    stale = set(RECORD_READERS) - set(produced)
    assert not stale, "readers of record types nothing produces: %s" % sorted(stale)
    allowed = set(readers())
    for kind, (reader, needle) in sorted(RECORD_READERS.items()):
        path = ROOT / reader
        assert path in allowed and path not in produced[kind], (kind, reader)
        assert needle in path.read_text(), "%s no longer reads %r" % (reader, kind)


# ----------------------------------------------------------------------
# (c) metric families
# ----------------------------------------------------------------------

def created_families():
    """``family -> creating files`` for every literal-named metric."""
    created = {}
    pattern = re.compile(r'\.(?:counter|gauge|histogram)\(\s*"(%s)"' % FAMILY)
    for path in sorted(SRC.rglob("*.py")):
        for name in pattern.findall(path.read_text()):
            created.setdefault(name, set()).add(path)
    return created


def test_every_created_metric_family_has_a_reader():
    created = created_families()
    assert "span.end_to_end_seconds" in created  # the scan sees creators
    texts = {path: path.read_text() for path in readers()}
    unread = sorted(
        name for name, producers in created.items()
        if not any('"%s"' % name in text for path, text in texts.items()
                   if path not in producers)
    )
    assert not unread, "metric families nothing reads: %s" % unread


def existing_families():
    """The literal-named families plus every family a single-ring
    deployment registers by construction (the derived counters)."""
    from repro.core.config import ImmuneConfig, SurvivabilityCase
    from repro.core.immune import ImmuneSystem
    from repro.obs import Observability
    from repro.workloads.open_loop import ECHO_IDL, EchoServant

    obs = Observability()
    immune = ImmuneSystem(
        num_processors=4,
        config=ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY),
        obs=obs,
    )
    immune.deploy("echo", ECHO_IDL, lambda pid: EchoServant(), [0, 1])
    immune.deploy_client("driver", [2, 3])
    return set(created_families()) | {entry["name"] for entry in obs.registry.snapshot()}


def test_the_metric_catalogue_lists_exactly_the_families_that_exist():
    docs = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = docs.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    catalogued = set()
    for first_cell in re.findall(r"^\| ([^|]+) \|", section, re.MULTILINE):
        catalogued |= set(re.findall(r"`(%s)`" % FAMILY, first_cell))
    assert catalogued == existing_families()
