"""Guard: ``repro.obs`` imports nothing from ``repro.bench``.

The benches measure the system with the observability layer attached;
the layer itself must not depend on them.  The services and the
open-loop driver the obs CLIs' drills need live in ``repro.workloads``.
"""

import ast
import pathlib

import repro

OBS = pathlib.Path(repro.__file__).parent / "obs"


def bench_imports(path):
    """``(line, module)`` of every import of ``repro.bench`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):  # also ``from repro import bench``
            modules = ["%s.%s" % (node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, module)
            for module in modules
            if module == "repro.bench" or module.startswith("repro.bench.")
        ]
    return found


def test_obs_does_not_import_bench():
    offenders = [
        "%s:%d %s" % (path.name, line, module)
        for path in sorted(OBS.rglob("*.py"))
        for line, module in bench_imports(path)
    ]
    assert not offenders, "repro.obs imports repro.bench: %s" % offenders
