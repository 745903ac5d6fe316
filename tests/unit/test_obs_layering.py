"""Guard: ``repro.obs`` imports nothing from ``repro`` outside ``repro.obs``.

The observability layer is a library: the stack hands it events, and
the benches measure the system with it attached.  It builds no
deployment and runs no drill of its own (those are rows of
``python -m repro.bench``), so it needs nothing but itself.
"""

import ast
import pathlib

import repro

OBS = pathlib.Path(repro.__file__).parent / "obs"


def repro_imports(path):
    """``(line, module)`` of every import of a ``repro`` module in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):  # also ``from repro import bench``
            modules = ["%s.%s" % (node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, module) for module in modules
            if module == "repro" or module.startswith("repro.")
        ]
    return found


def test_obs_imports_only_obs():
    imports = {
        path: repro_imports(path) for path in sorted(OBS.rglob("*.py"))
    }
    traced = {module for _line, module in imports[OBS / "trace.py"]}
    assert "repro.obs.export.fmt_seconds" in traced  # the scan sees imports
    offenders = [
        "%s:%d %s" % (path.name, line, module)
        for path, found in imports.items()
        for line, module in found
        if not module.startswith("repro.obs.")
    ]
    assert not offenders, "repro.obs imports outside repro.obs: %s" % offenders
