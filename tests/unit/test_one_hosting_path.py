"""Guard: one routine installs a replica and one withdraws it.

Who hosts a group is written in three places: the servant on the ORB's
object adapter, the facade's ``GroupHandle`` and the Replication
Manager.  They stay in step only while every caller goes through
``ImmuneSystem._install_replica`` and ``ImmuneSystem.withdraw_replica``,
so no other code under ``src/repro`` activates or deactivates a servant.
"""

import ast
from pathlib import Path

import repro

#: the call -> the one routine allowed to make it
ROUTINES = {
    "register_servant": "_install_replica",
    "adapter.deactivate": "withdraw_replica",
}


def _dotted(func):
    """``a.b.c`` -> ``"b.c"`` for a call's function (the last two names)."""
    names = []
    while isinstance(func, ast.Attribute):
        names.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        names.append(func.id)
    return ".".join(reversed(names[:2]))


def call_sites(source):
    """``(call, line, enclosing function)`` for every call in ``source``
    that ends in one of :data:`ROUTINES`' names."""
    found = []

    def scan(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            for call in ROUTINES:
                if dotted == call or dotted.endswith("." + call):
                    found.append((call, node.lineno, function))
        for child in ast.iter_child_nodes(node):
            scan(child, function)

    scan(ast.parse(source), None)
    return found


def test_the_scan_sees_a_second_call_site():
    source = (
        "class ImmuneSystem:\n"
        "    def _install_replica(self, pid, servant):\n"
        "        self.orbs[pid].register_servant('g', servant, None)\n"
        "def crash(immune, pid):\n"
        "    immune.orbs[pid].adapter.deactivate('g')\n"
        "    orb.register_servant('g', None, None)\n"
        "    adapter.deactivate('g')\n"
        "    orb.deactivate('g')\n"
    )
    assert call_sites(source) == [
        ("register_servant", 3, "_install_replica"),
        ("adapter.deactivate", 5, "crash"),
        ("register_servant", 6, "crash"),
        ("adapter.deactivate", 7, "crash"),
    ]


def test_one_routine_installs_and_one_withdraws_a_replica():
    root = Path(repro.__file__).parent
    sites = sorted(
        (call, str(path.relative_to(root)), function)
        for path in sorted(root.rglob("*.py"))
        for call, _line, function in call_sites(path.read_text())
    )
    assert sites == sorted(
        (call, "core/immune.py", routine) for call, routine in ROUTINES.items()
    )
