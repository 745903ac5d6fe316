"""Guard: no code under ``src/repro`` rebinds a protocol or network method.

A Byzantine behaviour acts at the compromised processor's network edge
(``Processor.stage``, :mod:`repro.multicast.adversary`); it never
replaces a method on a network, a processor, an endpoint or one of the
protocols, which would let it read and reorder protocol internals.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.multicast.delivery import DeliveryProtocol
from repro.multicast.detector import ByzantineFaultDetector
from repro.multicast.endpoint import SecureGroupEndpoint
from repro.multicast.membership import MembershipEngine
from repro.sim.network import Network
from repro.sim.process import Processor

GUARDED = (
    Network,
    Processor,
    SecureGroupEndpoint,
    DeliveryProtocol,
    MembershipEngine,
    ByzantineFaultDetector,
)


def methods_of(cls):
    return {
        name
        for klass in cls.__mro__[:-1]
        for name, value in vars(klass).items()
        if inspect.isfunction(value) and name != "__init__"
    }


METHODS = {cls.__name__: methods_of(cls) for cls in GUARDED}


def method_assignments(source):
    """``(line, attribute)`` of every assignment that binds a guarded
    method name on another object (or on ``self`` inside the guarded
    class that has that method)."""
    every = set().union(*METHODS.values())
    found = []

    def scan(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for leaf in target.elts if isinstance(target, ast.Tuple) else [target]:
                if not isinstance(leaf, ast.Attribute):
                    continue
                on_self = isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
                if leaf.attr in (METHODS.get(cls, set()) if on_self else every):
                    found.append((leaf.lineno, leaf.attr))
        for child in ast.iter_child_nodes(node):
            scan(child, cls)

    scan(ast.parse(source), None)
    return found


def test_the_scan_sees_a_method_assignment():
    source = (
        "def tap(network, spy):\n"
        "    network.broadcast = spy\n"
        "    network.processor, self.stage = spy, spy\n"
        "class Network:\n"
        "    def __init__(self, spy):\n"
        "        self.unicast = spy\n"
        "        self.stats = {}\n"
    )
    assert method_assignments(source) == [(2, "broadcast"), (3, "processor"), (6, "unicast")]


def test_no_module_assigns_to_a_protocol_or_network_method():
    assert {"broadcast", "on_regular", "_originate_token", "register_handler"} <= set().union(
        *METHODS.values()
    )
    root = Path(repro.__file__).parent
    offenders = [
        "%s:%d %s" % (path.relative_to(root), line, attr)
        for path in sorted(root.rglob("*.py"))
        for line, attr in method_assignments(path.read_text())
    ]
    assert offenders == []
