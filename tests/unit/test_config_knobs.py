"""Guard: every optional keyword of a config or facade constructor has
a setter.

A keyword no caller sets is a configuration that nothing runs: it costs
a parameter, a docstring line and a code path, and shows nothing.  The
constructors in :data:`AUDITED` are scanned; each of their optional
keywords must be *set* somewhere in ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``ladder/``, where set means passed a
value that is not its default by one of three kinds of call:

* a direct call of the constructor (positional or keyword; a subclass
  that forwards ``**kwargs`` to an audited constructor counts as that
  constructor for the keywords it does not take itself);
* a ``(name, value)`` pair of a ``Scenario``'s ``config`` (resolved
  through the scenario's ``shape`` to its config class), or a
  ``("name", value, ...)`` row of a ``pytest.mark.parametrize`` over a
  function that calls the constructor;
* a same-named pass-through (``x=x`` or ``x=self.x``) inside another
  audited constructor's class counts only when that constructor's own
  ``x`` is set.

A keyword with no setter becomes a constant under the same attribute
name, or goes.  The knobs the paper varies (case, ``j``, the modulus,
the degree of replication) all have setters in ``repro.bench``.

A test or an example is not a reason for a keyword either: the keywords
that only ``tests/`` and ``examples/`` set are exactly those of
:data:`SET_ONLY_BY_TESTS`, each with its reason.  A test that needs
another value of a constant patches the class attribute.
"""

import ast
import pathlib
from collections import namedtuple

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent
CALLERS = ("src", "tests", "benchmarks", "examples", "ladder")

#: class name -> the module under src/repro that defines it
AUDITED = {
    "MulticastConfig": "multicast/config.py",
    "ImmuneConfig": "core/config.py",
    "ClusterConfig": "cluster/config.py",
    "WanConfig": "wan/config.py",
    "SiteSpec": "wan/config.py",
    "CryptoCostModel": "crypto/costmodel.py",
    "NetworkParams": "sim/network.py",
    "PlacementEngine": "cluster/placement.py",
    "ImmuneSystem": "core/immune.py",
    "ClusterManager": "cluster/manager.py",
    "WanManager": "wan/manager.py",
    "ElasticCluster": "elastic/manager.py",
    "MigrationCoordinator": "elastic/migration.py",
    "TraceLog": "sim/tracing.py",
}

#: ``Scenario.shape`` -> the config class its ``config`` pairs build
SHAPE_CONFIG = {
    "ring": "ImmuneConfig",
    "cluster": "ClusterConfig",
    "wan": "WanConfig",
    "elastic": "ElasticConfig",
}

Ctor = namedtuple("Ctor", "params defaults base forwards")


def _dump(node):
    return ast.dump(node, annotate_fields=False, include_attributes=False)


def _python(directories):
    return [path for directory in directories for path in sorted(directory.rglob("*.py"))]


def constructors(paths):
    """``class name -> Ctor`` for every class in ``paths`` with an
    ``__init__``: its parameters in order (``self`` dropped), the dumped
    default of each optional one, its first base and whether it
    forwards ``**kwargs``."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            init = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"), None)
            if init is None:
                continue
            args = init.args
            positional = [arg.arg for arg in args.args[1:]]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):],
                                map(_dump, args.defaults)))
            defaults.update((arg.arg, _dump(default))
                            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                            if default is not None)
            base = node.bases[0].id if node.bases and isinstance(node.bases[0], ast.Name) else None
            found[node.name] = Ctor(positional + [arg.arg for arg in args.kwonlyargs],
                                    defaults, base, args.kwarg is not None)
    return found


class _Scan(ast.NodeVisitor):
    """Collects direct setters and pass-through edges from one module."""

    def __init__(self, where, ctors, audited, setters, edges):
        self.where, self.ctors, self.audited = where, ctors, audited
        self.setters, self.edges = setters, edges
        self.classes = []
        self.scenarios = {}

    def owner(self, callee, name):
        """The audited class that takes keyword ``name`` of a call to
        ``callee``, following ``**kwargs`` forwarding to a base."""
        while callee in self.ctors:
            ctor = self.ctors[callee]
            if name in ctor.params or not ctor.forwards:
                return callee if callee in self.audited else None
            callee = ctor.base
        return None

    def offer(self, callee, name, value, line):
        owner = self.owner(callee, name)
        if owner is None or name not in self.ctors[owner].defaults:
            return
        if _dump(value) == self.ctors[owner].defaults[name]:
            return
        enclosing = self.classes[-1] if self.classes else None
        passed = (value.id if isinstance(value, ast.Name) else
                  value.attr.lstrip("_") if isinstance(value, ast.Attribute)
                  and isinstance(value.value, ast.Name) and value.value.id == "self"
                  else None)
        if passed == name and enclosing in self.audited and name in self.ctors[enclosing].params:
            self.edges.add(((enclosing, name), (owner, name)))
            return
        self.setters.setdefault((owner, name), set()).add("%s:%d" % (self.where, line))

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Assign(self, node):
        # ``NAME = Scenario(shape=...)``, for a later ``replace(NAME, config=...)``
        if isinstance(node.value, ast.Call) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            self.scenarios[node.targets[0].id] = self._shape(node.value)
        self.generic_visit(node)

    def _shape(self, call):
        for keyword in call.keywords:
            if keyword.arg == "shape" and isinstance(keyword.value, ast.Constant):
                return keyword.value.value
        if call.args and isinstance(call.args[0], ast.Name):
            return self.scenarios.get(call.args[0].id, "ring")
        return "ring"

    def visit_FunctionDef(self, node):
        called = {_callee(call) for call in ast.walk(node) if isinstance(call, ast.Call)}
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) and _callee(decorator) == "parametrize" \
                    and len(decorator.args) > 1 \
                    and isinstance(decorator.args[1], (ast.List, ast.Tuple)):
                for row in decorator.args[1].elts:
                    for callee in called:
                        self._pairs(callee, [row], multi=True)
        self.generic_visit(node)

    def _pairs(self, callee, rows, multi=False):
        for row in rows:
            if isinstance(row, ast.Tuple) and len(row.elts) >= 2 \
                    and isinstance(row.elts[0], ast.Constant) \
                    and isinstance(row.elts[0].value, str) \
                    and (multi or len(row.elts) == 2):
                for value in row.elts[1:]:
                    self.offer(callee, row.elts[0].value, value, row.lineno)

    def visit_Call(self, node):
        callee = _callee(node)
        if callee == "__init__" and isinstance(node.func.value, ast.Call) \
                and _callee(node.func.value) == "super" and self.classes:
            callee = self.ctors.get(self.classes[-1], Ctor((), {}, None, False)).base
        if callee in ("Scenario", "replace"):
            for keyword in node.keywords:
                if keyword.arg == "config" and isinstance(keyword.value, ast.Tuple):
                    self._pairs(SHAPE_CONFIG.get(self._shape(node)), keyword.value.elts)
        elif callee in self.ctors:
            params = self.ctors[callee].params
            for name, value in zip(params, node.args):
                if isinstance(value, ast.Starred):
                    break
                self.offer(callee, name, value, node.lineno)
            for keyword in node.keywords:
                if keyword.arg is not None:
                    self.offer(callee, keyword.arg, keyword.value, node.lineno)
        self.generic_visit(node)


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def scan(paths, audited, defined_in=None):
    """``(class, keyword) -> {"file:line", ...}`` of every setter in
    ``paths`` of an optional keyword of an ``audited`` class (classes
    are read from ``defined_in``, default ``paths``)."""
    ctors = constructors(defined_in or paths)
    setters, edges = {}, set()
    for path in paths:
        where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
        _Scan(where, ctors, set(audited), setters, edges).visit(ast.parse(path.read_text()))
    grew = True
    while grew:
        grew = False
        for source, target in sorted(edges):
            if source in setters and target not in setters:
                setters[target] = {"%s.%s" % source}
                grew = True
    return setters, ctors


def inventory(ctors, audited):
    """``(class, keyword)`` of every optional keyword of ``audited``."""
    return {(name, keyword) for name in audited for keyword in ctors[name].defaults}


#: the keywords every setter of which lies under ``tests/`` or
#: ``examples/``, and why each is still a keyword
SET_ONLY_BY_TESTS = {
    ("ClusterConfig", "case"): "the paper's cases, under which tests run clusters",
    ("WanConfig", "case"): "the paper's cases, under which tests run federations",
    ("ClusterManager", "fault_plans"): "fault injection into one ring of a cluster",
    ("WanManager", "fault_plan"): "fault injection on the WAN links",
    ("NetworkParams", "jitter"): "a LAN without jitter, for exact arrival times",
    ("WanConfig", "loss_prob"): "correlated WAN loss, ROADMAP item 16",
    ("WanConfig", "loss_burst"): "correlated WAN loss, ROADMAP item 16",
    ("ElasticCluster", "config"): "bench/build.py sets it through its shape table",
}


def test_every_optional_keyword_has_a_setter():
    setters, ctors = scan(_python(ROOT / d for d in CALLERS), AUDITED,
                          defined_in=_python([SRC]))
    assert set(AUDITED) <= set(ctors)
    for name, module in AUDITED.items():
        assert "class %s" % name in (SRC / module).read_text(), (name, module)
    keywords = inventory(ctors, AUDITED)
    assert ("ImmuneConfig", "modulus_bits") in keywords  # the scan sees constructors
    unset = sorted(keywords - set(setters))
    assert not unset, "optional keywords no caller sets: %s" % unset


def test_no_keyword_is_set_only_by_tests_unless_listed():
    """A value that only tests or examples set is a constant that a test
    patches: "with one value in use, ask for a constant"."""
    keywords = inventory(constructors(_python([SRC])), AUDITED)
    outside, _ = scan(_python(ROOT / d for d in CALLERS if d not in ("tests", "examples")),
                      AUDITED, defined_in=_python([SRC]))
    assert keywords - set(outside) == set(SET_ONLY_BY_TESTS)


def test_the_scan_finds_real_setters_in_scenario_pairs_and_parametrize_rows():
    setters, _ = scan(_python(ROOT / d for d in CALLERS), AUDITED,
                      defined_in=_python([SRC]))
    assert any(where.startswith("src/repro/bench/cluster.py")
               for where in setters[("ClusterConfig", "placement_mode")])
    assert any(where.startswith("src/repro/bench/ablations.py")
               for where in setters[("ImmuneConfig", "modulus_bits")])
    assert any(where.startswith("tests/unit/test_placement.py")
               for where in setters[("ClusterConfig", "case")])


SYNTHETIC = '''
class Knobs:
    def __init__(self, used=1, unused=2, relayed=3, shaped=4):
        pass

class Facade:
    def __init__(self, relayed=3, config=None):
        self.relayed = relayed
        self.knobs = Knobs(relayed=self.relayed, used=used)

class Scaled(Knobs):
    def __init__(self, extra=0, **kwargs):
        super().__init__(**kwargs)

Knobs(1, unused=2)
Knobs(used=5)
Facade(config=object())
Scaled(shaped=9)
'''

PARAMETRIZED = '''
@pytest.mark.parametrize("field,low,high", [("unused", 0, 9)])
def test_ranges(field, low, high):
    Knobs(**{field: low})
'''


def test_the_scan_reports_an_unset_and_a_pass_through_only_keyword(tmp_path):
    source = tmp_path / "synthetic.py"
    source.write_text(SYNTHETIC)
    audited = ("Knobs", "Facade")
    setters, ctors = scan([source], audited)
    unset = inventory(ctors, audited) - set(setters)
    assert unset == {("Knobs", "unused"), ("Knobs", "relayed"), ("Facade", "relayed")}
    # once the facade's own keyword is set, its pass-through sets the knob
    source.write_text(SYNTHETIC + "Facade(relayed=7)\n")
    setters, ctors = scan([source], audited)
    assert inventory(ctors, audited) - set(setters) == {("Knobs", "unused")}
    assert setters[("Knobs", "relayed")] == {"Facade.relayed"}
    # a ("name", value, ...) row of a parametrize over a call sets it
    source.write_text(SYNTHETIC + "Facade(relayed=7)\n" + PARAMETRIZED)
    setters, ctors = scan([source], audited)
    assert inventory(ctors, audited) == set(setters)
