"""The one bench CLI: argument handling, and the guards that keep it one.

Every bench used to carry its own ``__main__`` and parser, and three of
them read ``sys.argv`` by hand, so a mistyped ``--quick`` ran the full
sweep silently.  Now ``python -m repro.bench NAME`` is the only entry
point, and argparse rejects what it does not know.  Every deployment a
row runs is built by ``repro.bench.build.build`` from a ``Scenario``
value, which is plain data.
"""

import ast
import importlib
import pathlib

import pytest

import repro
from repro.bench.build import Scenario, build
from repro.bench.scenarios import SCENARIOS, main

BENCH = pathlib.Path(repro.__file__).parent / "bench"


@pytest.mark.parametrize(
    "argv",
    [[], ["nope"], ["pr2"], ["figure7", "--quik"], ["report", "--ful"], ["latency", "x"]],
)
def test_unknown_scenario_or_flag_exits_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: python -m repro.bench" in capsys.readouterr().err


def test_every_runnable_scenario_is_a_choice(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    for name, scenario in SCENARIOS.items():
        assert (name in usage) == (scenario.runner is not None), name


def _is_main_guard(node):
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def _is_parser(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "ArgumentParser"


def test_bench_has_one_parser_and_one_main_block():
    parsers, guards = [], []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _is_parser(node):
                parsers.append(path.name)
            if _is_main_guard(node):
                guards.append(path.name)
    assert parsers == ["scenarios.py"]
    assert guards == ["__main__.py"]


#: the deployment facades; constructing one is what build() is for
FACADES = {"ImmuneSystem", "ClusterManager", "WanManager", "ElasticCluster"}


def construction_sites(path):
    """``(line, facade)`` of every call in ``path`` that constructs one."""
    return [
        (node.lineno, node.func.id) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in FACADES
    ]


def test_build_is_the_one_construction_site_in_bench_and_obs():
    sites = {
        "%s/%s" % (path.parent.name, path.name): construction_sites(path)
        for directory in (BENCH, BENCH.parent / "obs")
        for path in sorted(directory.glob("*.py"))
    }
    assert sites.pop("bench/build.py"), "the scan sees build's construction"
    assert not {name: found for name, found in sites.items() if found}


def module_level_scenarios():
    """``(module, name, value)`` of every module-level Scenario in bench."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        module = importlib.import_module("repro.bench." + path.stem)
        found += [
            (path.stem, name, value) for name, value in sorted(vars(module).items())
            if isinstance(value, Scenario)
        ]
    return found


def test_every_module_level_scenario_round_trips_through_repr():
    scenarios = module_level_scenarios()
    assert len({id(value) for _module, _name, value in scenarios}) >= 8
    for module, name, value in scenarios:
        assert eval(repr(value), {"Scenario": Scenario}) == value, (module, name)


def test_a_second_link_fault_window_is_refused_not_dropped():
    """A ``FaultPlan`` holds one link-fault window: a scenario naming two
    is an error that names both, not a plan that keeps only the last."""
    faults = (("loss", 0.25, 0, 2), ("corruption", 0.15, 1, 3))
    with pytest.raises(ValueError, match=r"\('loss', 0\.25.*\('corruption', 0\.15"):
        build(Scenario(faults=faults))
