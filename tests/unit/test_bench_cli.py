"""The one bench CLI: argument handling, and the guard that keeps it one.

Every bench used to carry its own ``__main__`` and parser, and three of
them read ``sys.argv`` by hand, so a mistyped ``--quick`` ran the full
sweep silently.  Now ``python -m repro.bench NAME`` is the only entry
point, and argparse rejects what it does not know.
"""

import ast
import pathlib

import pytest

import repro
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
