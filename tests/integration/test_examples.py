"""Every example runs to the end as a script.

The examples are the first code a reader runs, and several assert what
they demonstrate (``intrusion_drill.py`` requires precision and recall
of 1.0).  Each runs here as ``__main__``, exactly as ``python
examples/NAME.py`` would.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs_as_a_script(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
