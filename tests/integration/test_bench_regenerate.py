"""The cheap committed artefacts regenerate byte for byte through the CLI.

``python -m repro.bench NAME`` with no flag writes exactly the committed
file; byte-identical artefacts are the refactoring licence.  The three
scenarios here take a few seconds together; ``cluster`` and ``wan`` are
compared by CI's ``determinism`` job.
"""

import pathlib

import pytest

from repro.bench.scenarios import SCENARIOS, main

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["perf", "elastic", "trend"])
def test_committed_artefact_regenerates_byte_for_byte(name, tmp_path, capsys):
    artefact = SCENARIOS[name].artefact
    out = tmp_path / artefact
    assert main([name, "--dir", str(ROOT), "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / artefact).read_bytes()
    assert "wrote %s" % out in capsys.readouterr().out
