"""The observability drills' exports and the watch replay, pinned by digest.

``python -m repro.bench report``, ``slo``, ``forensics``,
``forensics-batch``, ``trace`` and ``trace-cluster`` write the files CI
runs twice and ``cmp``s, and ``python -m repro.obs.watch --frames 8``
replays the ``slo`` export; determinism alone would let all of them
drift from one commit to the next, and a move that changes both runs
the same way.  A change that merely moves where a record is produced
must leave these bytes as they are; a change that alters an export on
purpose re-takes its digest and says why.

The report digests were taken once the metric families, the ``sample``
record and the summary keys that nothing read were deleted: the
parent's exports, with exactly those removed (and the deleted sampler's
own scheduler events taken out of the scheduler's counts), are these
bytes.  The forensics and trace digests are the files the drills wrote
when each was its own ``repro.obs`` CLI, before they became rows.
"""

import hashlib

import pytest

from repro.bench.scenarios import main
from repro.obs.watch import main as watch_main

QUICK_SHA256 = "6cbc9ef8cbe627f782bc8ac63f81bc9bfb2c5331c1ff7d4b082efc5fd6b65e90"
SLO_SHA256 = "fc5372e434314e95634a8eda8eb94ad8713fbb72dd78f6cf3896a790b77468f5"
WATCH_SHA256 = "ed4a31f6af1da2cd56da6c8e435d78e3b1c8fde750b3d419625133e16e166559"

#: ``(row, --smoke)`` -> sha256 of its ``--out`` file; the smoke form of
#: a forensics row runs recorders of 128 rows.
ROW_SHA256 = {
    ("forensics", False):
        "d9f59066dd4add1a3429b180e6aa886e783373f0a3df4264cb1c33dd54d66af9",
    ("forensics", True):
        "e2fbb52632a333214b7ab2100582ce315ace16339beadc61dadcda0cb50a0c61",
    ("forensics-batch", False):
        "07d91537523a2d15772e0e46bb39435b0c23672a6effacab41e317a836c7824c",
    ("forensics-batch", True):
        "707a062bb38b2ab558c52831fc9d9608ed15efef9b6866c60ab06c26fd1b3aac",
    ("trace", False):
        "95fcd853cfa09eb485147c19fea9f01cab55aa0fd6498b2e9f9abf82d3424dab",
    ("trace-cluster", False):
        "a7026a6ce1f3905abccca15139fb99ae18df6d1114ddb1286168a3cb80a5b59f",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def slo_export(tmp_path_factory):
    directory = tmp_path_factory.mktemp("slo")
    assert main(["slo", "--out", str(directory / "slo.jsonl")]) == 0
    return directory


def test_the_quick_report_export_is_the_pinned_bytes(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "quick.jsonl")]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "quick.jsonl") == QUICK_SHA256


def test_the_slo_report_export_is_the_pinned_bytes(slo_export):
    assert _sha256(slo_export / "slo.jsonl") == SLO_SHA256


def test_eight_watch_frames_of_the_slo_export_are_the_pinned_bytes(
    slo_export, capsys, monkeypatch
):
    capsys.readouterr()
    # The last line names the replayed file as given: run it as
    # `python -m repro.obs.watch --replay slo.jsonl --frames 8` would be.
    monkeypatch.chdir(slo_export)
    assert watch_main(["--replay", "slo.jsonl", "--frames", "8"]) == 0
    frames = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(frames).hexdigest() == WATCH_SHA256


@pytest.mark.parametrize(
    "name, smoke", sorted(ROW_SHA256),
    ids=["%s%s" % (name, "-smoke" if smoke else "") for name, smoke in sorted(ROW_SHA256)],
)
def test_each_drill_row_export_is_the_pinned_bytes(name, smoke, tmp_path, capsys):
    argv = [name, "--out", str(tmp_path / "out")] + (["--smoke"] if smoke else [])
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "out") == ROW_SHA256[name, smoke]
