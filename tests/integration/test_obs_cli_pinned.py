"""The report and watch CLI outputs, pinned by digest.

``python -m repro.obs.report --quick`` and ``--slo`` write the JSONL
exports that CI runs twice and ``cmp``s, and ``python -m repro.obs.watch
--frames 8`` replays the ``--slo`` export; determinism alone would let
all three drift from one commit to the next.  A change that merely moves
where a record is produced must leave these bytes as they are; a change
that alters an export on purpose re-takes its digest and says why.

The digests were taken once the metric families, the ``sample`` record
and the summary keys that nothing read were deleted: the parent's
exports, with exactly those removed (and the deleted sampler's own
scheduler events taken out of the scheduler's counts), are these bytes.
"""

import hashlib

import pytest

from repro.obs.report import main as report_main
from repro.obs.watch import main as watch_main

QUICK_SHA256 = "6cbc9ef8cbe627f782bc8ac63f81bc9bfb2c5331c1ff7d4b082efc5fd6b65e90"
SLO_SHA256 = "fc5372e434314e95634a8eda8eb94ad8713fbb72dd78f6cf3896a790b77468f5"
WATCH_SHA256 = "ed4a31f6af1da2cd56da6c8e435d78e3b1c8fde750b3d419625133e16e166559"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def slo_export(tmp_path_factory):
    directory = tmp_path_factory.mktemp("slo")
    assert report_main(["--slo", "--out", str(directory / "slo.jsonl")]) == 0
    return directory


def test_the_quick_report_export_is_the_pinned_bytes(tmp_path, capsys):
    assert report_main(["--quick", "--out", str(tmp_path / "quick.jsonl")]) == 0
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
