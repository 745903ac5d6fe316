"""Integration gate: memoisation is invisible to simulated results.

Simulated CPU is charged by the cost model before any memo is
consulted, so a hit may save host CPU but never move a simulated
number.  Each seeded drill runs three times in one process:

* **cold** — every memo emptied first (``perf.clear_caches()``);
* **warm** — again, with whatever the first run left behind;
* **defeated** — every memo forced to miss (``tests.support.defeat_memos``),
  so every digest, verification, encode and decode is recomputed.

The observability JSONL export and the simulated fingerprint of the
three runs must be byte-identical.  A memo that returned a stale or
wrong value, or a code path that charged simulated time only on a miss,
would make the warm or the defeated run differ.
"""

import json

import pytest

from repro import perf
from repro.bench.harness import run_packet_driver_case
from repro.bench.perf import _sim_fingerprint
from repro.core.config import SurvivabilityCase
from repro.obs import Observability
from repro.obs.export import export_jsonl
from repro.obs.forensics import build_report, run_intrusion_drill
from tests.support import defeat_memos


def figure7_case4_drill(path):
    """Seeded Figure-7 full-survivability run with observability on."""
    case, interval_us, seed = SurvivabilityCase.FULL_SURVIVABILITY, 300, 7
    obs = Observability()
    result = run_packet_driver_case(
        case, interval_us * 1e-6, duration=0.08, warmup=0.04, seed=seed, obs=obs
    )
    export_jsonl(
        path, obs,
        run_info={"case": case.name, "interval_us": interval_us, "seed": seed},
    )
    return _sim_fingerprint(result)


def batch_intrusion_drill(path):
    """Value fault, mutant token and crash on the batch-signature pipeline."""
    _immune, obs, scenario = run_intrusion_drill(batch=True)
    export_jsonl(path, obs, run_info=scenario)
    return build_report(obs.forensics, scenario=scenario)


def _run(drill, path):
    fingerprint = drill(str(path))
    return path.read_bytes(), json.dumps(fingerprint, sort_keys=True)


@pytest.mark.parametrize("drill", [figure7_case4_drill, batch_intrusion_drill])
def test_cold_warm_and_defeated_memos_agree_byte_for_byte(drill, tmp_path, monkeypatch):
    perf.clear_caches()
    cold = _run(drill, tmp_path / "cold.jsonl")
    warm = _run(drill, tmp_path / "warm.jsonl")
    hits = {name: stats["hits"] for name, stats in perf.cache_stats().items()}
    assert hits["crypto.digest"] > 0 and hits["giop.decode"] > 0, hits

    defeat_memos(monkeypatch)
    defeated = _run(drill, tmp_path / "defeated.jsonl")
    assert all(stats["hits"] == 0 for stats in perf.cache_stats().values())

    assert cold[0].count(b"\n") > 100
    assert warm == cold
    assert defeated == cold
