"""Integration gate: how the host computes is invisible to simulated results.

Simulated CPU is charged by the cost model before any memo is
consulted and whichever MD4 backend runs, so a hit or a native digest
may save host CPU but never move a simulated number.  Each seeded drill
runs five times in one process:

* **cold** — every memo emptied first (``perf.clear_caches()``);
* **warm** — again, with whatever the first run left behind;
* **python MD4** — cold again, with ``md4_digest`` routed through the
  RFC 1320 Python code instead of the backend selected at import
  (``repro.crypto.md4.BACKEND``);
* **bounded** — cold again, with ``perf.MEMO_BOUND`` patched to 2, so
  once a table holds two entries every put evicts the older one;
* **defeated** — every memo forced to miss (``tests.support.defeat_memos``),
  so every digest, verification, encode and decode is recomputed.

The observability JSONL export and the simulated fingerprint of the
five runs must be byte-identical.  A memo that returned a stale or
wrong value, a code path that charged simulated time only on a miss or
that read an entry eviction had dropped, or a backend that disagreed
with RFC 1320 on one input would make a run differ.

The frame-decode memo is *seeded* by ``encode()``: receivers of an
uncorrupted broadcast are handed the originator's own object and parse
nothing.  ``encode()`` also *seals* tokens and certificates with the
signable bytes it wrote, which those receivers verify signatures over;
with the memos defeated every receiver parses an unsealed object of its
own, so the comparison above covers the seal too — and the field dict a
sealed frame hands every recorder that logs it, which a parsed frame
rebuilds per call.  The last four tests poison the seed, the seal, that
shared summary and — one bit of every digest — the selected MD4 backend,
and require the comparison to notice.
"""

import json

import pytest

from repro import perf
from dataclasses import replace

from repro.bench.build import build
from repro.bench.drills import run_intrusion_drill
from repro.bench.harness import measure, packet_case
from repro.bench.perf import _sim_fingerprint
from repro.cluster import ClusterConfig, ClusterManager
from repro.core.config import SurvivabilityCase
from repro.crypto import md4
from repro.multicast import messages, token
from repro.obs import Observability
from repro.obs.export import export_jsonl
from repro.obs.forensics import DEFAULT_CAPACITY, ForensicsHub, build_report
from repro.wan import WanConfig, WanManager
from repro.workloads.open_loop import COUNTER_IDL
from repro.workloads.open_loop import CounterServant as _CountingServant
from tests.support import defeat_memos, force_python_md4


def figure7_case4_drill(path):
    """Seeded Figure-7 full-survivability run with observability on."""
    case, interval_us, seed = SurvivabilityCase.FULL_SURVIVABILITY, 300, 7
    scenario = packet_case(case, interval_us * 1e-6, duration=0.08, warmup=0.04)
    built = build(replace(scenario, seed=seed, forensics=DEFAULT_CAPACITY)).run()
    export_jsonl(
        path, built.obs,
        run_info={"case": case.name, "interval_us": interval_us, "seed": seed},
    )
    return _sim_fingerprint(measure(built))


def batch_intrusion_drill(path):
    """Value fault, mutant token and crash on the batch-signature pipeline."""
    built, scenario = run_intrusion_drill(batch=True)
    export_jsonl(path, built.obs, run_info=scenario)
    return build_report(built.obs.forensics, scenario=scenario)


def two_ring_digests_drill(path):
    """DIGESTS-level cluster: a counter on ring 1 invoked from ring 0
    through the voted gateways and from its own ring — unsigned tokens,
    message digests, two rings' idle rotation around the traffic."""
    obs = Observability(forensics=ForensicsHub())
    cluster = ClusterManager(
        ClusterConfig(num_rings=2, case=SurvivabilityCase.MAJORITY_VOTING, seed=5), obs=obs
    )
    server = cluster.deploy("counter", COUNTER_IDL, lambda pid: _CountingServant(), ring=1)
    clients = [cluster.deploy_client("driver%d" % ring, ring=ring) for ring in (0, 1)]
    cluster.start()
    replies = []

    def invoke(stub, n):
        stub.add(n, reply_to=replies.append)

    for k in range(12):
        for _pid, stub in cluster.client_stubs(clients[k % 2], COUNTER_IDL, server):
            cluster.scheduler.at(0.05 + 0.02 * k, invoke, stub, k + 1)
    cluster.run(until=0.6)
    export_jsonl(path, obs, run_info={"drill": "two-ring-digests"})
    return {
        "executions": {pid: s.calls for pid, s in sorted(server.servants.items())},
        "totals": {pid: s.total for pid, s in sorted(server.servants.items())},
        "replies": sorted(replies),
        "gateways": cluster.gateway_stats(),
        "events": cluster.scheduler.events_executed,
        "now": cluster.scheduler.now,
    }


def two_site_wan_drill(path):
    """Two sites, one cross-site two-way stream: the voted link at the
    hop that re-originates after a flight (``wan.deliver`` events carry
    the encoded winner across 15 ms), beside the chassis hop above."""
    obs = Observability(forensics=ForensicsHub())
    wan = WanManager(WanConfig(sites=("alpha", "beta"), seed=5, latency=0.015), obs=obs)
    server = wan.deploy("counter", COUNTER_IDL, lambda pid: _CountingServant(), site="beta")
    client = wan.deploy_client("driver", site="alpha")
    wan.start()
    replies = []

    def invoke(stub, n):
        stub.add(n, reply_to=replies.append)

    for k in range(8):
        for _pid, stub in wan.client_stubs(client, COUNTER_IDL, server):
            wan.scheduler.at(0.05 + 0.03 * k, invoke, stub, k + 1)
    wan.run(until=0.6)
    export_jsonl(path, obs, run_info={"drill": "two-site-wan"})
    return {
        "executions": {pid: s.calls for pid, s in sorted(server.servants.items())},
        "replies": sorted(replies),
        "gateways": wan.gateway_stats(),
        "events": wan.scheduler.events_executed,
        "now": wan.scheduler.now,
    }


def _run(drill, path):
    fingerprint = drill(str(path))
    return path.read_bytes(), json.dumps(fingerprint, sort_keys=True)


@pytest.mark.parametrize(
    "drill",
    [figure7_case4_drill, batch_intrusion_drill, two_ring_digests_drill, two_site_wan_drill],
)
def test_cold_warm_and_defeated_memos_agree_byte_for_byte(drill, tmp_path, monkeypatch):
    perf.clear_caches()
    cold = _run(drill, tmp_path / "cold.jsonl")
    warm = _run(drill, tmp_path / "warm.jsonl")
    hits = {name: stats["hits"] for name, stats in perf.cache_stats().items()}
    assert hits["crypto.digest"] > 0 and hits["giop.decode"] > 0, hits
    assert hits["multicast.decode"] > 0, hits

    with monkeypatch.context() as patch:
        force_python_md4(patch)
        python_md4 = _run(drill, tmp_path / "python_md4.jsonl")

    with monkeypatch.context() as patch:
        patch.setattr(perf, "MEMO_BOUND", 2)
        perf.clear_caches()
        bounded = _run(drill, tmp_path / "bounded.jsonl")
        assert all(stats["size"] <= 2 for stats in perf.cache_stats().values())

    defeat_memos(monkeypatch)
    defeated = _run(drill, tmp_path / "defeated.jsonl")
    assert all(stats["hits"] == 0 for stats in perf.cache_stats().values())

    assert cold[0].count(b"\n") > 100
    assert warm == cold
    assert python_md4 == cold
    assert bounded == cold
    assert defeated == cold


def test_a_poisoned_frame_seed_is_caught(tmp_path, monkeypatch):
    """The two-ring drill is sensitive to what ``encode()`` seeds.

    Seed every token's bytes with a token that claims one more message:
    receivers, handed the memo's object instead of parsing, chase a
    message nobody sent.  With the memos defeated the poison is never
    read, so the memoised run must differ from the defeated one.
    """

    def poisoned(raw, frame):
        if type(frame) is token.Token:
            fields = {
                slot: getattr(frame, slot)
                for slot in token.Token.__slots__
                if not slot.startswith("_")
            }
            fields["seq"] += 1
            frame = token.Token(**fields)
        messages._FRAME_CACHE.put(raw, frame)
        return raw

    monkeypatch.setattr(messages, "_seeded", poisoned)
    monkeypatch.setattr(token, "_seeded", poisoned)
    perf.clear_caches()
    memoised = _run(two_ring_digests_drill, tmp_path / "poisoned.jsonl")
    defeat_memos(monkeypatch)
    defeated = _run(two_ring_digests_drill, tmp_path / "defeated.jsonl")
    assert memoised != defeated


def test_a_poisoned_seal_is_caught(tmp_path, monkeypatch):
    """The batch intrusion drill is sensitive to what ``encode()`` seals.

    Receivers of an uncorrupted certificate check its signature over the
    signable bytes the issuer's ``encode()`` kept on the shared object,
    not over a re-encoding of their own.  Seal every certificate with
    the bytes of one that vouches a different first digest: no receiver
    can verify anything, so nothing is ever authenticated.  With the
    memos defeated every receiver parses an unsealed object of its own
    and the poison is never read, so the two runs must differ.
    """
    real_seal = token.TokenCertificate._seal

    def poisoned(self, signable):
        raw = real_seal(self, signable)
        other = bytes(byte ^ 0xFF for byte in self.digests[0])
        self._sealed = token.TokenCertificate(
            self.signer_id, self.ring_id, self.first_visit, [other] + self.digests[1:]
        ).signable_bytes()
        return raw

    monkeypatch.setattr(token.TokenCertificate, "_seal", poisoned)
    perf.clear_caches()
    memoised = _run(batch_intrusion_drill, tmp_path / "poisoned.jsonl")
    defeat_memos(monkeypatch)
    defeated = _run(batch_intrusion_drill, tmp_path / "defeated.jsonl")
    assert memoised != defeated


def test_a_poisoned_frame_summary_is_caught(tmp_path, monkeypatch):
    """The batch intrusion drill is sensitive to a sealed frame's summary.

    Every flight recorder that logs a sealed token is handed one field
    dict, built by whoever logs the frame first and kept on the shared
    object.  Leave on every sealed token a summary that counts one more
    digest than the token carries: each receiver of the memo's object
    records the lie.  With the memos defeated every receiver parses an
    unsealed object of its own and builds its own dict, so only the
    originators read the poison and the two forensic reports must differ.
    """
    real_seal = token.Token._seal

    def poisoned(self, signable):
        raw = real_seal(self, signable)
        self._summary = dict(
            self.forensic_summary(), digests=len(self.message_digest_list) + 1
        )
        return raw

    monkeypatch.setattr(token.Token, "_seal", poisoned)
    perf.clear_caches()
    memoised = _run(batch_intrusion_drill, tmp_path / "poisoned.jsonl")
    defeat_memos(monkeypatch)
    defeated = _run(batch_intrusion_drill, tmp_path / "defeated.jsonl")
    assert memoised != defeated


def test_a_poisoned_md4_backend_is_caught(tmp_path, monkeypatch):
    """The intrusion drill is sensitive to what ``md4_digest`` returns.

    Flip one bit of every digest the selected backend produces — what a
    native MD4 that got past the import self-test and still disagreed
    with RFC 1320 would look like.  Every processor computes the same
    wrong digest, so nothing is discarded; but certificates and the
    forensics report carry digests, so the run must differ from the one
    on the Python code.
    """
    selected = md4._digest

    def poisoned(message):
        digest = selected(message)
        return bytes([digest[0] ^ 0x01]) + digest[1:]

    monkeypatch.setattr(md4, "_digest", poisoned)
    perf.clear_caches()
    flipped = _run(batch_intrusion_drill, tmp_path / "poisoned.jsonl")
    force_python_md4(monkeypatch)
    reference = _run(batch_intrusion_drill, tmp_path / "python_md4.jsonl")
    assert flipped != reference
