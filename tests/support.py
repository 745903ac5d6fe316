"""Shared test harness: builds complete simulated multicast worlds."""

import random

from repro import perf
from repro.crypto import bignum, md4
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keystore import KeyStore
from repro.multicast.config import MulticastConfig, SecurityLevel
from repro.multicast.endpoint import SecureGroupEndpoint
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, NetworkParams
from repro.sim.process import Processor
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import TraceLog


def defeat_memos(monkeypatch):
    """Force every wall-clock memo to miss for the rest of the test.

    Every :class:`repro.perf.BytesKeyedCache` lookup returns its
    default (every registered memo is one), so each pure function
    is recomputed at every call.  A seeded run under this patch must
    equal the memoised run byte for byte — that is the proof that the
    memos save host CPU only.
    """
    monkeypatch.setattr(
        perf.BytesKeyedCache, "get", lambda self, key, default=None: default
    )
    perf.clear_caches()


def memo_reuse_distances(monkeypatch):
    """Record how far apart each memo hit is from the put it reads.

    Wraps :class:`repro.perf.BytesKeyedCache` ``get`` / ``put`` and
    empties every memo.  A put of a key its table does not hold is an
    *insertion*; every hit appends, under the table's name, a pair: the
    number of insertions into that table since the key's, and the key
    bytes (:func:`repro.perf.charge`) of the key's insertion and every
    later one.  Returns that dict, filled as the rest of the test runs.
    An entry survives later insertions that, with it, are charged at
    most half the budget (``perf.MEMO_BOUND × perf.ENTRY_BYTES``), so a
    hit whose byte distance is below that would hit under the bound too.
    """
    distances, inserted, charged, born = {}, {}, {}, {}
    real_get, real_put = perf.BytesKeyedCache.get, perf.BytesKeyedCache.put

    def get(self, key, default=None):
        value = real_get(self, key, default)
        if value is not default:
            count, total = born[self.name][key]
            distances.setdefault(self.name, []).append(
                (inserted[self.name] - count, charged[self.name] - total)
            )
        return value

    def put(self, key, value):
        if key not in self._table:
            name = self.name
            count = inserted[name] = inserted.get(name, 0) + 1
            total = charged.get(name, 0)
            born.setdefault(name, {})[key] = (count, total)
            charged[name] = total + perf.charge(key)
        return real_put(self, key, value)

    monkeypatch.setattr(perf.BytesKeyedCache, "get", get)
    monkeypatch.setattr(perf.BytesKeyedCache, "put", put)
    perf.clear_caches()
    return distances


def force_python_md4(monkeypatch):
    """Route ``md4_digest`` through the RFC 1320 Python code, memos emptied.

    Whatever backend ``repro.crypto.md4`` selected at import, the rest of
    the test (or of the ``monkeypatch.context()``) digests the way a
    platform without a usable libcrypto does.  A seeded run under this
    patch must equal the run on the selected backend byte for byte.
    """
    monkeypatch.setattr(md4, "_digest", md4._python_digest)
    perf.clear_caches()


def force_builtin_pow(monkeypatch):
    """Route every RSA exponentiation through builtin ``pow``.

    Whatever backend ``repro.crypto.bignum`` selected at import, every
    key pair drawn in the rest of the test (or of the
    ``monkeypatch.context()``) is drawn, signs and verifies the way a
    platform without a usable libcrypto does.  It must be the same key
    pair with the same signatures and verdicts, and a seeded run under
    this patch must equal the run on the selected backend byte for byte.
    """
    monkeypatch.setattr(bignum, "fixed_modulus", bignum._builtin_fixed_modulus)


def retained_operations(deployment):
    """The per-operation state a deployment still holds, summed over it.

    ``deployment`` is an ``ImmuneSystem`` or a federation (cluster, WAN
    site, WAN), walked through its children and the forwarders of its
    voted links.  Returns ``records`` (decided records the voters hold),
    ``pending`` (votes not yet decided) and ``keys`` (duplicate-filter
    keys: the Replication Managers', which passive drivers share, and
    the gateway forwarders').
    """
    totals = {"records": 0, "pending": 0, "keys": 0}

    def count(voters, filters):
        for voter in voters:
            totals["records"] += len(voter._decided)
            totals["pending"] += voter.pending_count()
        totals["keys"] += sum(len(dup) for dup in filters)

    def walk(node):
        if hasattr(node, "managers"):
            for manager in node.managers.values():
                hosted = manager._hosted.values()
                count([h.voter for h in hosted if h.voter is not None],
                      [h.dup for h in hosted])
            return
        children = node._children
        for child in children.values() if isinstance(children, dict) else children:
            walk(child)
        for link in node.links.values():
            for replica in link.replicas:
                for forwarder in (replica.forward_ab, replica.forward_ba):
                    count(forwarder._voters.values(), [forwarder.dup_filter])

    walk(deployment)
    return totals


class MulticastWorld:
    """N processors running the Secure Multicast Protocols on one LAN."""

    def __init__(
        self,
        num=4,
        security=SecurityLevel.SIGNATURES,
        seed=1,
        fault_plan=None,
        modulus_bits=256,
        config=None,
        obs=None,
    ):
        self.scheduler = Scheduler()
        self.streams = RngStreams(seed)
        self.trace = TraceLog(self.scheduler)
        self.fault_plan = fault_plan
        self.obs = obs
        if obs is not None:
            obs.bind(self.scheduler)
        self.network = Network(
            self.scheduler,
            params=NetworkParams(),
            rng=self.streams.stream("net"),
            fault_plan=fault_plan,
        )
        self.keystore = KeyStore(random.Random(seed), modulus_bits=modulus_bits)
        self.crypto_costs = CryptoCostModel(modulus_bits=modulus_bits)
        self.config = config or MulticastConfig(security=security)
        self.processors = {}
        self.endpoints = {}
        self.delivered = {}
        self.memberships = {}
        for proc_id in range(num):
            processor = Processor(proc_id, self.scheduler)
            self.network.add_processor(processor)
            endpoint = SecureGroupEndpoint(
                processor,
                self.scheduler,
                self.network,
                self.keystore,
                self.crypto_costs,
                self.config,
                self.trace,
                obs=obs,
            )
            self.processors[proc_id] = processor
            self.endpoints[proc_id] = endpoint
            self.delivered[proc_id] = []
            self.memberships[proc_id] = []
            endpoint.on_deliver(self._recorder(proc_id))
            endpoint.on_membership_change(self._membership_recorder(proc_id))
        if fault_plan is not None:
            fault_plan.arm_crashes(self.scheduler, self.processors)
            if obs is not None and getattr(obs, "forensics", None) is not None:
                for fault in fault_plan.ground_truth():
                    obs.forensics.record_ground_truth(
                        fault["fault_id"],
                        fault["kind"],
                        fault["culprit"],
                        fault["time"],
                    )

    def _recorder(self, proc_id):
        def record(sender_id, seq, dest_group, payload):
            self.delivered[proc_id].append((seq, sender_id, dest_group, payload))

        return record

    def _membership_recorder(self, proc_id):
        def record(ring_id, members, excluded):
            self.memberships[proc_id].append((ring_id, members, excluded))

        return record

    def start(self):
        members = sorted(self.endpoints)
        for proc_id in members:
            self.endpoints[proc_id].start(members)
        return self

    def run(self, until):
        self.scheduler.run(until=until)
        return self

    def correct_ids(self):
        return [pid for pid, proc in sorted(self.processors.items()) if not proc.crashed]

    def delivered_payloads(self, proc_id):
        return [payload for _, _, _, payload in self.delivered[proc_id]]
