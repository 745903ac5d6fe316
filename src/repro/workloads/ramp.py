"""An open-loop ramp workload for the elasticity subsystem.

Traffic grows while the cluster changes shape: independent transfer
*streams* come online one after another (each stream is its own
replicated teller client group, so streams never perturb each other's
operation numbering), and every stream fires cross-branch transfers at
a fixed period regardless of completion — an open-loop arrival process
whose offered load steps up as streams start.

The invariants are strict enough to catch a single dropped or
duplicated invocation anywhere in a migration window:

* every branch replica runs an :class:`AuditedBankServant`, which
  appends each *effective* (balance-changing) operation to an audit
  ledger carried inside the checkpoint state — the ledger survives
  live migration with the balances;
* every transfer moves a globally unique amount, so ledger entries are
  identities: a duplicated deposit shows up as a deposit amount with no
  second matching withdraw, a duplicated withdraw as a repeated ledger
  amount, and a lost leg as money in flight that never lands;
* :meth:`RampBank.audit` checks the conservation identity *at any
  instant*, quiescent or not: seeded total == balances held at the
  branches + amounts withdrawn but not yet deposited (in flight);
* :meth:`RampBank.settled` additionally requires, once the run drains,
  that nothing is left in flight, every scheduled transfer produced
  exactly one withdraw reply (and one deposit reply) per teller
  replica, and all replicas of every branch agree byte-for-byte.
"""

from repro.orb.schema import Schema, one_of
from repro.workloads.bank import BANK_IDL, BankServant, Branches

#: audit ledger entry kinds, encoded as octets in the checkpoint
_LEDGER_KINDS = {"w": 0, "d": 1, "t": 2}
_LEDGER_NAMES = {v: k for k, v in _LEDGER_KINDS.items()}

#: an audited branch's checkpoint: the bank's own, then the ledger
_ENTRY = ("record", (("kind", one_of("octet", _LEDGER_NAMES)), ("amount", "longlong")))
_STATE = Schema(("bank", "octets"), ("ledger", ("sequence", _ENTRY)))


class AuditedBankServant(BankServant):
    """A bank servant that remembers every effective operation.

    The ledger rides inside ``get_state``/``set_state``, so a replica
    built from a migration checkpoint carries the full execution
    history of its group — which is what lets the workload audit
    exactly-once execution *across* the move, not just after it.
    """

    def __init__(self):
        super().__init__()
        #: [(kind, amount)] for every effective op, in execution order
        self.ledger = []

    def deposit(self, account, amount):
        result = super().deposit(account, amount)
        if result >= 0:
            self.ledger.append(("d", amount))
        return result

    def withdraw(self, account, amount):
        result = super().withdraw(account, amount)
        if result >= 0:
            self.ledger.append(("w", amount))
        return result

    def transfer(self, source, destination, amount):
        result = super().transfer(source, destination, amount)
        if result:
            self.ledger.append(("t", amount))
        return result

    def get_state(self):
        ledger = [(_LEDGER_KINDS[kind], amount) for kind, amount in self.ledger]
        return _STATE.pack((super().get_state(), ledger))

    def set_state(self, state):
        bank, ledger = _STATE.unpack(state)
        super().set_state(bank)
        self.ledger = [(_LEDGER_NAMES[kind], amount) for kind, amount in ledger]

    @classmethod
    def from_state(cls, state):
        servant = cls()
        servant.set_state(state)
        return servant


class RampBank(Branches):
    """Staggered open-loop transfer streams over an elastic cluster.

    ``streams`` teller groups start ``stream_stagger`` apart from
    ``start``; stream ``s`` fires one cross-branch transfer every
    ``period`` from its start until :meth:`schedule`'s horizon.
    Transfers chain the deposit on each teller replica's own voted
    withdraw reply (the :class:`~repro.workloads.bank.MultiBranchBank`
    idiom), so keep ``period`` comfortably above one full transfer
    round trip.
    """

    branch_names = ("branch0", "branch1", "branch2", "branch3")
    initial_balance = 1_000_000
    stream_stagger = 0.5
    start = 0.3

    def __init__(self, cluster, streams=4, period=0.25):
        self.cluster = cluster
        self.num_streams = streams
        self.period = period
        factory = self.seeded(AuditedBankServant)
        self.branches = {}
        for name in self.branch_names:
            self.branches[name] = cluster.deploy(
                "bank.%s" % name,
                BANK_IDL,
                factory,
                servant_from_state=AuditedBankServant.from_state,
            )
        self.tellers = []
        self._stubs = []
        for s in range(streams):
            teller = cluster.deploy_client("bank.teller%d" % s)
            self.tellers.append(teller)
            self._stubs.append(
                {
                    name: cluster.client_stubs(teller, BANK_IDL, handle)
                    for name, handle in self.branches.items()
                }
            )
        #: label -> {"withdraw": replies, "deposit": replies, "ok": bool}
        self.transfers = {}
        self.failed = []
        #: globally unique per-transfer amounts: stream s, shot k gets
        #: s * _AMOUNT_STRIDE + k + 1
        self._scheduled = 0

    _AMOUNT_STRIDE = 100_000

    # ------------------------------------------------------------------
    # the open-loop schedule
    # ------------------------------------------------------------------

    def stream_start(self, s):
        return self.start + s * self.stream_stagger

    def schedule(self, until):
        """Pre-schedule every shot of every stream up to ``until``."""
        for s in range(self.num_streams):
            at = self.stream_start(s)
            k = 0
            while at < until:
                self._schedule_shot(s, k, at)
                k += 1
                at = self.stream_start(s) + k * self.period
        return self

    def _schedule_shot(self, s, k, at):
        branches = self.branch_names
        src = branches[(s + k) % len(branches)]
        dst = branches[(s + k + 1) % len(branches)]
        account = 1 + (k % self.accounts_per_branch)
        amount = s * self._AMOUNT_STRIDE + k + 1
        label = "s%d/%d:%s->%s:%d" % (s, k, src, dst, amount)
        state = {"withdraw": 0, "deposit": 0, "ok": True}
        self.transfers[label] = state
        stubs = self._stubs[s]
        dst_stub_by_pid = dict(stubs[dst])
        self._scheduled += 1

        def fire():
            for pid, stub in stubs[src]:
                dst_stub = dst_stub_by_pid[pid]

                def on_withdrawn(value, dst_stub=dst_stub):
                    state["withdraw"] += 1
                    if value < 0:
                        state["ok"] = False
                        self.failed.append((label, "withdraw", value))
                        return
                    dst_stub.deposit(
                        account, amount, reply_to=self._on_deposited(label, state)
                    )

                stub.withdraw(account, amount, reply_to=on_withdrawn)

        self.cluster.scheduler.at(at, fire, label="ramp.transfer")

    def _on_deposited(self, label, state):
        def on_reply(value):
            state["deposit"] += 1
            if value < 0:
                state["ok"] = False
                self.failed.append((label, "deposit", value))

        return on_reply

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _reference_servants(self):
        """One servant per branch: the lowest-pid live replica's."""
        out = {}
        for name, handle in self.branches.items():
            pid = min(handle.servants)
            out[name] = handle.servants[pid]
        return out

    def audit(self):
        """The conservation identity, valid at *any* simulated instant.

        ``seeded total == held at branches + in flight``, where the in-
        flight amount is reconstructed from the audit ledgers: every
        withdrawn amount that no branch has (yet) deposited.  Also
        checks the exactly-once ledger properties — globally unique
        withdraw amounts, and no deposit without a matching withdraw.
        """
        servants = self._reference_servants()
        grand = sum(s.total_assets() for s in servants.values())
        withdrawn = []
        deposited = []
        for servant in servants.values():
            for kind, amount in servant.ledger:
                if kind == "w":
                    withdrawn.append(amount)
                elif kind == "d":
                    deposited.append(amount)
        unique = len(set(withdrawn)) == len(withdrawn) and len(
            set(deposited)
        ) == len(deposited)
        matched = set(deposited) <= set(withdrawn)
        in_flight = sum(withdrawn) - sum(deposited)
        conserved = (
            unique
            and matched
            and in_flight >= 0
            and grand + in_flight == self.expected_total()
        )
        return {
            "conserved": conserved,
            "grand_total": grand,
            "in_flight": in_flight,
            "withdraws": len(withdrawn),
            "deposits": len(deposited),
            "unique": unique,
            "matched": matched,
        }

    def settled(self):
        """The quiescent end-of-run verdict: the audit holds with
        nothing in flight, every scheduled shot produced one withdraw
        and one deposit reply per teller replica, nothing failed, and
        the replicas agree."""
        audit = self.audit()
        degree = len(self.tellers[0].replica_procs)
        complete = all(
            state["withdraw"] == degree and state["deposit"] == degree
            for state in self.transfers.values()
        )
        return {
            "ok": (
                audit["conserved"]
                and audit["in_flight"] == 0
                and complete
                and not self.failed
                and self.replicas_agree()
            ),
            "audit": audit,
            "scheduled": self._scheduled,
            "complete": complete,
            "failed": len(self.failed),
            "replicas_agree": self.replicas_agree(),
        }
