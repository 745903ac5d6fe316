"""A survivable bank — the kind of critical service the paper targets.

Replicated accounts with strict invariants (no overdrafts, conserved
total balance across transfers) make state divergence observable: if a
corrupted replica's wrong answer were ever delivered, or an invocation
were duplicated, the invariants would break.  The examples and the
Table 1 fault drills use this workload to show continuous correct
service under replica corruption and processor loss.
"""

from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.orb.schema import Schema

BANK_IDL = InterfaceDef(
    "Bank",
    [
        OperationDef(
            "open_account",
            [ParamDef("owner", "string"), ParamDef("initial", "long")],
            result="long",
        ),
        OperationDef(
            "deposit",
            [ParamDef("account", "long"), ParamDef("amount", "long")],
            result="long",
        ),
        OperationDef(
            "withdraw",
            [ParamDef("account", "long"), ParamDef("amount", "long")],
            result="long",
        ),
        OperationDef(
            "transfer",
            [
                ParamDef("source", "long"),
                ParamDef("destination", "long"),
                ParamDef("amount", "long"),
            ],
            result="boolean",
        ),
        OperationDef("balance", [ParamDef("account", "long")], result="long"),
        OperationDef("total_assets", [], result="long"),
    ],
)

#: a branch's checkpoint: the next account id, then (id, balance) by id
_STATE = Schema(
    ("next_id", "ulong"),
    ("accounts", ("sequence", ("record", (("id", "ulong"), ("balance", "longlong"))))),
)


class BankServant:
    """A deterministic in-memory bank with checkpointable state."""

    def __init__(self):
        self._accounts = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # operations (plain Python: the servant never sees the Immune system)
    # ------------------------------------------------------------------

    def open_account(self, owner, initial):
        account = self._next_id
        self._next_id += 1
        self._accounts[account] = initial
        return account

    def deposit(self, account, amount):
        if account not in self._accounts or amount < 0:
            return -1
        self._accounts[account] += amount
        return self._accounts[account]

    def withdraw(self, account, amount):
        balance = self._accounts.get(account)
        if balance is None or amount < 0 or amount > balance:
            return -1  # no overdrafts
        self._accounts[account] = balance - amount
        return self._accounts[account]

    def transfer(self, source, destination, amount):
        if (
            source not in self._accounts
            or destination not in self._accounts
            or amount < 0
            or self._accounts[source] < amount
        ):
            return False
        self._accounts[source] -= amount
        self._accounts[destination] += amount
        return True

    def balance(self, account):
        return self._accounts.get(account, -1)

    def total_assets(self):
        return sum(self._accounts.values())

    # ------------------------------------------------------------------
    # checkpointing (used by replica reallocation)
    # ------------------------------------------------------------------

    def get_state(self):
        return _STATE.pack((self._next_id, sorted(self._accounts.items())))

    def set_state(self, state):
        self._next_id, accounts = _STATE.unpack(state)
        self._accounts = dict(accounts)

    @classmethod
    def from_state(cls, state):
        servant = cls()
        servant.set_state(state)
        return servant


class Branches:
    """Branch groups of ``accounts_per_branch`` accounts, each seeded at
    ``initial_balance``: what the cluster, WAN and ramp banks share."""

    accounts_per_branch = 2
    initial_balance = 100

    def seeded(self, servant_class):
        """A servant factory: every replica seeds the same accounts, ids
        1..k at the initial balance (deterministic, so replicas
        coincide)."""

        def factory(pid):
            servant = servant_class()
            for k in range(self.accounts_per_branch):
                servant.open_account("acct%d" % k, self.initial_balance)
            return servant

        return factory

    def expected_total(self):
        return (
            len(self.branch_names) * self.accounts_per_branch * self.initial_balance
        )

    def replicas_agree(self):
        """Every branch's replicas hold identical state."""
        for name, handle in self.branches.items():
            states = {servant.get_state() for servant in handle.servants.values()}
            if len(states) > 1:
                return False
        return True


class MultiBranchBank(Branches):
    """The bank at cluster scale: branches sharded across token rings.

    Each branch is its own replicated object group, placed on a ring by
    the cluster's deterministic placement engine (or pinned with
    ``branch_homes``), while one replicated teller client group drives
    them all.  A transfer between branches on different rings is a
    *cross-ring* flow: the withdraw travels to the source branch's ring
    through the gateway, and the deposit — issued by each teller replica
    upon its own voted withdraw reply, keeping the replicas' operation
    numbering aligned — travels to the destination branch's ring.  The
    conservation invariant (total assets across all branches constant)
    then checks gateway exactly-once end-to-end: a duplicated deposit or
    a lost withdraw would break it.

    ``federation`` is a cluster or a WAN: a home (``branch_homes``
    values, ``teller_home``) is a ring index or a site name, whichever
    the federation's hop scopes by.
    """

    def __init__(self, federation, branches=3, branch_homes=None, teller_home=None):
        #: the scheduling helpers only use its ``scheduler``
        self.cluster = federation
        if isinstance(branches, int):
            branches = ["branch%d" % i for i in range(branches)]
        self.branch_names = list(branches)
        self._scope = federation.hop.scope
        branch_homes = branch_homes or {}
        factory = self.seeded(BankServant)
        self.branches = {}
        for name in self.branch_names:
            self.branches[name] = federation.deploy(
                "bank.%s" % name, BANK_IDL, factory,
                **{self._scope: branch_homes.get(name)}
            )
        self.teller, self._stubs = self.add_teller("bank.teller", teller_home)
        #: operation outcomes: [(op label, reply value)] per teller reply
        self.replies = []
        self.failed = []

    def add_teller(self, group_name, home):
        """Deploy another replicated teller; returns (handle, stubs)
        where ``stubs`` plugs into the scheduling helpers' ``stubs``
        argument."""
        handle = self.cluster.deploy_client(group_name, **{self._scope: home})
        stubs = {
            name: self.cluster.client_stubs(handle, BANK_IDL, branch)
            for name, branch in self.branches.items()
        }
        return handle, stubs

    # ------------------------------------------------------------------
    # scheduled operations (all replicas driven identically)
    # ------------------------------------------------------------------

    def _record(self, label, value, ok):
        self.replies.append((label, value))
        if not ok(value):
            self.failed.append((label, value))

    def schedule_deposit(self, at, branch, account, amount, stubs=None):
        label = "deposit:%s#%d+%d@%g" % (branch, account, amount, at)
        stubs = self._stubs if stubs is None else stubs

        def fire():
            for pid, stub in stubs[branch]:
                stub.deposit(
                    account,
                    amount,
                    reply_to=lambda v: self._record(label, v, lambda r: r >= 0),
                )

        self.cluster.scheduler.at(at, fire, label="bank.deposit")

    def schedule_withdraw(self, at, branch, account, amount, stubs=None):
        label = "withdraw:%s#%d-%d@%g" % (branch, account, amount, at)
        stubs = self._stubs if stubs is None else stubs

        def fire():
            for pid, stub in stubs[branch]:
                stub.withdraw(
                    account,
                    amount,
                    reply_to=lambda v: self._record(label, v, lambda r: r >= 0),
                )

        self.cluster.scheduler.at(at, fire, label="bank.withdraw")

    def schedule_transfer(
        self, at, src_branch, src_account, dst_branch, dst_account, amount, stubs=None
    ):
        """A cross-branch transfer: withdraw, then deposit on the reply.

        Each teller replica issues the deposit from its *own* withdraw
        reply, so every replica issues the same operation sequence and
        the operation numbers stay aligned — the property duplicate
        suppression and voting rely on.  If the withdraw is refused
        (overdraft), no replica deposits and the transfer is a no-op.

        Space scheduled operations further apart than one invocation
        round trip: the chained deposit is issued when each replica's
        own reply arrives, so another operation firing inside that
        window would interleave differently at different replicas and
        break the aligned numbering (the standard determinism contract
        for replicated clients that invoke from callbacks).
        """
        label = "transfer:%s#%d->%s#%d:%d@%g" % (
            src_branch, src_account, dst_branch, dst_account, amount, at,
        )
        stubs = self._stubs if stubs is None else stubs
        dst_stub_by_pid = dict(stubs[dst_branch])

        def fire():
            for pid, stub in stubs[src_branch]:
                dst_stub = dst_stub_by_pid[pid]

                def on_withdrawn(value, dst_stub=dst_stub):
                    self._record(label + ":w", value, lambda r: r >= 0)
                    if value >= 0:
                        dst_stub.deposit(
                            dst_account,
                            amount,
                            reply_to=lambda v: self._record(
                                label + ":d", v, lambda r: r >= 0
                            ),
                        )

                stub.withdraw(src_account, amount, reply_to=on_withdrawn)

        self.cluster.scheduler.at(at, fire, label="bank.transfer")

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def branch_totals(self):
        """branch -> {pid: total_assets} straight from the servants."""
        return {
            name: {
                pid: servant.total_assets()
                for pid, servant in sorted(handle.servants.items())
            }
            for name, handle in self.branches.items()
        }

    def conserved(self):
        """Total assets across branches equal the seeded total, at every
        replica (transfers move money, never create or destroy it)."""
        totals = self.branch_totals()
        grand = 0
        for name, by_pid in totals.items():
            per_replica = set(by_pid.values())
            if len(per_replica) != 1:
                return False
            grand += per_replica.pop()
        return grand == self.expected_total()


class GeoBank(MultiBranchBank):
    """The bank at federation scale: branches pinned to *sites*.

    The same invariants as :class:`MultiBranchBank`, one level up: a
    transfer between branches on different sites is a cross-*site* flow
    through the voted WAN gateways, so conservation now checks
    site-gateway exactly-once end-to-end — through Byzantine
    site-gateway replicas, partitions, and whole-site compromise.
    Additional tellers (e.g. a rogue teller placed at a site that will
    be compromised) come from :meth:`add_teller`; their operations ride
    the inherited scheduling helpers via the ``stubs`` argument.
    """
