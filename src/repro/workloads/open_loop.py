"""Open-loop drills: invocations on a fixed schedule, and what they drive.

:class:`OpenLoopDriver` is the scheduled counterpart of
:class:`~repro.workloads.packet_driver.PacketDriver` for the drills: it
makes invocation ``k`` on every live client replica's stub at
``start + k·spacing`` whatever the replies (open loop), identically at
every replica, and keeps each reply with its latency.  ``ECHO_IDL`` /
:class:`EchoServant` and ``COUNTER_IDL`` / :class:`CounterServant` are
the services the latency bench and the benches' drills drive, and
:func:`echo` and :func:`add_one` are their invocations.  ``LEDGER_IDL``
is the counter under its own interface name (the intrusion drill's), and
``TALLY_IDL`` / :class:`TallyServant` the Table 1 drills' service.
"""

from repro.orb.idl import InterfaceDef, OperationDef, ParamDef

ECHO_IDL = InterfaceDef(
    "Echo", [OperationDef("echo", [ParamDef("n", "long")], result="long")]
)

COUNTER_IDL = InterfaceDef(
    "Counter",
    [OperationDef("add", [ParamDef("n", "long")], result="long")],
)

LEDGER_IDL = InterfaceDef(
    "Ledger",
    [OperationDef("add", [ParamDef("amount", "long")], result="long")],
)

TALLY_IDL = InterfaceDef(
    "Tally",
    [
        OperationDef("bump", [ParamDef("tag", "string")], oneway=True),
        OperationDef("total", [], result="long"),
    ],
)


class EchoServant:
    def echo(self, n):
        return n


class CounterServant:
    """A counter that also counts how often it executed (exactly-once)."""

    def __init__(self):
        self.total = 0
        self.calls = 0

    def add(self, n):
        self.calls += 1
        self.total += n
        return self.total


class TallyServant:
    """Keeps every tag it was bumped with, in order."""

    def __init__(self):
        self.tags = []

    def bump(self, tag):
        self.tags.append(tag)

    def total(self):
        return len(self.tags)

    def get_state(self):
        return ("\n".join(self.tags)).encode("utf-8")

    def set_state(self, state):
        self.tags = state.decode("utf-8").split("\n") if state else []


def echo(stub, k, reply):
    """Invocation ``k`` of an echo drill: ``echo(k)``."""
    stub.echo(k, reply_to=reply)


def add_one(stub, k, reply):
    """Invocation ``k`` of a counter drill: ``add(1)``."""
    stub.add(1, reply_to=reply)


class OpenLoopDriver:
    """Fires every live client replica's stub at ``start + k·spacing``.

    ``system`` hosts the client replicas (anything with ``scheduler``
    and ``processors``: an ImmuneSystem, or a cluster or WAN site).
    ``invoke(stub, k, reply)`` makes invocation ``k`` on one replica's
    stub, passing ``reply`` as ``reply_to`` if the operation is two-way.
    ``label`` names the scheduler events (``scheduler.events{label}`` is
    exported).
    """

    def __init__(self, system, stubs, invoke, label):
        self.system = system
        self.stubs = stubs
        self.invoke = invoke
        self.label = label
        #: ``(k, pid, value, latency)`` for every reply, in arrival order
        self.replies = []

    def run(self, start, count, spacing):
        """Schedule invocations ``0 .. count-1``; returns the driver."""
        for k in range(count):
            at = start + k * spacing
            self.system.scheduler.at(at, self._fire, k, at, label=self.label)
        return self

    def _fire(self, k, sent_at):
        processors = self.system.processors
        for pid, stub in self.stubs:
            if not processors[pid].crashed:
                self.invoke(stub, k, self._reply_to(k, pid, sent_at))

    def _reply_to(self, k, pid, sent_at):
        def reply(value):
            latency = self.system.scheduler.now - sent_at
            self.replies.append((k, pid, value, latency))

        return reply

    def first_latencies(self):
        """Invocation ``k`` -> the latency of its first reply."""
        first = {}
        for k, _pid, _value, latency in self.replies:
            first.setdefault(k, latency)
        return first
