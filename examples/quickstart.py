"""Quickstart: a survivable counter in ~40 lines.

Deploys a three-way actively replicated counter and a three-way
replicated client on six simulated processors, with full survivability
(majority voting + message digests + signed tokens), then invokes it —
exactly as the application would over a bare ORB.

Run:  python examples/quickstart.py
"""

from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef

COUNTER_IDL = InterfaceDef(
    "Counter",
    [
        OperationDef("add", [ParamDef("amount", "long")], result="long"),
        OperationDef("log", [ParamDef("note", "string")], oneway=True),
    ],
)


class CounterServant:
    """An unmodified application object: no Immune code anywhere."""

    def __init__(self):
        self.value = 0
        self.notes = []

    def add(self, amount):
        self.value += amount
        return self.value

    def log(self, note):
        self.notes.append(note)


def main():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=42)
    immune = ImmuneSystem(num_processors=6, config=config)

    server = immune.deploy(
        "counter", COUNTER_IDL, lambda pid: CounterServant(), on_procs=[0, 1, 2]
    )
    client = immune.deploy_client("quickstart-client", on_procs=[3, 4, 5])
    immune.start()

    stubs = immune.client_stubs(client, COUNTER_IDL, server)
    replies = {pid: [] for pid, _ in stubs}
    for pid, stub in stubs:  # every client replica issues the same ops
        stub.log("hello survivable world")
        stub.add(40, reply_to=replies[pid].append)
        stub.add(2, reply_to=replies[pid].append)

    immune.run(until=3.0)

    print("processor membership:", list(immune.surviving_members()))
    print("counter object group:", list(immune.group_members("counter")))
    for pid, servant in sorted(server.servants.items()):
        print(
            "server replica on P%d: value=%d notes=%r" % (pid, servant.value, servant.notes)
        )
    for pid, got in sorted(replies.items()):
        print("client replica on P%d received voted replies: %r" % (pid, got))
    assert all(s.value == 42 for s in server.servants.values())
    assert all(got == [40, 42] for got in replies.values())
    print("OK: one logical invocation stream, replicated, voted, consistent.")


if __name__ == "__main__":
    main()
