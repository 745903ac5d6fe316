"""A survivable service directory — CORBA bootstrap, hardened.

Every CORBA application starts by asking the Naming Service where
things are.  That makes the name service the juiciest target on the
network: corrupt one replica of it and every lookup can be redirected
to an attacker's object.  This example runs the classic bootstrap
pattern on the Immune system:

1. a three-way replicated Naming Service is deployed;
2. a greeter service registers itself under "services/greeter";
3. an application resolves the name and invokes the greeter —
   every step replicated and majority-voted;
4. meanwhile, the naming replica on P2 is corrupted and answers every
   resolve with a bogus reference; voting discards its answers, the
   value fault detectors attribute the corruption, and P2 is evicted.

Run:  python examples/name_service.py
"""

from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.workloads.naming import NAMING_IDL, NamingClient, NamingServant

GREETER_IDL = InterfaceDef(
    "Greeter", [OperationDef("greet", [ParamDef("who", "string")], result="string")]
)


class GreeterServant:
    def greet(self, who):
        return "hello, %s" % who


def main():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=31)
    immune = ImmuneSystem(num_processors=6, config=config)

    def naming_factory(pid):
        servant = NamingServant()
        if pid == 2:  # the compromised directory replica
            return ValueFaultServant(servant, corrupt_operations={"resolve"})
        return servant

    naming = immune.deploy("naming", NAMING_IDL, naming_factory, on_procs=[0, 1, 2])
    greeter = immune.deploy(
        "greeter", GREETER_IDL, lambda pid: GreeterServant(), on_procs=[3, 4, 5]
    )
    app = immune.deploy_client("app", on_procs=[0, 4, 5])
    immune.start()

    directory = NamingClient(immune, app, naming)
    greetings = []

    immune.scheduler.at(0.2, directory.bind, "services/greeter", greeter)
    immune.scheduler.at(
        1.5,
        directory.resolve_stub,
        "services/greeter",
        GREETER_IDL,
        lambda pid, stub: stub.greet("survivable world", reply_to=greetings.append),
    )
    immune.run(until=8.0)

    print("voted greetings at the app's replicas:", greetings)
    assert greetings == ["hello, survivable world"] * 3
    members = immune.surviving_members()
    print("membership after the corrupt directory replica was attributed:", list(members))
    assert 2 not in members
    print("OK: lookups voted, redirection attack defeated, intruder evicted.")


if __name__ == "__main__":
    main()
