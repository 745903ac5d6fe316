"""Passive vs active replication: why the Immune system votes.

The paper (section 5): "Critical applications that must tolerate value
faults, in addition to crash faults, require majority voting and, thus,
the use of active replication for every object of the application."

This example runs the *same* workload against the same corrupted
replica in both modes:

1. warm-passive replication — primary executes alone, backups follow by
   state checkpoint.  A third the execution cost; survives crashes;
   but the corrupted primary's wrong answers go straight to clients.
2. active replication with majority voting — every replica executes,
   responses are voted.  The corruption is outvoted, attributed by the
   value fault detectors, and the corrupt processor is evicted.

Run:  python examples/passive_vs_active.py
"""

from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef
from repro.orb.schema import Schema

PRICER_IDL = InterfaceDef(
    "Pricer", [OperationDef("quote", [ParamDef("units", "long")], result="long")]
)

UNIT_PRICE = 3

#: the pricer's checkpoint: its unit price
PRICER_STATE = Schema(("unit_price", "long"))


class PricerServant:
    def quote(self, units):
        return units * UNIT_PRICE

    def get_state(self):
        return PRICER_STATE.pack((UNIT_PRICE,))

    def set_state(self, state):
        PRICER_STATE.unpack(state)


def run_mode(passive):
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=55)
    immune = ImmuneSystem(num_processors=6, config=config)

    def factory(pid):
        servant = PricerServant()
        # P0 is compromised in both modes: every quote is inflated.
        return ValueFaultServant(servant) if pid == 0 else servant

    deploy = immune.deploy_passive if passive else immune.deploy
    pricer = deploy("pricer", PRICER_IDL, factory, on_procs=[0, 1, 2])
    desk = immune.deploy_client("trading-desk", on_procs=[3, 4, 5])
    immune.start()

    quotes = []
    for pid, stub in immune.client_stubs(desk, PRICER_IDL, pricer):
        stub.quote(100, reply_to=quotes.append)
    immune.run(until=5.0)
    return quotes, immune.surviving_members()


def main():
    honest = 100 * UNIT_PRICE

    passive_quotes, passive_members = run_mode(passive=True)
    print("warm-passive replication (primary on compromised P0):")
    print("  quotes delivered to the trading desk: %s" % passive_quotes)
    print("  membership afterwards: %s" % list(passive_members))
    assert all(q != honest for q in passive_quotes)
    print("  -> every quote is CORRUPT; nothing detected the fraud.\n")

    active_quotes, active_members = run_mode(passive=False)
    print("active replication with majority voting (same compromise):")
    print("  quotes delivered to the trading desk: %s" % active_quotes)
    print("  membership afterwards: %s" % list(active_members))
    assert all(q == honest for q in active_quotes)
    assert 0 not in active_members
    print("  -> every quote is correct, and the compromised processor")
    print("     was attributed by the value fault detector and evicted.")
    print()
    print("OK: value faults defeat passive replication; voting masks them.")


if __name__ == "__main__":
    main()
