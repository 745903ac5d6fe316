"""Intrusion drill: a compromised processor attacks the protocols.

The intruder on P2 escalates through the attacks of Table 1:

1. t=0.5  sends *mutant tokens* — different signed tokens for the same
   visit to different halves of the ring (equivocation);
2. the correct processors exchange their stored token copies as
   evidence, provably convict P2, and reconfigure without it;
3. t after eviction: a second intruder on P4 *masquerades*, injecting a
   message that claims P0 sent it — the digest in the signed token
   never matches, so it is never delivered;
4. throughout, a replicated log service keeps accepting appends and
   every correct replica stays byte-identical.

The run carries a forensic flight recorder on every processor
(:mod:`repro.obs.forensics`); after the drill it prints the merged
fault-attribution timeline and the detector scorecard, and asserts the
detector attributed every detectable injected fault to the right
replica (the masquerade is *suppressed* by design, not attributed).

Run:  python examples/intrusion_drill.py
"""

from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.multicast.adversary import MasqueradeBehaviour, MutantTokenBehaviour
from repro.obs import Observability
from repro.obs.forensics import ForensicsHub, build_report, merge_timeline, render_report
from repro.orb.idl import InterfaceDef, OperationDef, ParamDef

LOG_IDL = InterfaceDef(
    "AuditLog",
    [OperationDef("append", [ParamDef("entry", "string")], oneway=True)],
)


class AuditLogServant:
    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)


def main():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=99)
    obs = Observability(forensics=ForensicsHub())
    immune = ImmuneSystem(num_processors=6, config=config, obs=obs)
    log = immune.deploy("audit", LOG_IDL, lambda pid: AuditLogServant(), [0, 1, 5])
    writer = immune.deploy_client("writer", [3, 4, 5])
    immune.start()

    mutant = MutantTokenBehaviour(at_time=0.5).compromise(immune.endpoints[2])
    MasqueradeBehaviour(
        victim_id=0, dest_group="audit", payload=b"FORGED ENTRY", at_time=4.0
    ).compromise(immune.endpoints[4])

    stubs = immune.client_stubs(writer, LOG_IDL, log)
    expected = []
    for k in range(8):
        entry = "audit-%d" % k

        def fire(entry=entry):
            for pid, stub in stubs:
                if not immune.processors[pid].crashed:
                    stub.append(entry)

        immune.scheduler.at(0.1 + k * 0.7, fire)
        expected.append(entry)

    immune.run(until=10.0)
    mutant.restore()

    report = build_report(
        obs.forensics,
        scenario={"scenario": "example-intrusion-drill", "seed": config.seed},
    )
    print(render_report(report, merge_timeline(obs.forensics)))
    print()

    scorecard = report["scorecard"]
    assert scorecard["precision"] == 1.0, "no correct replica may be accused"
    assert scorecard["recall"] == 1.0, "the equivocator must be attributed"
    outcomes = {f["fault_id"]: f["outcome"] for f in scorecard["per_fault"]}
    assert outcomes["mutant_token:P2@0.5"] == "detected"
    assert outcomes["masquerade:P4@4"] == "suppressed"

    members = immune.surviving_members()
    print("final membership:", list(members))
    assert 2 not in members, "the equivocating intruder must be evicted"

    logs = {
        pid: servant.entries
        for pid, servant in log.servants.items()
        if pid in members
    }
    print("audit logs at correct replicas:")
    for pid in sorted(logs):
        print("  P%d: %d entries" % (pid, len(logs[pid])))
    reference = logs[min(logs)]
    assert all(entries == reference for entries in logs.values())
    assert reference == expected, "service must run through the intrusion"
    assert not any("FORGED" in e for e in reference), "masquerade must be suppressed"
    print("OK: equivocator convicted and evicted; forged message never delivered;")
    print("    the audit log stayed identical at every correct replica;")
    print("    forensics attributed the attack with precision and recall 1.0.")


if __name__ == "__main__":
    main()
