"""Sensor fusion under fire — the paper's motivating application class.

Two replicated sensor feeds stream one-way track reports (exercising
input majority voting at rate), a replicated command console queries
fused positions (exercising output voting), and the fusion replica on
P2 is corrupted mid-run.  The console keeps seeing correct, voted
tracks throughout, and the corrupted processor is evicted.

Run:  python examples/sensor_fusion.py
"""

from repro.core import ImmuneConfig, ImmuneSystem, SurvivabilityCase
from repro.core.replica import ValueFaultServant
from repro.workloads.sensors import FUSION_IDL, FusionServant, scripted_track


def main():
    config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=7)
    immune = ImmuneSystem(num_processors=8, config=config)

    def factory(pid):
        servant = FusionServant()
        if pid == 2:
            # Corrupt this replica's *answers* (track_position results).
            return ValueFaultServant(servant, corrupt_operations={"track_position"})
        return servant

    fusion = immune.deploy("fusion", FUSION_IDL, factory, on_procs=[0, 1, 2])
    radar = immune.deploy_client("radar", on_procs=[3, 4])
    lidar = immune.deploy_client("lidar", on_procs=[5, 6])
    console = immune.deploy_client("console", on_procs=[3, 7])
    immune.start()

    radar_stubs = immune.client_stubs(radar, FUSION_IDL, fusion)
    lidar_stubs = immune.client_stubs(lidar, FUSION_IDL, fusion)
    console_stubs = immune.client_stubs(console, FUSION_IDL, fusion)

    # Stream two deterministic tracks from both sensor groups.
    scheduler = immune.scheduler
    for step, (track, x, y) in enumerate(scripted_track(1, steps=10)):
        at = 0.05 + step * 0.01

        def fire(track=track, x=x, y=y):
            for _, stub in radar_stubs:
                stub.report("radar", track, x, y)
            for _, stub in lidar_stubs:
                stub.report("lidar", track, x + 10, y - 10)

        scheduler.at(at, fire)

    answers = {pid: [] for pid, _ in console_stubs}

    def query():
        for pid, stub in console_stubs:
            stub.track_position(1, reply_to=answers[pid].append)

    scheduler.at(1.0, query)
    immune.run(until=8.0)

    print("console replicas' voted view of track 1:")
    for pid in sorted(answers):
        print("  P%d: %r" % (pid, answers[pid]))
    assert answers[3] == answers[7] != []
    position = answers[3][0]
    # 10 steps x 2 sensor groups = 20 logical reports: the duplicate
    # copies from each group's 2 replicas were suppressed, not fused.
    assert position["reports"] == 20, "each report voted in exactly once"
    members = immune.surviving_members()
    print("membership after the corrupt fusion replica was attributed:", list(members))
    assert 2 not in members
    honest = {
        pid: servant
        for pid, servant in fusion.servants.items()
        if pid != 2
    }
    counts = {pid: s.track_count() for pid, s in honest.items()}
    print("track counts at honest fusion replicas:", counts)
    assert set(counts.values()) == {1}
    print("OK: 20 logical reports fused, corrupt replica outvoted and evicted.")


if __name__ == "__main__":
    main()
