"""Figure 7: throughput of the four survivability cases.

Regenerates the paper's only performance figure: server throughput vs
the interval between consecutive one-way invocations at the client, for
cases 1 (no replication), 2 (+active replication), 3 (+voting and
digests), and 4 (+signed tokens).  The bench uses an abbreviated sweep;
``python -m repro.bench figure7`` runs the full one.
"""

from repro.bench.figure7 import check_shape, run_figure7
from repro.bench.harness import format_series, packet_case, run_packet_driver_case
from repro.core.config import SurvivabilityCase


def test_figure7_sweep(benchmark, show):
    results = benchmark.pedantic(
        lambda: run_figure7(quick=True), rounds=1, iterations=1
    )
    show("")
    show(format_series(results))
    problems = check_shape(results)
    assert problems == [], "figure 7 shape deviates: %s" % problems


def test_case4_is_signature_bound(benchmark, show):
    """The paper's headline cost: in case 4 "the greatest cost is that
    due to signature generation and verification"."""
    result = benchmark.pedantic(
        lambda: run_packet_driver_case(packet_case(
            SurvivabilityCase.FULL_SURVIVABILITY, 200e-6, duration=0.2, warmup=0.1
        )),
        rounds=1,
        iterations=1,
    )
    cpu = result.cpu
    crypto = cpu.get("crypto.sign", 0) + cpu.get("crypto.verify", 0)
    other = sum(v for k, v in cpu.items() if not k.startswith("crypto."))
    show(
        "\ncase 4 CPU at the measured server: crypto %.0f ms vs other %.0f ms"
        % (1e3 * crypto, 1e3 * other)
    )
    assert crypto > other, "signatures must dominate CPU in case 4"


def test_case1_tracks_offered_load(benchmark, show):
    """Case 1 at a modest rate keeps up with the client entirely."""
    result = benchmark.pedantic(
        lambda: run_packet_driver_case(packet_case(
            SurvivabilityCase.UNREPLICATED, 500e-6, duration=0.2, warmup=0.1
        )),
        rounds=1,
        iterations=1,
    )
    show(
        "\ncase 1 @500us: offered %.0f/s, measured %.0f/s"
        % (result.offered, result.throughput)
    )
    assert result.throughput >= 0.95 * result.offered
