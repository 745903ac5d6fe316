"""Whether two ``ladder run`` result files hold the same simulated numbers.

    python3 tools/ladder_sim_equal.py EXPECTED.json ACTUAL.json

Simulated numbers are exact per seed, so they depend neither on the
interpreter nor on the machine: every ``sim_*`` value and every
workload's ``failed`` count in ``ACTUAL`` must equal ``EXPECTED``'s.
Exit status 1 names each one that differs.  The host metrics
(``host_*``, ``setup_s``) differ between machines and between runs, so
they are printed side by side and never compared.

CI runs it on the smoke benchmark twice: Python 3.9's run against
3.12's, and the fresh run against the committed ``BENCH_ladder.json``.
A change that moves a simulated value on purpose regenerates that file
(``python3 -m ladder run --smoke --out BENCH_ladder.json``).
"""

import json
import sys


def _workloads(path):
    with open(path) as result:
        return json.load(result)["workloads"]


def simulated(workloads):
    """``{(workload, name): value}`` of every ``sim_*`` metric and ``failed`` count."""
    values = {}
    for name, run in workloads.items():
        values[name, "failed"] = run["failed"]
        for key, metric in run["metrics"].items():
            if key.startswith("sim_"):
                values[name, key] = metric["value"]
    return values


def host(workloads):
    """``{(workload, name): value}`` of every other metric: the host's."""
    return {
        (name, key): metric["value"]
        for name, run in workloads.items()
        for key, metric in run["metrics"].items()
        if not key.startswith("sim_")
    }


def differences(expected, actual, labels=("expected", "actual")):
    """One line per simulated value the two result files disagree on."""
    want, got = simulated(expected), simulated(actual)
    return [
        "%s %s: %s %r, %s %r" % (name, key, labels[0], want.get((name, key)),
                                 labels[1], got.get((name, key)))
        for name, key in sorted(set(want) | set(got))
        if want.get((name, key)) != got.get((name, key))
    ]


def _number(value):
    return "-" if value is None else "%.4g" % value


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/ladder_sim_equal.py EXPECTED.json ACTUAL.json",
              file=sys.stderr)
        return 2
    expected, actual = (_workloads(path) for path in argv)
    was, now = host(expected), host(actual)
    print("host metrics, not compared (%s -> %s):" % tuple(argv))
    for name, key in sorted(set(was) | set(now)):
        print("  %-22s %-18s %10s -> %s" % (name, key, _number(was.get((name, key))),
                                             _number(now.get((name, key)))))
    differ = differences(expected, actual, labels=argv)
    print("\n".join(differ) or "%d simulated values, all equal" % len(simulated(expected)))
    if differ:
        print("%s and %s differ in a simulated value" % tuple(argv), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
