"""Benchmark harness regenerating the paper's evaluation.

* :mod:`repro.bench.scenarios` — every bench as one row of a table, and
  the one CLI: ``python -m repro.bench NAME [--smoke] [--out PATH]``;
* :mod:`repro.bench.build` — the :class:`Scenario` value every drill is,
  and the one :func:`build` that deploys it;
* :mod:`repro.bench.drills` — the observability drills (forensics,
  report, SLO, trace) and their rows' runners;
* :mod:`repro.bench.harness` — packet-driver scenarios for the four
  survivability cases, measured at steady-state throughput;
* :mod:`repro.bench.figure7` — the throughput-vs-invocation-interval
  sweep of Figure 7;
* :mod:`repro.bench.tables` — fault-injection drills regenerating the
  Table 1 fault/mechanism matrix and the property checks behind
  Tables 2, 4, and 5;
* :mod:`repro.bench.ablations` — parameter studies the paper calls
  out: messages per token visit (j), RSA modulus size, replication
  degree.
"""

from repro.bench.build import Scenario, build
from repro.bench.harness import CaseResult, run_packet_driver_case

__all__ = ["CaseResult", "Scenario", "build", "run_packet_driver_case"]
