"""Benchmark harness regenerating the paper's evaluation.

* :mod:`repro.bench.scenarios` — every bench as one row of a table, and
  the one CLI: ``python -m repro.bench NAME [--smoke] [--out PATH]``;
* :mod:`repro.bench.harness` — builds packet-driver deployments for
  the four survivability cases and measures steady-state throughput;
* :mod:`repro.bench.figure7` — the throughput-vs-invocation-interval
  sweep of Figure 7;
* :mod:`repro.bench.tables` — fault-injection drills regenerating the
  Table 1 fault/mechanism matrix and the property checks behind
  Tables 2, 4, and 5;
* :mod:`repro.bench.ablations` — parameter studies the paper calls
  out: messages per token visit (j), RSA modulus size, replication
  degree.
"""

from repro.bench.harness import CaseResult, run_packet_driver_case

__all__ = ["CaseResult", "run_packet_driver_case"]
