"""The repo's benchmark: four workloads, two clocks, a per-layer traced pass.

See ``ladder/README.md``.  ``python3 -m ladder pass`` is the command
``BENCHMARK.json`` names; ``run``, ``trace``, ``micro`` and ``compare``
are the tools built on it.
"""
