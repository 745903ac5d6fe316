"""``python -m repro.bench NAME``: see :mod:`repro.bench.scenarios`."""

from repro.bench.scenarios import main

if __name__ == "__main__":
    raise SystemExit(main())
