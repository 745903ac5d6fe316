"""``python3 -m ladder <pass|run|trace|micro|compare>`` — see ``ladder/README.md``."""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ladder import cli  # noqa: E402  (needs the path above; imports repro)

if __name__ == "__main__":
    # CPU seconds since this process started, imports of ``repro`` included.
    raise SystemExit(cli.main(sys.argv[1:], import_s=time.process_time()))
