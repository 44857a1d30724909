"""One set-up in a fresh interpreter, for the ``setup_s`` metric.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> [artifact-dir]``

Performs exactly the set-up a benchmark run performs (imports, loading
and validating the plan, loading the artifact when the workload has one)
and prints ``time.monotonic()`` when it is done.  The monotonic clock is
shared by every process on the host, so the parent subtracts the instant
it spawned this interpreter to get interpreter start plus set-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from workloads import import_program, set_up

if __name__ == "__main__":
    import_program()
    artifact = Path(sys.argv[3]) if len(sys.argv) > 3 else None
    set_up(sys.argv[1], int(sys.argv[2]), artifact)
    print(repr(time.monotonic()))
