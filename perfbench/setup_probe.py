"""Set-up probe: import mzqfi, fill one workload's caches, print the time.

    python3 perfbench/setup_probe.py <workload>

Prints CLOCK_MONOTONIC at the moment the process is ready for its first
timed call; run.py subtracts the time it started the process.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)

workloads.WORKLOADS[sys.argv[1]].fill_caches()
print(time.clock_gettime(time.CLOCK_MONOTONIC))
