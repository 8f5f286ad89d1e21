"""Set-up probe: time a fresh process's import of chaoskit and the build of
one workload's inputs, and print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [tiny]
"""

import sys
from time import perf_counter

from run import ROOT, SCRATCH  # sys.path[0] is this directory

start = perf_counter()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports chaoskit)

tiny = sys.argv[3:] == ["tiny"]
workloads.build(sys.argv[1], int(sys.argv[2]), str(SCRATCH), tiny)
print(perf_counter() - start)
