"""Recompute the reference rate that the perfect_lattice check compares with.

Runs the workload's operation on streams RandomStream(210400495).child(r),
r = 0 .. N-1, which no benchmark seed shares, and prints the rate of node 0
with its standard error. The N = 3000 operations take about five minutes on
one core. Usage, from the root of a checkout: python3 perfbench/reference.py
"""

import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import PerfectLattice  # noqa: E402

REFERENCE_SEED = 210400495
N = 3000

if __name__ == "__main__":
    workload = PerfectLattice()
    workload.setup()
    root = workload.k.RandomStream(REFERENCE_SEED)
    counts = [workload.op(root.child(r), None).value for r in range(N)]
    rate = statistics.fmean(counts) / workload.t_max
    se = statistics.stdev(counts) / math.sqrt(N) / workload.t_max
    print(f"reference_rate = {rate!r}\nreference_rate_se = {se!r}")
