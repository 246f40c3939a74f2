"""Set up one workload in a fresh interpreter, then print ``ready``.

run.py times this script from spawn to that line to measure ``setup_s``:
importing kalisim, parsing the config and building the model.
Usage: python3 setup_probe.py <src directory> <workload>
"""

import sys

src, name = sys.argv[1:3]
sys.path.insert(0, src)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[name]().setup()
print("ready", flush=True)
