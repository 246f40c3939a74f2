"""The benchmark's workloads still run on the package as it is.

``perfbench/workloads.py`` reaches the package only through its public
names. This loads it as it is and runs, for each workload, its set-up, three
operations and its predicted clan size, and the run checks of the two
workloads whose checks need few operations. The streams are the ones
``perfbench/run.py`` gives the timed operations of seed 1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from kalisim import RandomStream

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
OPS = 3


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def _run(name):
    workload = WORKLOADS[name]()
    workload.setup()
    root = RandomStream(1)
    outcomes = [workload.op(root.child(0, i), None) for i in range(OPS)]
    return workload, outcomes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_sets_up_runs_and_predicts(name):
    workload, outcomes = _run(name)
    assert [o.ok for o in outcomes] == [True] * OPS
    predicted = workload.predicted_clan_size()
    assert predicted is None if name == "forward_hawkes" else predicted >= 1.0


@pytest.mark.parametrize("name", ["perfect_lattice", "forward_hawkes"])
def test_the_run_checks_pass(name):
    workload, outcomes = _run(name)
    assert workload.check_run([o.value for o in outcomes]) == []
