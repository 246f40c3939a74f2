"""Smoke test of the benchmark itself: every workload, tiny, both modes.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_smoke.py
Each run must exit 0, pass its own output checks and emit every metric that
BENCHMARK.json names, with its unit; the traced runs must also agree with
what the code implies about which layers each workload reaches.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
from workloads import Outcome  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def emitted(proc: subprocess.CompletedProcess, trace: int) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run(workload, 0)
    metrics = emitted(proc, 0)
    assert all(value > 0 for value in metrics.values())
    assert "seed 3" in proc.stdout.splitlines()[0]
    assert any(line.split()[:1] == ["error_rate"] for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    metrics = emitted(run(workload, 1), 1)
    perfect = workload != "forward_hawkes"
    assert (metrics["sampling.advance.calls"] > 0) == (workload == "perfect_lattice")
    assert (metrics["models.local_bound.calls"] > 0) == (not perfect)
    assert (metrics["perfect.backward_clan.calls"] > 0) == perfect
    assert metrics["trace.self_s_sum"] <= metrics["trace.wall_s"]
    if workload == "perfect_lattice":
        assert 30 <= metrics["perfect.roots"] / metrics["perfect.accepted"] <= 55


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


class _Streams:
    def child(self, *path):
        return path


class _AlwaysFails:
    """A workload whose every operation raises, or fails its own check."""

    def __init__(self, raises: bool):
        self.raises = raises

    def op(self, stream, tracer):
        if self.raises:
            raise RuntimeError("this operation always fails")
        return Outcome(points=1, value=1.0, ok=False)


@pytest.mark.parametrize("raises", [True, False])
def test_timed_run_ends_when_every_operation_fails(raises):
    ops = bench.Ops(_AlwaysFails(raises), _Streams())
    assert bench.timed_ops(ops, seconds=3600.0, min_ops=5) == []
    assert ops.attempted == ops.failed == 5
