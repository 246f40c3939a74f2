"""Benchmark of kalisim: three seeded workloads, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload perfect_lattice --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it runs operations until their summed time reaches
``--seconds`` and reports the end-to-end metrics. Their times are scaled to a
reference interpreter speed measured just before each operation (see
speed.py), because the speed of a shared host drifts within seconds; the
times as measured are printed next to them. With ``--trace 1`` it runs a
fixed number of operations, each untraced and traced, and reports
per-layer calls, self times and counters.

Human-readable lines come first; the last line of standard output is one JSON
object. Every operation's output is checked, and the exit code is 1 when any
check fails, 2 when the sources are missing.

Everything runs in this one process on one thread, apart from the fresh
interpreters that time set-up; those run one at a time and are waited for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from speed import SpeedMeter
from tracing import Tracer, entry_points
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

SINGLE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_PROBES = 9
WARM_UP_OPS = 2
# stream paths under the run's RandomStream(seed): timed operation i uses
# child(OPS, i), warm-up operation i uses child(WARM_UP, i)
OPS, WARM_UP = 0, 1
# The host's speed drifts within a second, so the speed reference runs again
# before any operation that follows this much operation time.
CALIBRATE_EVERY_S = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, meter: SpeedMeter) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its model is built,
    scaled to reference speed and as timed.

    One untimed probe first fills the bytecode and file caches, which users
    fill once, not on every run.
    """
    scaled, raw = [], []
    for probe in range(SETUP_PROBES + 1):
        scale = meter.scale()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), str(SRC), name], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
        if probe:
            scaled.append(elapsed * scale)
            raw.append(elapsed)
    return scaled, raw


class Ops:
    """Runs a workload's operations, timing each and counting failures."""

    def __init__(self, workload, root, meter: Optional[SpeedMeter] = None):
        self.workload = workload
        self.root = root
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        # seconds spent in operations, failed ones included
        self.spent = 0.0
        self._scale = 1.0
        self._since_calibration = math.inf

    def run(self, path: int, i: int, tracer=None):
        """One operation on stream ``root.child(path, i)``.

        Returns (seconds at reference speed, seconds as timed, outcome), or
        None when the operation raised or failed its check. Without a meter
        the two times are equal.
        """
        if self.meter is not None and self._since_calibration >= CALIBRATE_EVERY_S:
            self._scale = self.meter.scale()
            self._since_calibration = 0.0
        stream = self.root.child(path, i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.op(stream, tracer)
        except Exception:
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.spent += elapsed
        self._since_calibration += elapsed
        if not out.ok:
            if not self.failed:
                print(f"operation ({path}, {i}) failed its output check", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed * self._scale, elapsed, out

    def warm_up(self) -> None:
        for i in range(WARM_UP_OPS):
            self.run(WARM_UP, i)


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


def timed_ops(ops: Ops, seconds: float, min_ops: int) -> list:
    """The successful operations of a timed run.

    Operations run until their summed time, failed ones included, reaches
    ``seconds`` and ``min_ops`` have been attempted. The run stops early when
    the first ``min_ops`` all failed.
    """
    done, start = [], ops.spent
    i = 0
    while ops.spent - start < seconds or i < min_ops:
        if i >= min_ops and not done:
            break  # every operation so far failed
        result = ops.run(OPS, i)
        i += 1
        if result is not None:
            done.append(result)
    return done


def end_to_end(workload, seed: int, seconds: float, meter: SpeedMeter):
    setup_scaled, setup_raw = measure_setup(workload.name, meter)
    workload.setup()
    ops = Ops(workload, workload.k.RandomStream(seed), meter)
    ops.warm_up()
    done = timed_ops(ops, seconds, workload.min_ops)
    scaled = [d[0] for d in done]
    raw = [d[1] for d in done]
    points = sum(d[2].points for d in done)
    errors = workload.check_run([d[2].value for d in done])
    if not scaled:
        errors.append("no operation succeeded")
        scaled = raw = [math.nan]
    n = len(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        ("setup_s", statistics.median(setup_scaled), "s",
         f"median of {len(setup_scaled)} fresh interpreters; {statistics.median(setup_raw):.4f} s as timed"),
        ("points_per_s", points / sum(scaled), "1/s", f"{points} points; {points / sum(raw):.1f}/s as timed"),
        ("op_ms_p50", 1e3 * statistics.median(scaled), "ms", f"{n} ops; {1e3 * statistics.median(raw):.3f} ms as timed"),
        ("op_ms_p90", 1e3 * p90(scaled), "ms", f"{n} ops; {1e3 * p90(raw):.3f} ms as timed"),
        ("error_rate", ops.failed / ops.attempted, "ratio", f"{ops.failed} failed of {ops.attempted} attempted"),
        ("peak_rss_mb", peak_rss_mb, "MB", "peak resident set of this process"),
    ]
    return ops, rows, errors


def traced(workload, seed: int, seconds: float):
    workload.setup()
    k = workload.k
    ops = Ops(workload, k.RandomStream(seed))
    ops.warm_up()
    # a fixed number of operations, so that counts repeat exactly for a seed
    n = max(workload.min_ops, round(workload.trace_ops_per_s * seconds / 2))
    untraced_entry_points = entry_points(k, workload.model)
    tracer = Tracer()
    plain, traced_done = [], []

    def traced_op(i):
        with tracer.instrument(k, workload.model):
            return ops.run(OPS, i, tracer)

    # Each operation runs untraced and traced back to back, so both see the
    # same host speed and the overhead needs no scaling; the order alternates
    # so that neither side always finds the caches warm.
    for i in range(n):
        if i % 2:
            traced_done.append(traced_op(i))
            plain.append(ops.run(OPS, i))
        else:
            plain.append(ops.run(OPS, i))
            traced_done.append(traced_op(i))

    errors = workload.check_run([d[2].value for d in plain if d is not None])
    if [d and d[2] for d in traced_done] != [d and d[2] for d in plain]:
        errors.append("a traced operation gave another output than its untraced twin")
    if entry_points(k, workload.model) != untraced_entry_points:
        errors.append("a wrapper outlived the traced pass")
    wall = sum(d[1] for d in traced_done if d is not None)
    if tracer.self_total() > wall:
        errors.append("layer self times add up to more than the wall time")
    overhead = ratio(wall, sum(d[1] for d in plain if d)) - 1.0

    calls, self_s, c = tracer.calls, tracer.self_s, tracer.counters
    fresh, reused = c["sampling.realize_new.fresh_points"], c["sampling.realize_new.reused_points"]
    sizes = tracer.clan_sizes
    predicted = workload.predicted_clan_size()
    rows = [("trace.ops", n, "count", "operations in each pass")]
    for layer in (
        "sampling.advance",
        "sampling.realize_new",
        "sampling.rng_build",
        "perfect.perfect_sample",
        "perfect.backward_clan",
        "perfect.forward_accept",
        "models.sample_neighborhood",
        "models.component_value",
        "models.local_bound",
        "forward.forward_simulate",
    ):
        rows.append((f"{layer}.calls", calls[layer], "count", ""))
        rows.append((f"{layer}.self_s", self_s[layer], "s", ""))
    rows += [
        ("sampling.realize_new.fresh_points", fresh, "count", ""),
        ("sampling.realize_new.reused_points", reused, "count", ""),
        ("sampling.realize_new.reuse_frac", ratio(reused, fresh + reused), "ratio", "reused / returned points"),
        ("sampling.rng_streams_built", calls["sampling.rng_build"], "count", "RandomStream generators constructed"),
        ("sampling.ledger_points", ratio(c["sampling.ledger_points"], n), "count", "mean n_points() at the end of an op"),
        ("perfect.roots", c["perfect.roots"], "count", ""),
        ("perfect.accepted", c["perfect.accepted"], "count", ""),
        ("perfect.accept_ratio", ratio(c["perfect.accepted"], c["perfect.roots"]), "ratio", "accepted / roots"),
        ("perfect.clan_size_mean", statistics.fmean(sizes) if sizes else 0.0, "points", f"{len(sizes)} clans"),
        ("perfect.clan_size_max", max(sizes, default=0), "points", f"{len(sizes)} clans"),
        ("forward.proposals", c["forward.proposals"], "count", ""),
        ("forward.accepted", c["forward.accepted"], "count", ""),
        ("forward.accept_ratio", ratio(c["forward.accepted"], c["forward.proposals"]), "ratio", "accepted / proposals"),
        ("analysis.expected_clan_size", predicted or 0.0, "points", "E(W); 0 where no clans are built"),
        ("trace.wall_s", wall, "s", "summed op time of the traced pass, as timed"),
        ("trace.self_s_sum", tracer.self_total(), "s", "sum of all layer self times"),
        ("trace.overhead_frac", overhead, "ratio", "traced / untraced op time, as timed, - 1"),
    ]
    return ops, rows, errors


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kalisim" / "__init__.py").is_file():
        print(f"error: no kalisim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        ops, rows, errors = traced(workload, args.seed, args.seconds)
    else:
        ops, rows, errors = end_to_end(workload, args.seed, args.seconds, SpeedMeter())
    if not workload.k.__file__.startswith(str(SRC)):
        errors.append(f"kalisim was imported from {workload.k.__file__}, not from {SRC}")
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {note}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    correct = not errors and ops.failed == 0
    reported = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
