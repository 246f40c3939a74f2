"""Interpreter-speed reference that makes timings comparable across moments.

The speed of a shared host drifts within seconds. On a shared 2-vCPU host,
the same ``perfect_lattice`` operation on the same stream took anywhere from
48 ms to 81 ms within one minute, and whole runs of any length differed by
20-35%. Scaling each operation's time by the time this fixed task
took just before it removes most of that drift: the quartile spread of ten
runs fell from 21-25% to 2-5%.

The task uses only the standard library and NumPy, so a change to kalisim never
changes it. It mixes what kalisim spends its time on: small objects, tuple
keys in a dict, ``bisect``, float arithmetic and NumPy scalar draws.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort

# The task's usual duration on the host the bounds were set on (2 vCPUs,
# Python 3.11). Scaled times are in seconds of a host running it this fast.
REFERENCE_S = 0.003


class _Record:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value


class SpeedMeter:
    def __init__(self):
        # imported here, not at the top, so that run.py can limit NumPy's
        # threads before the first import
        import numpy as np

        self._gen = np.random.Generator(np.random.Philox(12345))
        for _ in range(3):
            self._task()

    def _task(self) -> float:
        records: dict[tuple[int, float], _Record] = {}
        xs: list[float] = []
        acc, x = 0.0, 0.5
        for i in range(1500):
            x = (x * 3.9) % 1.0
            rec = _Record(i, x)
            records[(i & 63, x)] = rec
            insort(xs, x)
            acc += math.exp(-x) * len(xs) + bisect_left(xs, 0.5 * x) + rec.value
            if i % 8 == 0:
                acc += float(self._gen.random())
        return acc

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-speed time."""
        start = time.perf_counter()
        self._task()
        return REFERENCE_S / (time.perf_counter() - start)
