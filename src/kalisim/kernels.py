"""Interaction kernels and rate functions.

Kernels are restricted to nonnegative, nonincreasing parametric forms with
exact pointwise evaluation. The decomposition bounds read kernels only
through their values: being nonincreasing, a kernel is largest at the
nearer edge of a bin or level. Weights and truncations also read where the
support ends and, for the exponential, the decay across one bin.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence


class ExponentialKernel:
    """h(t) = alpha * exp(-beta * t) on t >= 0 (nonincreasing, infinite support)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        if alpha < 0:
            raise ValueError("kernel amplitude must be nonnegative")
        if beta <= 0:
            raise ValueError("kernel decay rate must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def __call__(self, t: float) -> float:
        if t < 0:
            return 0.0
        return self.alpha * math.exp(-self.beta * t)

    @property
    def support_end(self) -> float:
        return math.inf if self.alpha > 0 else 0.0

    def is_zero(self) -> bool:
        return self.alpha == 0.0

    def decay_per(self, step: float) -> float:
        """sup_t h(t + step)/h(t); the geometric decay across bins of width step."""
        return math.exp(-self.beta * step)

    def __repr__(self):
        return f"ExponentialKernel(alpha={self.alpha:g}, beta={self.beta:g})"


class StepKernel:
    """Nonincreasing step function on [0, edges[-1]), zero beyond (compact support).

    ``values[k]`` holds on ``[edges[k], edges[k+1])`` with ``edges[0] == 0``.
    """

    __slots__ = ("edges", "values")

    def __init__(self, edges: Sequence[float], values: Sequence[float]):
        edges = tuple(float(e) for e in edges)
        values = tuple(float(v) for v in values)
        if len(edges) != len(values) + 1:
            raise ValueError("need one more edge than values")
        if edges[0] != 0.0 or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must start at 0 and strictly increase")
        if any(v < 0 for v in values) or any(u < v for u, v in zip(values, values[1:])):
            raise ValueError("step kernel must be nonnegative and nonincreasing")
        self.edges = edges
        self.values = values

    def __call__(self, t: float) -> float:
        if t < 0 or t >= self.edges[-1]:
            return 0.0
        return self.values[bisect_right(self.edges, t) - 1]

    @property
    def support_end(self) -> float:
        return self.edges[-1]

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    def __repr__(self):
        return f"StepKernel(edges={list(self.edges)}, values={list(self.values)})"


Kernel = ExponentialKernel | StepKernel


class AffineRate:
    """psi(u) = base + slope * u: nondecreasing, Lipschitz with constant slope."""

    __slots__ = ("base", "slope")

    def __init__(self, base: float, slope: float = 0.0):
        if base < 0 or slope < 0:
            raise ValueError("rate function must be nonnegative and nondecreasing")
        self.base = float(base)
        self.slope = float(slope)

    def __call__(self, u: float) -> float:
        return self.base + self.slope * u

    @property
    def at_zero(self) -> float:
        return self.base

    @property
    def lipschitz(self) -> float:
        return self.slope

    def __repr__(self):
        return f"AffineRate({self.base:g} + {self.slope:g}*u)"
