"""Samplable weight distributions over neighborhood families.

Every family exposes an exact pmf, an exact sampler and closed-form tail
masses; the lazy (infinite-support) families need all three for simulation
and for the branching-cost analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .core import EMPTY_ND, AtomND, EmptyND, NestedND, TaylorND
from .sampling import RandomStream


class FiniteWeights:
    """Explicit finite family [(descriptor, weight)]; weights sum to 1."""

    def __init__(self, entries: Sequence[tuple[object, float]], tol: float = 1e-12):
        self.entries = [(d, float(w)) for d, w in entries]
        if any(w < 0 for _, w in self.entries):
            raise ValueError("weights must be nonnegative")
        total = sum(w for _, w in self.entries)
        if abs(total - 1.0) > tol:
            raise ValueError(f"weights must sum to 1, got {total}")
        self._pmf = {}
        for d, w in self.entries:
            self._pmf[d] = self._pmf.get(d, 0.0) + w

    def pmf(self, desc) -> float:
        return self._pmf.get(desc, 0.0)

    def sample(self, rng: RandomStream):
        u = rng.uniform()
        acc = 0.0
        for d, w in self.entries:
            acc += w
            if u < acc:
                return d
        return self.entries[-1][0]

    def enumerate(self):
        for d, _ in self.entries:
            yield d

    def tail_after(self, n: int) -> float:
        return sum(w for _, w in self.entries[n:])


class AtomicWeights:
    """Weights over {empty} and single-node time bins w_{j,n}, n >= 1.

    lambda(empty) = p_empty and lambda(w_{j,n}) = (1 - p_empty) * share_j *
    geometric(ratio_j) in n, optionally truncated at n <= trunc_j. Geometric in
    the bin index keeps exact samplers and tail masses available.
    """

    def __init__(
        self,
        p_empty: float,
        shares: Mapping[int, float],
        ratios: Mapping[int, float],
        trunc: Optional[Mapping[int, Optional[int]]] = None,
    ):
        if not 0.0 <= p_empty <= 1.0:
            raise ValueError("p_empty must lie in [0, 1]")
        self.p_empty = float(p_empty)
        self.nodes = tuple(sorted(shares))
        total = sum(shares.values())
        if self.nodes and abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom shares must sum to 1, got {total}")
        if not self.nodes and p_empty != 1.0:
            raise ValueError("a family without atoms must put all mass on the empty set")
        self.shares = {j: float(shares[j]) for j in self.nodes}
        self.ratios = {}
        for j in self.nodes:
            r = float(ratios[j])
            if not 0.0 < r < 1.0:
                raise ValueError(f"bin ratio for node {j} must lie in (0, 1), got {r}")
            self.ratios[j] = r
        self.trunc = {j: (trunc or {}).get(j) for j in self.nodes}

    def _bin_pmf(self, j: int, n: int) -> float:
        r = self.ratios[j]
        nmax = self.trunc[j]
        if n < 1 or (nmax is not None and n > nmax):
            return 0.0
        g = r ** (n - 1) * (1.0 - r)
        if nmax is not None:
            g /= 1.0 - r**nmax
        return g

    def _bin_tail(self, j: int, n: int) -> float:
        """Mass of bins > n for node j (within the atom share)."""
        r = self.ratios[j]
        nmax = self.trunc[j]
        if nmax is None:
            return r**n
        if n >= nmax:
            return 0.0
        return (r**n - r**nmax) / (1.0 - r**nmax)

    def pmf(self, desc) -> float:
        if isinstance(desc, EmptyND):
            return self.p_empty
        if isinstance(desc, AtomND) and desc.j in self.shares:
            return (1.0 - self.p_empty) * self.shares[desc.j] * self._bin_pmf(desc.j, desc.n)
        return 0.0

    def atom_pmf(self, j: int, n: int) -> float:
        """pmf of the atom (j, n) under the conditional (non-empty) distribution."""
        if j not in self.shares:
            return 0.0
        return self.shares[j] * self._bin_pmf(j, n)

    def sample_atom(self, rng: RandomStream) -> tuple[int, int]:
        u = rng.uniform()
        acc = 0.0
        j = self.nodes[-1]
        for cand in self.nodes:
            acc += self.shares[cand]
            if u < acc:
                j = cand
                break
        r = self.ratios[j]
        nmax = self.trunc[j]
        while True:
            n = int(rng.generator.geometric(1.0 - r))
            if nmax is None or n <= nmax:
                return j, n

    def sample(self, rng: RandomStream):
        if rng.uniform() < self.p_empty:
            return EMPTY_ND
        j, n = self.sample_atom(rng)
        return AtomND(j, n)

    def enumerate_level(self, n: int):
        for j in self.nodes:
            yield AtomND(j, n)

    def max_level(self) -> Optional[int]:
        if not self.nodes:
            return 0
        tr = [self.trunc[j] for j in self.nodes]
        return max(t for t in tr) if all(t is not None for t in tr) else None

    def tail_after_level(self, n: int) -> float:
        """Mass of all atoms with bin index > n."""
        return (1.0 - self.p_empty) * sum(
            self.shares[j] * self._bin_tail(j, n) for j in self.nodes
        )


class GeometricLevels:
    """lambda(empty) = p_empty, lambda(v_k) = (1 - p_empty)(1 - r) r^{k-1}."""

    def __init__(self, p_empty: float, ratio: float):
        if not 0.0 <= p_empty < 1.0:
            raise ValueError("p_empty must lie in [0, 1)")
        if not 0.0 < ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        self.p_empty = float(p_empty)
        self.ratio = float(ratio)

    def level_pmf(self, k: int) -> float:
        if k < 1:
            return 0.0
        return (1.0 - self.p_empty) * (1.0 - self.ratio) * self.ratio ** (k - 1)

    def pmf(self, desc) -> float:
        if isinstance(desc, EmptyND):
            return self.p_empty
        return self.level_pmf(desc.k) if isinstance(desc, NestedND) else 0.0

    def sample(self, rng: RandomStream):
        if self.p_empty and rng.uniform() < self.p_empty:
            return EMPTY_ND
        return NestedND(int(rng.generator.geometric(1.0 - self.ratio)))

    def tail_after_level(self, n: int) -> float:
        return (1.0 - self.p_empty) * self.ratio**n


@dataclass
class TaylorWeights:
    """Product weights over ordered atom tuples: lambda(v_{alpha_{1:k}}) =
    (1 - kappa) kappa^k * prod_m q(alpha_m), with q from an atomic family.

    Redundant descriptors (equal unions with different index tuples) stay
    distinct and carry their own mass.
    """

    order_ratio: float
    atoms: AtomicWeights

    def __post_init__(self):
        if not 0.0 < self.order_ratio < 1.0:
            raise ValueError("order ratio must lie in (0, 1)")
        if self.atoms.p_empty != 0.0:
            raise ValueError("the Taylor atom distribution must not contain the empty set")

    def pmf(self, desc) -> float:
        if isinstance(desc, EmptyND):
            return 1.0 - self.order_ratio
        if not isinstance(desc, TaylorND):
            return 0.0
        w = (1.0 - self.order_ratio) * self.order_ratio ** desc.order()
        for j, n in desc.alphas:
            w *= self.atoms.atom_pmf(j, n)
            if w == 0.0:
                return 0.0
        return w

    def order_pmf(self, k: int) -> float:
        return (1.0 - self.order_ratio) * self.order_ratio**k

    def sample(self, rng: RandomStream):
        k = int(rng.generator.geometric(1.0 - self.order_ratio)) - 1
        if k == 0:
            return EMPTY_ND
        return TaylorND(tuple(self.atoms.sample_atom(rng) for _ in range(k)))

    def tail_after_order(self, n: int) -> float:
        return self.order_ratio ** (n + 1)


def default_atomic_weights(
    kernels_into: Mapping[int, object], eps: float, p_empty: float = 0.5
) -> AtomicWeights:
    """Library default atom family for one target node.

    Uniform shares over source nodes with a nonzero kernel; bin ratios decay
    strictly slower than the kernel across bins (sqrt of the kernel's
    per-bin decay, floored at 1/2) so adaptive forward bounds stay finite;
    compact-support kernels get a finite family covering their support.
    """
    live = {j: k for j, k in kernels_into.items() if k is not None and not k.is_zero()}
    if not live:
        return AtomicWeights(1.0, {}, {})
    shares = {j: 1.0 / len(live) for j in live}
    ratios = {}
    trunc = {}
    for j, ker in live.items():
        if math.isfinite(ker.support_end):
            ratios[j] = 0.5
            trunc[j] = max(1, math.ceil(ker.support_end / eps))
        else:
            ratios[j] = max(0.5, math.sqrt(ker.decay_per(eps)))
            trunc[j] = None
    return AtomicWeights(p_empty, shares, ratios, trunc)
