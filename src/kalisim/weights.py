"""Samplable weight distributions over neighborhood families.

Every family exposes an exact pmf and an exact sampler; the lazy
(infinite-support) families need both for simulation, and the branching-cost
analysis reads the pmf. Level tails of the age models live on their
Gamma-ladders (``models.age``), not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .core import EMPTY_ND, AtomND, EmptyND, NestedND, TaylorND
from .sampling import RandomStream


class AtomicWeights:
    """Weights over {empty} and single-node time bins w_{j,n}, n >= 1.

    lambda(empty) = p_empty and lambda(w_{j,n}) = (1 - p_empty) * share_j *
    geometric(ratio_j) in n, optionally truncated at n <= trunc_j. Geometric in
    the bin index keeps an exact sampler available.
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
        for j, nmax in self.trunc.items():
            if nmax is not None and not (isinstance(nmax, int) and nmax >= 1):
                raise ValueError(f"bin truncation for node {j} must be None or an integer >= 1, got {nmax!r}")
        # lambda(w_{j,n}) by node and bin, filled on first use
        self._bin_weights: dict[int, dict[int, float]] = {j: {} for j in self.nodes}

    def to_json(self) -> dict:
        """The family under the keys of a config's ``model.weights`` section."""
        return {
            "empty": self.p_empty,
            "shares": {str(j): v for j, v in self.shares.items()},
            "ratios": {str(j): v for j, v in self.ratios.items()},
            "trunc": {str(j): v for j, v in self.trunc.items()},
        }

    def _bin_pmf(self, j: int, n: int) -> float:
        r = self.ratios[j]
        nmax = self.trunc[j]
        if n < 1 or (nmax is not None and n > nmax):
            return 0.0
        g = r ** (n - 1) * (1.0 - r)
        if nmax is not None:
            g /= 1.0 - r**nmax
        return g

    def bin_weight(self, j: int, n: int) -> float:
        """lambda(w_{j,n}), 0 for a node j without atoms; cached: every
        proposal and every walked bin of the forward bound reads it."""
        row = self._bin_weights.get(j)
        if row is None:
            return 0.0
        w = row.get(n)
        if w is None:
            w = row[n] = (1.0 - self.p_empty) * self.shares[j] * self._bin_pmf(j, n)
        return w

    def pmf(self, desc) -> float:
        if isinstance(desc, EmptyND):
            return self.p_empty
        return self.bin_weight(desc.j, desc.n) if isinstance(desc, AtomND) else 0.0

    def sample_bin(self, j: int, rng: RandomStream) -> int:
        """A bin n of node j's atoms, drawn from the bin pmf (truncation by rejection)."""
        r = self.ratios[j]
        nmax = self.trunc[j]
        while True:
            n = rng.geometric(1.0 - r)
            if nmax is None or n <= nmax:
                return n

    def sample_atom(self, rng: RandomStream) -> tuple[int, int]:
        u = rng.uniform()
        acc = 0.0
        j = self.nodes[-1]
        for cand in self.nodes:
            acc += self.shares[cand]
            if u < acc:
                j = cand
                break
        return j, self.sample_bin(j, rng)

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
        return NestedND(rng.geometric(1.0 - self.ratio))


@dataclass
class TaylorWeights:
    """Product weights over ordered atom tuples: lambda(v_{alpha_{1:k}}) =
    (1 - kappa) kappa^k * prod_m q(alpha_m), with q the bin weights
    (``AtomicWeights.bin_weight``) of an atomic family without the empty set.

    Redundant descriptors (equal unions with different index tuples) stay
    distinct and carry their own mass. A node that no kernel drives has no
    atoms, and its family is the empty set alone, with weight 1.
    """

    order_ratio: float
    atoms: AtomicWeights

    def __post_init__(self):
        if not 0.0 < self.order_ratio < 1.0:
            raise ValueError("order ratio must lie in (0, 1)")
        if self.atoms.nodes and self.atoms.p_empty != 0.0:
            raise ValueError("the Taylor atom distribution must not contain the empty set")
        self.p_empty = 1.0 - self.order_ratio if self.atoms.nodes else 1.0

    def pmf(self, desc) -> float:
        if isinstance(desc, EmptyND):
            return self.p_empty
        if not isinstance(desc, TaylorND):
            return 0.0
        w = (1.0 - self.order_ratio) * self.order_ratio ** desc.order()
        for j, n in desc.alphas:
            w *= self.atoms.bin_weight(j, n)
            if w == 0.0:
                return 0.0
        return w

    def sample(self, rng: RandomStream):
        if not self.atoms.nodes:
            return EMPTY_ND
        k = rng.geometric(1.0 - self.order_ratio) - 1
        if k == 0:
            return EMPTY_ND
        return TaylorND(tuple(self.atoms.sample_atom(rng) for _ in range(k)))


def default_atomic_weights(
    kernels_into: Mapping[int, object], eps: float, p_empty: float = 0.5
) -> AtomicWeights:
    """The model-free atom family of one target node.

    Weight ``p_empty`` on the empty set and uniform shares over the source
    nodes with a nonzero kernel. Bin ratios decay strictly slower than the
    kernel across bins (sqrt of the kernel's per-bin decay, floored at 1/2),
    so adaptive forward bounds stay finite; compact-support kernels get a
    finite family covering their support. A linear model built without
    weights uses it, and the Taylor family of the analytic model takes its
    atoms from it with ``p_empty = 0``. Of the family, only the bin ratios
    change the linear model's forward proposal rate (``LinearHawkesModel``).
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
