"""Age-dependent Hawkes processes with a hard refractory period.

intensity_i(x) = psi_i( sum_j integral h_ij(-s) dx_j(s) ) * 1{age_i(x) > delta}

The neighborhood family is nested: v_k = omega_k x [-k*delta, 0) with
omega_1 = {i} and omega_k growing to the whole index set. Lipschitz rate
functions give per-level bounds whose total is finite, which is the regime
the perfect simulator needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Mapping, Optional, Sequence

from .. import series
from ..core import Configuration, Neighborhood, NestedND, NodeId, RefractoryGap
from ..errors import NonSummableError
from ..kernels import AffineRate, ExponentialKernel, Kernel, StepKernel
from ..sampling import RandomStream
from .base import (
    KalikowModel,
    OffspringRow,
    nested_levels,
    require_window_covers,
    require_window_for_supports,
)

_WALK_CAP = 10_000_000


class GammaLadder:
    """One node's per-level bounds Gamma_k and the level law they induce.

    The rungs are the ``head`` values Gamma_1..Gamma_H, then closed-form tail
    terms: each geometric ``(a, r)`` pair adds a r^{k-1} and each ``power``
    ``(c, p)`` pair adds c k^{-p} to every rung beyond the head, so totals
    and tails are exact. ``total`` is Gamma = sum_k Gamma_k, ``tail(n)`` the
    mass of the rungs beyond n and ``weighted_tail(n)`` is
    sum_{k>n} k Gamma_k, used for offspring means (each level-k neighborhood
    has time depth k*delta). The level weights are lambda(v_k) =
    Gamma_k / Gamma, so that every component is bounded by Gamma.

    Rungs are kept in a list once computed, since ``pmf`` reads one per
    component value. ``sample`` inverts the level CDF by bisection on the
    running sums of the rungs, grown on demand and kept; the list stops
    growing at the first level whose tail is negligible, which takes every
    higher draw.
    """

    def __init__(self, head: Sequence[float] = (),
                 geometric: Sequence[tuple[float, float]] = (),
                 power: Sequence[tuple[float, float]] = ()):
        self.k_head = len(head)
        self.geometric = [(a, r) for a, r in geometric if a > 0.0]
        for _, r in self.geometric:
            if not 0.0 < r < 1.0:
                raise ValueError("geometric tail ratio must lie in (0, 1)")
        self.power = [(float(c), float(p)) for c, p in power]
        for _, p in self.power:
            if p <= 2.0:
                raise ValueError("power tail needs p > 2 for finite offspring means")
        self._rungs = list(head)
        self._cum: list[float] = []
        self._stop_reached = False
        self.total = sum(head) + self.tail(self.k_head)

    def level(self, k: int) -> float:
        rungs = self._rungs
        while len(rungs) < k:
            n = len(rungs) + 1
            rungs.append(sum(a * r ** (n - 1) for a, r in self.geometric)
                         + sum(c * n ** (-p) for c, p in self.power))
        return rungs[k - 1] if k >= 1 else 0.0

    def tail(self, n: int) -> float:
        if n >= self.k_head:
            return (sum(a * r**n / (1.0 - r) for a, r in self.geometric)
                    + sum(c * series.zeta_tail(p, n) for c, p in self.power))
        return sum(self._rungs[n:self.k_head]) + self.tail(self.k_head)

    def weighted_tail(self, n: int) -> float:
        if n >= self.k_head:
            # sum_{k>n} k r^{k-1} = r^n ((n+1) - n r) / (1-r)^2
            return (sum(a * r**n * ((n + 1) - n * r) / (1.0 - r) ** 2 for a, r in self.geometric)
                    + sum(c * series.zeta_tail(p - 1.0, n) for c, p in self.power))
        head_part = sum(k * self._rungs[k - 1] for k in range(n + 1, self.k_head + 1))
        return head_part + self.weighted_tail(self.k_head)

    def pmf(self, desc) -> float:
        if self.total <= 0:
            raise ValueError("total bound must be positive")
        return self.level(desc.k) / self.total if isinstance(desc, NestedND) and desc.k >= 1 else 0.0

    def sample(self, rng: RandomStream) -> NestedND:
        if self.total <= 0:
            raise ValueError("total bound must be positive")
        u = rng.uniform() * self.total
        cum = self._cum
        while not (self._stop_reached or (cum and u < cum[-1])):
            k = len(cum) + 1
            if k >= _WALK_CAP:
                raise NonSummableError(f"ladder sampler walk exceeded its cap of {_WALK_CAP} levels")
            cum.append((cum[-1] if cum else 0.0) + self.level(k))
            self._stop_reached = self.tail(k) < 1e-15 * self.total
        # below the stop level cum[-1] > u, so the cap only binds at the stop level
        return NestedND(min(bisect_right(cum, u) + 1, len(cum)))


class AgeHawkesModel(KalikowModel):
    """Nested-family decomposition of the age-dependent Hawkes process.

    Construction is strategy-based so a translation-invariant lattice model
    and an explicit finite network share the machinery:

    * ``kernel(i, j)`` returns the interaction kernel or None,
    * ``omega(i, k)`` returns the k-th nested node set (omega_1 = {i}),
    * ``ladder(i)`` returns the Gamma ladder of node i,
    * ``psi(i)`` returns the rate function of node i.
    """

    def __init__(
        self,
        kernel: Callable[[NodeId, NodeId], Optional[Kernel]],
        omega: Callable[[NodeId, int], tuple[NodeId, ...]],
        ladder: Callable[[NodeId], GammaLadder],
        psi: Callable[[NodeId], AffineRate],
        refractory: float,
        nodes: Optional[tuple[NodeId, ...]],
    ):
        if refractory <= 0:
            raise ValueError("refractory length must be positive")
        self.refractory = float(refractory)
        self._kernel = kernel
        self._omega = omega
        self._psi = psi
        self._nodes = nodes
        self._guard = RefractoryGap(self.refractory)
        self._ladders: dict[NodeId, GammaLadder] = {}
        self._ladder_of = ladder
        self._expand_cache: dict[tuple[NodeId, int], Neighborhood] = {}
        self._sup_cache: dict[tuple[NodeId, int], float] = {}

    @classmethod
    def finite(
        cls,
        psi: AffineRate | Mapping[NodeId, AffineRate],
        kernels: Mapping[tuple[NodeId, NodeId], Kernel],
        refractory: float,
        nodes: Sequence[NodeId],
        omega: Optional[Mapping[NodeId, Sequence[Sequence[NodeId]]]] = None,
    ) -> "AgeHawkesModel":
        """Explicit finite network.

        ``omega[i]`` lists the nested node sets per level; the default is
        omega_1 = {i} and omega_2 = every node. Beyond the last listed level
        the node set saturates while the time window keeps deepening.
        """
        node_tuple = tuple(sorted(int(n) for n in nodes))
        kernels = {(int(i), int(j)): k for (i, j), k in kernels.items()}
        psi_map = dict(psi) if isinstance(psi, Mapping) else {i: psi for i in node_tuple}

        ladders_sets = {}
        for i in node_tuple:
            sources = {j for (ii, j) in kernels if ii == i}
            ladders_sets[i] = nested_levels(i, (omega or {}).get(i), node_tuple, sources)

        def omega_fn(i: NodeId, k: int) -> tuple[NodeId, ...]:
            levels = ladders_sets[i]
            return levels[min(k, len(levels)) - 1]

        def kernel_fn(i: NodeId, j: NodeId) -> Optional[Kernel]:
            return kernels.get((i, j))

        def default_ladder(i: NodeId) -> GammaLadder:
            # called on first use, once ``model`` below is bound
            k0 = len(ladders_sets[i])
            k_head = k0 + 1
            for (ii, j), ker in kernels.items():
                if ii == i and isinstance(ker, StepKernel):
                    k_head = max(k_head, math.ceil(ker.support_end / refractory) + 1)
            exp_terms = [
                (psi_map[i].lipschitz * ker.alpha, math.exp(-ker.beta * refractory))
                for (ii, j), ker in kernels.items()
                if ii == i and isinstance(ker, ExponentialKernel) and not ker.is_zero()
            ]
            return GammaLadder([model.gamma_bar(i, k) for k in range(1, max(2, k_head) + 1)], exp_terms)

        model = cls(
            kernel=kernel_fn,
            omega=omega_fn,
            ladder=default_ladder,
            psi=lambda i: psi_map[i],
            refractory=refractory,
            nodes=node_tuple,
        )
        return model

    # -- structure ----------------------------------------------------------

    def node_set(self):
        return self._nodes

    def guard(self):
        return self._guard

    def ladder(self, i: NodeId) -> GammaLadder:
        lad = self._ladders.get(i)
        if lad is None:
            lad = self._ladders[i] = self._ladder_of(i)
        return lad

    def omega(self, i: NodeId, k: int) -> tuple[NodeId, ...]:
        return self._omega(i, k)

    def kernel(self, i: NodeId, j: NodeId) -> Optional[Kernel]:
        return self._kernel(i, j)

    def expand(self, i: NodeId, desc) -> Neighborhood:
        if not isinstance(desc, NestedND):
            raise KeyError(f"descriptor {desc!r} is not a nested level")
        key = (i, desc.k)
        nb = self._expand_cache.get(key)
        if nb is None:
            d = desc.k * self.refractory
            nb = Neighborhood([(j, -d, 0.0) for j in self._omega(i, desc.k)])
            self._expand_cache[key] = nb
        return nb

    # -- intensity and summands ------------------------------------------------

    def _alive(self, i: NodeId, x: Configuration) -> bool:
        """1{age_i(x) > delta}: no own point within the trailing refractory window."""
        return x.count_in(i, -self.refractory, 0.0) == 0

    def _drive(self, i: NodeId, k: int, x: Configuration) -> float:
        if k < 1:
            return 0.0
        lo = -k * self.refractory
        total = 0.0
        for j in self._omega(i, k):
            ker = self._kernel(i, j)
            if ker is None:
                continue
            for s in x.points_in(j, lo, 0.0):
                total += ker(-s)
        return total

    def intensity(self, i: NodeId, x: Configuration) -> float:
        sources = x.nodes() if self._nodes is None else self._nodes
        supports = []
        for j in sources:
            ker = self._kernel(i, j)
            if ker is not None:
                supports.append(ker.support_end)
        require_window_for_supports(x, supports)
        if not self._alive(i, x):
            return 0.0
        total = 0.0
        for j in sources:
            ker = self._kernel(i, j)
            if ker is None:
                continue
            for s in x.points(j):
                if s < 0.0:
                    total += ker(-s)
        return self._psi(i)(total)

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if not isinstance(desc, NestedND):
            raise KeyError(f"descriptor {desc!r} is not a nested level")
        require_window_covers(x, self.expand(i, desc))
        if not self._alive(i, x):
            return 0.0
        psi = self._psi(i)
        if desc.k == 1:
            # within v_1 the indicator forces an empty own-window drive
            return psi.at_zero
        return psi(self._drive(i, desc.k, x)) - psi(self._drive(i, desc.k - 1, x))

    def pmf(self, i: NodeId, desc) -> float:
        return self.ladder(i).pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None):
        return self.ladder(i).sample(rng)

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        k = 1
        while True:
            yield NestedND(k)
            k += 1

    # -- bounds ---------------------------------------------------------------

    def gamma_bar(self, i: NodeId, k: int) -> float:
        """Lipschitz lower envelope for admissible per-level bounds.

        bar-Gamma_1 = psi(0); for k >= 2 it combines the full mass of kernels
        from nodes entering at level k with the (k-1)delta kernel values of
        nodes already present (at most one point per refractory window).
        """
        if k < 1:
            raise ValueError("level index must be >= 1")
        psi = self._psi(i)
        if k == 1:
            return psi.at_zero
        lip = psi.lipschitz
        cur = self._omega(i, k)
        prev = self._omega(i, k - 1)
        prev_set = set(prev)
        total = 0.0
        for j in cur:
            ker = self._kernel(i, j)
            if ker is None:
                continue
            if j in prev_set:
                total += ker((k - 1) * self.refractory)
            else:
                total += ker.at_zero + ker.l1 / self.refractory
        return lip * total

    def global_bound(self, i: NodeId) -> Optional[float]:
        return self.ladder(i).total

    def component_sup(self, i: NodeId, desc) -> Optional[float]:
        # gamma_bar(i, 1) = psi(0) is delta_1 on every alive configuration, and
        # for k >= 2 gamma_bar bounds delta_k on the refractory subspace
        key = (i, desc.k)
        sup = self._sup_cache.get(key)
        if sup is None:
            sup = self._sup_cache[key] = self.gamma_bar(i, desc.k) / self.pmf(i, desc)
        return sup

    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        # with lambda_k = Gamma_k / Gamma every component is bounded by Gamma,
        # uniformly over the refractory subspace and hence over future shifts
        return self.ladder(i).total

    # -- branching ----------------------------------------------------------------

    def entry_level(self, i: NodeId, j: NodeId) -> Optional[int]:
        """First level whose node set contains j (None if never)."""
        prev = None
        for k in range(1, 1_000_001):
            members = self._omega(i, k)
            if j in members:
                return k
            if members == prev:
                return None  # saturated without ever containing j
            prev = members
        return None

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        if self._nodes is None:
            raise NotImplementedError("lattice models provide their own offspring row")
        lad = self.ladder(i)
        gamma_total = lad.total
        row: dict[NodeId, float] = {}
        for j in self._nodes:
            lvl = self.entry_level(i, j)
            if lvl is None:
                continue
            mean_depth = lad.weighted_tail(lvl - 1) / gamma_total
            row[j] = self._require_bound(j) * self.refractory * mean_depth
        return OffspringRow(row)
