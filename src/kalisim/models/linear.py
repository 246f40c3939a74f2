"""Linear Hawkes processes over atomic (single-node time bin) neighborhoods."""

from __future__ import annotations

from typing import Mapping, Optional

from ..core import EMPTY_ND, AtomND, Configuration, EmptyND, Neighborhood, NodeId, NoGuard
from ..errors import CoverageError, ExplosionGuardError
from ..kernels import Kernel
from ..sampling import RandomStream
from ..weights import AtomicWeights, default_atomic_weights, mean_field_atomic_weights
from .base import (
    KalikowModel,
    OffspringRow,
    atom_future_bound,
    require_window_for_supports,
)

# the empty set's neighborhood, shared by every expansion (neighborhoods are
# never changed after construction)
_EMPTY_NEIGHBORHOOD = Neighborhood.empty()


class LinearHawkesModel(KalikowModel):
    """intensity_i(x) = mu_i + sum_j integral h_ij(-s) dx_j(s).

    The neighborhood family is atomic: the empty set plus single-node bins
    w_{j,n} = {j} x [-n*eps, -(n-1)*eps). The summand of the empty set is the
    spontaneous rate; the summand of w_{j,n} integrates the kernel over the
    bin. Intensities are unbounded in general, so the model has no global
    bounds unless they are declared by the caller (a bounded-regime assertion
    used for backward simulation and branching analysis).

    ``weights`` gives each node's atom family. Without it, a model with no
    declared bounds takes ``mean_field_atomic_weights``, which balance the
    components at the network's mean-field rates and so lower the forward
    bound (about 1.7x fewer proposals per point on the 4-node ring). A model
    that declares bounds takes ``default_atomic_weights``: the perfect sampler
    checks every component against the declared bound, and the mean-field
    family's smaller lambda(empty) raises mu / lambda(empty) above a bound
    declared for those weights.
    """

    def __init__(
        self,
        mu: Mapping[NodeId, float],
        kernels: Mapping[tuple[NodeId, NodeId], Kernel],
        eps: float,
        weights: Optional[Mapping[NodeId, AtomicWeights]] = None,
        declared_bounds: Optional[Mapping[NodeId, float]] = None,
    ):
        if eps <= 0:
            raise ValueError("bin width eps must be positive")
        self.mu = {int(i): float(v) for i, v in mu.items()}
        if any(v < 0 for v in self.mu.values()):
            raise ValueError("spontaneous rates must be nonnegative")
        self.eps = float(eps)
        self.kernels = {(int(i), int(j)): k for (i, j), k in kernels.items()}
        for i, j in self.kernels:
            if i not in self.mu or j not in self.mu:
                raise ValueError(f"kernel ({i},{j}) references an unknown node")
        self._nodes = tuple(sorted(self.mu))
        self._incoming = {
            i: {j: self.kernels.get((i, j)) for j in self._nodes if (i, j) in self.kernels}
            for i in self._nodes
        }
        if weights is None and declared_bounds:
            weights = {i: default_atomic_weights(self._incoming[i], self.eps) for i in self._nodes}
        elif weights is None:
            weights = mean_field_atomic_weights(self._incoming, self.mu, self.eps)
        self.weights = dict(weights)
        for i in self._nodes:
            fam = self.weights[i]
            for j, ker in self._incoming[i].items():
                nmax = fam.trunc.get(j) if j in fam.shares else None
                if nmax is not None and nmax * self.eps < ker.support_end:
                    raise ValueError(
                        f"atom family of node {i} truncates node {j} at bin {nmax} but the kernel"
                        f" reaches back to {ker.support_end:g}; the decomposition would be lossy"
                    )
        self._declared = dict(declared_bounds) if declared_bounds else {}
        self._guard = NoGuard()
        self._expand_cache: dict[tuple[int, int], Neighborhood] = {}

    # -- structure ----------------------------------------------------------

    def node_set(self):
        return self._nodes

    def guard(self):
        return self._guard

    def expand(self, i: NodeId, desc) -> Neighborhood:
        if isinstance(desc, EmptyND):
            return _EMPTY_NEIGHBORHOOD
        if isinstance(desc, AtomND):
            key = (desc.j, desc.n)
            nb = self._expand_cache.get(key)
            if nb is None:
                nb = Neighborhood([(desc.j, -desc.n * self.eps, -(desc.n - 1) * self.eps)])
                self._expand_cache[key] = nb
            return nb
        raise KeyError(f"descriptor {desc!r} is not atomic")

    # -- decomposition ---------------------------------------------------------

    def intensity(self, i: NodeId, x: Configuration) -> float:
        require_window_for_supports(x, [k.support_end for k in self._incoming[i].values()])
        total = self.mu[i]
        for j, ker in self._incoming[i].items():
            for s in x.points(j):
                if s < 0.0:
                    total += ker(-s)
        return total

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if isinstance(desc, EmptyND):
            return self.mu[i]
        if not isinstance(desc, AtomND):
            raise KeyError(f"descriptor {desc!r} is not atomic")
        a, b = -desc.n * self.eps, -(desc.n - 1) * self.eps
        if x.window is not None and not (x.window[0] <= a and b <= x.window[1]):
            raise CoverageError(
                f"configuration window {x.window} does not cover the bin [{a:g}, {b:g}) of node {desc.j}"
            )
        ker = self._incoming[i].get(desc.j)
        if ker is None:
            return 0.0
        return sum(ker(-s) for s in x.points_in(desc.j, a, b))

    def pmf(self, i: NodeId, desc) -> float:
        return self.weights[i].pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream):
        return self.weights[i].sample(rng)

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        yield EMPTY_ND
        fam = self.weights[i]
        nmax = fam.max_level()
        n = 1
        while nmax is None or n <= nmax:
            for desc in fam.enumerate_level(n):
                yield desc
            n += 1

    # -- bounded regime ---------------------------------------------------------

    def global_bound(self, i: NodeId) -> Optional[float]:
        return self._declared.get(i)

    # -- forward simulation -------------------------------------------------------

    def bound_sources(self, i: NodeId) -> frozenset[NodeId]:
        return frozenset(self._incoming[i])

    def local_bound(
        self, i: NodeId, x: Configuration, t: float = 0.0, source: Optional[NodeId] = None
    ) -> float:
        """sup over neighborhoods and future shifts of the component values:
        the larger of the empty set's component and ``atom_future_bound``.
        An atom reads one source, so ``source=j`` bounds j's bins only.
        """
        fam = self.weights[i]
        if self.mu[i] > 0.0 and fam.p_empty == 0.0:
            raise ExplosionGuardError(
                f"node {i} has positive spontaneous rate but zero weight on the empty set"
            )
        best = self.mu[i] / fam.p_empty if self.mu[i] > 0.0 else 0.0
        return max(best, atom_future_bound(i, self._incoming[i], fam, x, t, self.eps, source))

    # -- branching ------------------------------------------------------------------

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        fam = self.weights[i]
        row: dict[NodeId, float] = {}
        for j in fam.nodes:
            mass = (1.0 - fam.p_empty) * fam.shares[j]
            if mass > 0.0:
                row[j] = self._require_bound(j) * self.eps * mass
        return OffspringRow(row)
