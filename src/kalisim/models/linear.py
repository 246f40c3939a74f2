"""Linear Hawkes processes over atomic (single-node time bin) neighborhoods."""

from __future__ import annotations

from typing import Mapping, Optional

from ..core import EMPTY_ND, AtomND, Configuration, EmptyND, Neighborhood, NodeId
from ..errors import ExplosionGuardError
from ..kernels import Kernel
from ..sampling import RandomStream
from ..weights import AtomicWeights, default_atomic_weights
from .atomic import AtomicHawkesModel
from .base import EMPTY_NEIGHBORHOOD, OffspringRow, past_drive


class LinearHawkesModel(AtomicHawkesModel):
    """intensity_i(x) = mu_i + sum_j integral h_ij(-s) dx_j(s).

    The neighborhood family is atomic: the empty set plus single-node bins
    w_{j,n} = {j} x [-n*eps, -(n-1)*eps). The summand of the empty set is the
    spontaneous rate; the summand of w_{j,n} integrates the kernel over the
    bin. Intensities are unbounded in general, so the model has no global
    bounds unless they are declared by the caller (a bounded-regime assertion
    used for backward simulation and branching analysis).

    ``weights`` gives each node's atom family, ``default_atomic_weights``
    by default. Forward thinning per class (``proposal_classes``) proposes at
    mu for the empty set and at max_n B_n / g_j(n) for source j's atoms (B_n
    the bin bound of ``atom_bound``, g_j the bin pmf): lambda(empty)
    and the shares cancel out, and only the bin ratios change the cost. A
    proposal (``sample_component``) draws a bin of its source and sums the
    kernel over the source's points in it, with no descriptor, neighborhood
    or restricted configuration; ``delta`` reads an atom the same way.
    """

    def __init__(
        self,
        mu: Mapping[NodeId, float],
        kernels: Mapping[tuple[NodeId, NodeId], Kernel],
        eps: float,
        weights: Optional[Mapping[NodeId, AtomicWeights]] = None,
        declared_bounds: Optional[Mapping[NodeId, float]] = None,
    ):
        self.mu = {int(i): float(v) for i, v in mu.items()}
        if any(v < 0 for v in self.mu.values()):
            raise ValueError("spontaneous rates must be nonnegative")
        super().__init__(self.mu, kernels, eps)
        if weights is None:
            weights = {i: default_atomic_weights(self._incoming[i], self.eps) for i in self._nodes}
        self.weights = dict(weights)
        self.require_lossless(self.weights)
        self._declared = dict(declared_bounds) if declared_bounds else {}

    # -- structure ----------------------------------------------------------

    def expand(self, i: NodeId, desc) -> Neighborhood:
        if isinstance(desc, EmptyND):
            return EMPTY_NEIGHBORHOOD
        if isinstance(desc, AtomND):
            return self.atom(desc.j, desc.n)
        raise KeyError(f"descriptor {desc!r} is not atomic")

    # -- decomposition ---------------------------------------------------------

    def intensity(self, i: NodeId, x: Configuration) -> float:
        return past_drive(self._incoming[i].items(), x, self.mu[i])

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if isinstance(desc, EmptyND):
            return self.mu[i]
        if not isinstance(desc, AtomND):
            raise KeyError(f"descriptor {desc!r} is not atomic")
        return self.atom_value(i, desc.j, desc.n, x)

    def pmf(self, i: NodeId, desc) -> float:
        return self.weights[i].pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None):
        if cls is None:
            return self.weights[i].sample(rng)
        if cls is EMPTY_ND:
            return EMPTY_ND
        return AtomND(cls, self.weights[i].sample_bin(cls, rng))

    def sample_component(self, i: NodeId, cls, rng: RandomStream, x: Configuration, t: float) -> float:
        """One forward proposal of the class ``cls``, read straight from the
        source's points: the empty set's mu / lambda(empty) (0/0 = 0), or a
        bin n of source ``cls`` drawn with ``sample_bin`` and its drive at the
        shifted past over lambda(w_{cls,n}). The draws and the float are the
        default route's; the whole family (``cls`` None) takes that route."""
        if cls is None:
            return super().sample_component(i, cls, rng, x, t)
        fam = self.weights[i]
        if cls is EMPTY_ND:
            return self.mu[i] / fam.p_empty if fam.p_empty else 0.0
        n = fam.sample_bin(cls, rng)
        lam = fam.bin_weight(cls, n)
        if lam == 0.0:
            return 0.0
        return self.atom_value(i, cls, n, x, t) / lam

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

    def proposal_classes(self, i: NodeId) -> tuple:
        """The empty set, keyed ``EMPTY_ND``, whose bound reads no past; then
        each live source j's atoms, keyed j, whose bound is renewed when j
        accepts. A live source without atom weight is a class too, so its
        first point ends the run with no finite bound."""
        fam = self.weights[i]
        live = [j for j, ker in self._incoming[i].items() if not ker.is_zero()]
        atoms = ((j, (1.0 - fam.p_empty) * fam.shares.get(j, 0.0), frozenset((j,))) for j in live)
        return ((EMPTY_ND, fam.p_empty, frozenset()), *atoms)

    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        """sup over future shifts of the component values of the class ``cls``:
        the empty set's mu / lambda(empty), or ``atom_bound`` over
        source ``cls``'s atoms; the larger of the two for the whole family.
        """
        fam = self.weights[i]
        if cls is not None and cls is not EMPTY_ND:
            return self.atom_bound(i, fam, x, t, cls)
        if self.mu[i] > 0.0 and fam.p_empty == 0.0:
            raise ExplosionGuardError(
                f"node {i} has positive spontaneous rate but zero weight on the empty set"
            )
        best = self.mu[i] / fam.p_empty if self.mu[i] > 0.0 else 0.0
        if cls is EMPTY_ND:
            return best
        return max(best, self.atom_bound(i, fam, x, t))

    # -- branching ------------------------------------------------------------------

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        fam = self.weights[i]
        row: dict[NodeId, float] = {}
        for j in fam.nodes:
            mass = (1.0 - fam.p_empty) * fam.shares[j]
            if mass > 0.0:
                row[j] = self.require_bound(j) * self.eps * mass
        return OffspringRow(row)
