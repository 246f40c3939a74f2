"""The integer-lattice age model, the paper's infinite-network example.

Nodes are the integers, psi(u) = 1 + u (psi(0) = 1, Lipschitz constant
L = 1), a hard refractory period delta, and interaction kernels
h_ij(t) = beta_ij exp(-t/delta) with beta_ii = 1 and beta_ij = 1 / (2 |j-i|^g)
for j != i. The Kalikow decomposition is not unique; this module holds three
of the same intensity.

The preset, ``AtomLattice``, decomposes it over atoms. psi is affine, so the
drive splits over single-node bins w_{j,n} = {j} x [-n delta, -(n-1) delta),
the atomic family's bins of width delta (``models.atomic``), and the
refractory indicator reads only node i's own bin w_{i,1}:

- the base set w_{i,1}, of value alive psi(0) and weight psi(0) / Gamma;
- the atom (j, n), for j != i with n >= 1 and for j = i with n >= 2, of
  neighbourhood w_{i,1} U w_{j,n} and value alive L sum h_ij over the bin's
  points. A half-open bin of width delta holds at most one point of a
  refractory past, so the value's sup is L h_ij((n-1) delta), and the atom's
  weight is that sup over Gamma.

Gamma = 1 + 1/(e-1) + zeta(g)/(1 - e^{-1}) is the sup of the intensity
(3.294 at g = 4). A drawn neighbourhood holds 1.52 nodes on average at g = 4,
and the offspring mean is delta (2 Gamma - 1).

The paper's nested decomposition takes level k to be the nodes within
distance k - 1 over [-k delta, 0) (``models.nested``). ``DiagonalLattice``
simulates on its Lipschitz rungs bar-Gamma_k, whose sum is the same Gamma,
and ``PowerLadderLattice`` on the paper's weight family, the power ladder
C_g k^{-p} with C_g = ``lattice_c_gamma(g)`` and 3 < p <= g (C_g = 31.20 and
Gamma = 33.76 at g = p = 4). The preset takes no p; ``analyze --p-grid``
costs the power ladder at each exponent of its grid, one
``PowerLadderLattice`` each.
"""

from __future__ import annotations

import math
from functools import cache

from .. import series
from ..core import AtomND, Configuration, Neighborhood, NodeId, RefractoryGap
from ..errors import NonSummableError
from ..kernels import AffineRate, ExponentialKernel
from ..sampling import RandomStream
from .age import _ONE_MINUS_INV_E, AgeHawkesModel, GammaLadder
from .atomic import bin_span
from .base import KalikowModel, OffspringRow, past_drive
from .nested import NestedModel

# most distances an offspring row lists on each side of its node
NEAR_MAX = 100_000


def lattice_gamma_bar(gamma: float, k: int) -> float:
    """Closed form of the Lipschitz envelope bar-Gamma_k: ``DiagonalLattice``'s rungs.

    bar-Gamma_1 = 1 and, for k >= 2,
    bar-Gamma_k = (1 - e^{-k}) / ((1 - e^{-1}) (k-1)^gamma)
                  + e^{-(k-1)} (1 + sum_{m=1}^{k-2} m^{-gamma}):
    the two nodes entering at distance k-1 add at most k points each, at ages
    past 0, delta, ..., (k-1) delta, through kernels (k-1)^{-gamma} e^{-t/delta}
    / 2, and each node already present adds one point of age past (k-1) delta.
    """
    if k < 1:
        raise ValueError("level index must be >= 1")
    if k == 1:
        return 1.0
    return (math.expm1(-k) / math.expm1(-1.0) / (k - 1) ** gamma
            + math.exp(-(k - 1)) * (1.0 + series.harmonic_partial(gamma, k - 2)))


@cache
def lattice_c_gamma(gamma: float) -> float:
    """Smallest constant with C k^{-gamma} >= bar-Gamma_k for every diagonal
    level (k-1, k): the constant of the paper's power ladder, which
    ``PowerLadderLattice`` keeps as ``c_gamma``.

    k^gamma bar-Gamma_k = (1 - e^{-k}) / (1 - e^{-1}) (k/(k-1))^gamma
    + k^gamma e^{-(k-1)} (1 + H_gamma(k-2)); both pieces decrease from
    k = 2 gamma on (the second by a factor below e^{gamma/k - 1}
    (1 + (k-1)^{-gamma}) per level), so the supremum is attained on the
    explicit prefix k <= max(50, 3 gamma): at k = 4 for gamma = 4, C = 31.20.
    """
    if gamma <= 3.0:
        raise ValueError("lattice preset needs gamma > 3")
    envelope = GammaLadder([1.0], lipschitz=gamma)
    return max(k**gamma * envelope.level(k) for k in range(1, max(50, math.ceil(3.0 * gamma)) + 1))


class LatticeNetwork:
    """The network every lattice decomposition reads: the integers, every
    node alike, the rate psi(u) = 1 + u and the kernels by distance, each
    built once."""

    def _set_network(self, gamma: float) -> None:
        if gamma <= 3.0:
            raise ValueError("lattice preset needs gamma > 3")
        self.gamma_exponent = float(gamma)
        self._psi = AffineRate(1.0, 1.0)
        self._by_distance: dict[int, ExponentialKernel] = {}

    def node_set(self):
        return None

    def kernel(self, i: NodeId, j: NodeId) -> ExponentialKernel:
        d = abs(j - i)
        ker = self._by_distance.get(d)
        if ker is None:
            beta = 1.0 if d == 0 else 0.5 / d**self.gamma_exponent
            ker = self._by_distance[d] = ExponentialKernel(alpha=beta, beta=1.0 / self.refractory)
        return ker


class AtomLattice(LatticeNetwork, KalikowModel):
    """The lattice preset on atoms (see the module docstring). The atom
    (j, n) is ``AtomND(j, n)``, and ``AtomND(i, 1)`` is node i's base set."""

    def __init__(self, gamma: float, delta: float):
        if delta <= 0:
            raise ValueError("refractory length must be positive")
        self._set_network(gamma)
        self.refractory = float(delta)
        psi0, lip = self._psi.at_zero, self._psi.lipschitz
        # the atoms' sups summed, on node i's own bins n >= 2 and on each side
        self._own = lip / math.expm1(1.0)
        self._cross = lip * series.zeta(self.gamma_exponent) / _ONE_MINUS_INV_E
        self._total = psi0 + self._own + self._cross
        # the draw's cut points: base, own bins, then the left and right sides
        self._cuts = (psi0, psi0 + self._own, psi0 + self._own + 0.5 * self._cross)
        # Devroye's constants for the distance: b = 2^{g-1} and -1/(g-1)
        self._zeta_b = 2.0 ** (self.gamma_exponent - 1.0)
        self._zeta_root = -1.0 / (self.gamma_exponent - 1.0)
        self._descs: dict[tuple[NodeId, int], AtomND] = {}
        self._windows: dict[tuple[NodeId, AtomND], Neighborhood] = {}

    def guard(self):
        return RefractoryGap(self.refractory)

    # -- the draw ---------------------------------------------------------------

    def distance(self, rng: RandomStream) -> int:
        """|j - i| of a drawn atom off node i, of law d^{-g} / zeta(g), exactly:
        Devroye's rejection sampler for the zeta law (Devroye 1986,
        *Non-Uniform Random Variate Generation*, X.6), about 1.06 rounds of two
        uniforms each at g = 4."""
        b, root, g1 = self._zeta_b, self._zeta_root, self.gamma_exponent - 1.0
        while True:
            d = int((1.0 - rng.uniform()) ** root)
            t = (1.0 + 1.0 / d) ** g1
            if rng.uniform() * d * (t - 1.0) * b <= t * (b - 1.0):
                return d

    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None) -> AtomND:
        """One uniform picks the base set, an own bin or a side; the bin index
        is a geometric, P(n > m) = e^{-m} (own bins from n = 2), and the
        distance is ``distance``. Each atom's descriptor is built once."""
        u = rng.uniform() * self._total
        base, own, left = self._cuts
        if u < base:
            j, n = i, 1
        else:
            n = rng.geometric(_ONE_MINUS_INV_E)
            if u < own:
                j, n = i, n + 1
            else:
                d = self.distance(rng)
                j = i - d if u < left else i + d
        desc = self._descs.get((j, n))
        if desc is None:
            desc = self._descs[j, n] = AtomND(j, n)
        return desc

    def expand(self, i: NodeId, desc) -> Neighborhood:
        """w_{i,1} U w_{j,n}, built on its first read and then kept."""
        nb = self._windows.get((i, desc))
        if nb is None:
            if not isinstance(desc, AtomND):
                raise KeyError(f"descriptor {desc!r} is not a lattice atom")
            nb = self._windows[i, desc] = Neighborhood(
                [(i, *bin_span(1, self.refractory)), (desc.j, *bin_span(desc.n, self.refractory))]
            )
        return nb

    def enumerate_descriptors(self, i: NodeId, x: Configuration | None = None):
        """The base set, then the atoms by s = |j - i| + n = 2, 3, ...: own
        bin first, then each distance, left before right."""
        yield AtomND(i, 1)
        s = 2
        while True:
            yield AtomND(i, s)
            for d in range(1, s):
                yield AtomND(i - d, s - d)
                yield AtomND(i + d, s - d)
            s += 1

    # -- the decomposition --------------------------------------------------------

    def intensity(self, i: NodeId, x: Configuration) -> float:
        if x.count_in(i, *bin_span(1, self.refractory)):
            return 0.0
        return self._psi(past_drive([(j, self.kernel(i, j)) for j in x.nodes()], x))

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if not isinstance(desc, AtomND):
            raise KeyError(f"descriptor {desc!r} is not a lattice atom")
        if x.count_in(i, *bin_span(1, self.refractory)):
            return 0.0
        if desc.j == i and desc.n == 1:
            return self._psi.at_zero
        ker = self.kernel(i, desc.j)
        return self._psi.lipschitz * sum(ker(-s) for s in x.points_in(desc.j, *bin_span(desc.n, self.refractory)))

    def pmf(self, i: NodeId, desc) -> float:
        """The summand's sup over refractory pasts over Gamma: psi(0) on the
        base set, L h_ij((n-1) delta) on an atom, since its bin holds at most
        one point, of age past (n-1) delta (a bin n < 1 lies in the future,
        where the kernel is 0)."""
        if not isinstance(desc, AtomND):
            return 0.0
        if desc.j == i and desc.n == 1:
            return self._psi.at_zero / self._total
        near = bin_span(desc.n, self.refractory)[1]
        return self._psi.lipschitz * self.kernel(i, desc.j)(-near) / self._total

    def global_bound(self, i: NodeId) -> float:
        return self._total

    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        # lambda = sup / Gamma bounds every component by Gamma on the refractory subspace
        return self._total

    # -- branching ----------------------------------------------------------------

    def invariant_offspring_mean(self) -> float:
        """delta (Gamma + 1/(e-1) + zeta(g)/(1 - e^{-1})) = delta (2 Gamma - 1):
        every draw reads delta of node i, and an atom delta more."""
        return self.refractory * (self._total + self._own + self._cross)

    def nodes_per_neighborhood(self) -> float:
        """Mean nodes of a drawn neighbourhood: one on the base set and the own
        bins, two off node i."""
        return (self._psi.at_zero + self._own + 2.0 * self._cross) / self._total

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Row of M in closed form: M_ii = delta (Gamma + 1/(e-1)) and
        M_{i,i+d} = delta beta_d / (1 - e^{-1}) for d != 0, the atoms (i+d, n)
        summed over n.

        ``near`` lists the distances d = -D..D whose entry is at least ``tol``
        (at most ``NEAR_MAX`` on each side). ``far`` is the exact mass beyond
        D, delta zeta_tail(g, D) / (1 - e^{-1}), and ``err`` bounds its
        numerical error by the zeta tail's own bound.
        """
        dlt, g = self.refractory, self.gamma_exponent
        scale = dlt * self._psi.lipschitz / _ONE_MINUS_INV_E
        near: dict[NodeId, float] = {i: dlt * (self._total + self._own)}
        d = 1
        while d <= NEAR_MAX and (mass := scale * 0.5 / d**g) >= tol:
            near[i - d] = near[i + d] = mass
            d += 1
        far = scale * series.zeta_tail(g, d - 1)
        err = scale * series.zeta_tail_err(g, d - 1)
        if not err < tol:
            raise NonSummableError(
                f"offspring row far mass certified only to {err:g}, not below tol = {tol:g}"
            )
        return OffspringRow(near, far, err)


class DiagonalLattice(LatticeNetwork, AgeHawkesModel):
    """The lattice on the paper's nested levels: level k is the pair (R, D) =
    (k - 1, k), the nodes within distance k - 1 over [-k delta, 0), simulated
    on the Lipschitz rungs bar-Gamma_k. The same Gamma as the preset's atoms,
    on costlier neighbourhoods (E(W) = 1.142 at g = 4, delta = 0.005, against
    1.029). A subclass may swap the ladder (``_build_ladder``)."""

    def __init__(self, gamma: float, delta: float):
        self._set_network(gamma)
        NestedModel.__init__(self, delta)  # windows on the integers: no finite node set
        self._ladder = self._build_ladder(0)

    def level(self, k: int) -> tuple[int, int]:
        """Level k's pair (R, D)."""
        return k - 1, k

    def omega(self, i: NodeId, k: int) -> tuple[NodeId, ...]:
        r = self.level(k)[0]
        return tuple(range(i - r, i + r + 1))

    def depth(self, i: NodeId, k: int) -> int:
        return self.level(k)[1]

    def ladder(self, i: NodeId) -> GammaLadder:
        return self._ladder

    def _build_ladder(self, i: NodeId) -> GammaLadder:
        """Every node's ladder: bar-Gamma_1 = psi(0), then the diagonal Lipschitz envelope."""
        return GammaLadder([self.gamma_bar(0, 1)], lipschitz=self.gamma_exponent)

    # -- translation-invariant branching reduction ----------------------------

    def invariant_offspring_mean(self) -> float:
        """Mean backward children per point: each level weighs by its volume,
        delta sum_k Gamma_k (2k - 1) k."""
        lad = self.ladder(0)
        return self.refractory * (lad.level(1) + 2.0 * lad.tail(1, 2) - lad.tail(1, 1))

    def nodes_per_neighborhood(self) -> float:
        """Mean nodes of a drawn neighbourhood, sum_k lambda_k (2k - 1)."""
        lad = self.ladder(0)
        return (lad.level(1) + 2.0 * lad.tail(1, 1) - lad.tail(1, 0)) / lad.total

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Row of M in closed form: M_{i,i+d} = delta sum_{k > |d|} k Gamma_k.

        ``near`` lists the distances d = -D..D whose entry is at least ``tol``
        (at most ``NEAR_MAX`` on each side, since the entries of gamma near 3
        decay too slowly to list down to ``tol``). ``far`` is the exact mass
        beyond D: level k holds 2 (k - 1 - D)^+ of those distances, so with
        d = D + 1 it is 2 delta [tail(d, 2) - d tail(d, 1)], and ``err`` bounds
        its numerical error by the ladder's own bounds.
        """
        lad, dlt = self.ladder(i), self.refractory
        near: dict[NodeId, float] = {i: dlt * (lad.level(1) + lad.tail(1, 1))}
        d = 1
        while d <= NEAR_MAX and (mass := dlt * lad.tail(d, 1)) >= tol:
            near[i - d] = near[i + d] = mass
            d += 1
        # d = D + 1 is now the nearest distance left out
        far = 2.0 * dlt * (lad.tail(d, 2) - d * lad.tail(d, 1))
        err = 2.0 * dlt * (lad.tail_err(d, 2) + d * lad.tail_err(d, 1))
        if not err < tol:
            raise NonSummableError(
                f"offspring row far mass certified only to {err:g}, not below tol = {tol:g}"
            )
        return OffspringRow(near, far, err)


class PowerLadderLattice(DiagonalLattice):
    """The lattice on the diagonal levels and the paper's power ladder,
    Gamma_k = C_g k^{-p} with C_g = ``c_gamma`` = ``lattice_c_gamma(g)`` and
    3 < p <= g (Gamma = 33.76 at g = p = 4, against 3.294 on bar-Gamma_k): a
    third decomposition of the same intensity, dominating the diagonal rungs
    bar-Gamma_k with slack. Its offspring mean is C_g delta f(p), with
    f(p) = sum_k (2k - 1) k^{1-p} = 2 zeta(p-2) - zeta(p-1), finite iff p > 3."""

    def __init__(self, gamma: float, p: float, delta: float):
        if not 3.0 < p <= gamma:
            raise ValueError(f"weight exponent p = {p:g} must satisfy 3 < p <= gamma = {gamma:g}")
        self.c_gamma = lattice_c_gamma(gamma)
        self._power = GammaLadder(power=[(self.c_gamma, p)])
        super().__init__(gamma, delta)

    def _build_ladder(self, i):
        return self._power


# the lattice decompositions ``analyze`` costs
LatticeDecomposition = AtomLattice | DiagonalLattice


def lattice_preset(gamma: float, delta: float) -> AtomLattice:
    return AtomLattice(gamma, delta)
