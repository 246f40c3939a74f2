"""The integer-lattice age model, the paper's infinite-network example.

Nodes are the integers, psi(u) = 1 + u (psi(0) = 1, Lipschitz constant 1),
and interaction kernels h_ij(t) = beta_ij exp(-t/delta) with beta_ii = 1 and
beta_ij = 1 / (2 |j-i|^g) for j != i. ``LatticeAgeModel`` overrides the
network methods of ``AgeHawkesModel`` (of its windows only ``node_set``,
``omega`` and ``depth``) and keeps the rest.

A level is a pair (R, D): the nodes within distance R over [-D delta, 0).
The sup of the intensity over refractory pasts on such a window is
F(R, D) = 1 + sum_{1<=m<D} e^{-m} + (1 - e^{-D}) / (1 - e^{-1}) sum_{1<=d<=R} d^{-g}
(``lattice_envelope``), and the model simulates on its increments, Gamma_k =
bar-Gamma_k = F(R_k, D_k) - F(R_{k-1}, D_{k-1}), so every nesting has the
same Gamma = F(inf, inf) (3.294 at g = 4). The nestings differ in their
offspring mean, sum_k Gamma_k (2 R_k + 1) D_k delta, and the preset takes
the cheapest path of unit steps from (0, 1) to (K-1, K) (``shortest_nesting``,
K = ``NESTING_GRID``), then the diagonal levels (n-1, n), n > K.

Two more decompositions of the same intensity sit on the diagonal levels
(k-1, k): ``DiagonalLattice`` keeps the Lipschitz rungs, and
``PowerLadderLattice`` takes the paper's weight family, the power ladder
C_g k^{-p} with C_g = ``lattice_c_gamma(g)`` and 3 < p <= g (C_g = 31.20
and Gamma = 33.76 at g = p = 4). The preset takes no p; ``analyze
--p-grid`` costs the power ladder at each exponent of its grid, one
``PowerLadderLattice`` each.
"""

from __future__ import annotations

import math
from functools import cache

from .. import series
from ..core import NodeId
from ..errors import NonSummableError
from ..kernels import AffineRate, ExponentialKernel
from .age import AgeHawkesModel, GammaLadder
from .base import OffspringRow
from .nested import NestedModel

# most distances an offspring row lists on each side of its node
NEAR_MAX = 100_000
# the nesting search's grid: radii 0..K-1 and depths 1..K
NESTING_GRID = 8


def lattice_gamma_bar(gamma: float, k: int) -> float:
    """Closed form of the Lipschitz envelope bar-Gamma_k: the preset's rungs.

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


def lattice_envelope(gamma: float, radius: int, depth: int) -> float:
    """F(R, D), the sup of the intensity over refractory pasts of the window
    {|d| <= R} x [-D delta, 0): psi(0) = 1, the node's own points past ages
    delta, ..., (D-1) delta, and on each side, at every distance d <= R, points
    past ages 0, delta, ..., (D-1) delta through kernels d^{-gamma} e^{-t/delta} / 2.
    It does not depend on delta."""
    return (1.0 + sum(math.exp(-m) for m in range(1, depth))
            + math.expm1(-depth) / math.expm1(-1.0) * sum(d ** -gamma for d in range(1, radius + 1)))


def shortest_nesting(gamma: float) -> tuple[tuple[int, int], ...]:
    """The levels (R, D) of the cheapest nesting from (0, 1) to the diagonal
    level (K - 1, K), K = ``NESTING_GRID``, by dynamic programming over unit
    steps.

    A level reached from (R', D') costs its rung F(R, D) - F(R', D') times its
    volume (2 R + 1) D, in units of delta; merging two unit steps never lowers
    the total, so unit steps suffice. At gamma = 4 the path deepens before it
    widens: (0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (2, 4), ..., (7, 8).
    """
    size = NESTING_GRID
    env = {(r, d): lattice_envelope(gamma, r, d) for r in range(size) for d in range(1, size + 1)}
    best: dict[tuple[int, int], tuple[float, tuple[int, int]]] = {(0, 1): (0.0, (0, 1))}
    for r in range(size):
        for d in range(1, size + 1):
            for prev in ((r, d - 1), (r - 1, d)):
                if prev in best:
                    cost = best[prev][0] + (env[r, d] - env[prev]) * (2 * r + 1) * d
                    if (r, d) not in best or cost < best[r, d][0]:
                        best[r, d] = (cost, prev)
    path = [(size - 1, size)]
    while path[-1] != (0, 1):
        path.append(best[path[-1]][1])
    return tuple(reversed(path))


@cache
def lattice_c_gamma(gamma: float) -> float:
    """Smallest constant with C k^{-gamma} >= bar-Gamma_k for every diagonal
    level (k-1, k): the constant of the paper's power ladder, which
    ``PowerLadderLattice`` keeps as ``c_gamma``. It need not dominate the
    rungs of another nesting.

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


class LatticeAgeModel(AgeHawkesModel):
    """Translation-invariant age model on the integers (see module docstring).

    ``head`` lists the levels (R, D) that ``nesting`` chooses, ending on the
    diagonal at (K-1, K); level k > H = len(head) is the diagonal level
    (n-1, n) with n = k - H + K. The ladder's head rungs are ``gamma_bar`` of
    the head levels, and its tail the diagonal Lipschitz envelope from n = K + 1.
    """

    def __init__(self, gamma: float, delta: float):
        if gamma <= 3.0:
            raise ValueError("lattice preset needs gamma > 3")
        self.gamma_exponent = float(gamma)
        self._psi = AffineRate(1.0, 1.0)
        self._by_distance: dict[int, ExponentialKernel] = {}
        self.head = self.nesting()
        self._diagonal_from = self.head[-1][1]  # K
        NestedModel.__init__(self, delta)  # windows on the integers: no finite node set
        self._ladder = self._build_ladder(0)

    def nesting(self) -> tuple[tuple[int, int], ...]:
        """The head levels (R, D), from (0, 1) to a diagonal level (K-1, K)."""
        return shortest_nesting(self.gamma_exponent)

    # -- the network: every node alike, kernels by distance ----------------------

    def node_set(self):
        return None

    def kernel(self, i: NodeId, j: NodeId) -> ExponentialKernel:
        d = abs(j - i)
        ker = self._by_distance.get(d)
        if ker is None:
            beta = 1.0 if d == 0 else 0.5 / d**self.gamma_exponent
            ker = self._by_distance[d] = ExponentialKernel(alpha=beta, beta=1.0 / self.refractory)
        return ker

    def level(self, k: int) -> tuple[int, int]:
        """Level k's pair (R, D)."""
        if k <= len(self.head):
            return self.head[k - 1]
        n = k - len(self.head) + self._diagonal_from
        return n - 1, n

    def omega(self, i: NodeId, k: int) -> tuple[NodeId, ...]:
        r = self.level(k)[0]
        return tuple(range(i - r, i + r + 1))

    def depth(self, i: NodeId, k: int) -> int:
        return self.level(k)[1]

    def ladder(self, i: NodeId) -> GammaLadder:
        return self._ladder

    def _build_ladder(self, i: NodeId) -> GammaLadder:
        """Every node's ladder (see the class docstring); a subclass may swap it."""
        rungs = [self.gamma_bar(0, k) for k in range(1, len(self.head) + 1)]
        return GammaLadder(rungs, lipschitz=self.gamma_exponent, start=self._diagonal_from + 1)

    # -- translation-invariant branching reduction ----------------------------

    def _diagonal_tail(self, n: int, r: int) -> float:
        """sum_{m>n} m^r bar-Gamma_m over the diagonal levels (m-1, m), n >= K."""
        return self.ladder(0).tail(n - self._diagonal_from + len(self.head), r)

    def _head_sum(self, weight) -> float:
        """sum over the head levels of weight(R, D) Gamma_k."""
        lad = self.ladder(0)
        return sum(weight(r, d) * lad.level(k) for k, (r, d) in enumerate(self.head, 1))

    def invariant_offspring_mean(self) -> float:
        """Mean backward children per point: each level weighs by its volume,
        delta sum_k Gamma_k (2 R_k + 1) D_k; on the diagonal levels (2m - 1) m."""
        K = self._diagonal_from
        head = self._head_sum(lambda r, d: (2 * r + 1) * d)
        return self.refractory * (head + 2.0 * self._diagonal_tail(K, 2) - self._diagonal_tail(K, 1))

    def nodes_per_neighborhood(self) -> float:
        """Mean nodes of a drawn neighbourhood, sum_k lambda_k (2 R_k + 1)."""
        K = self._diagonal_from
        head = self._head_sum(lambda r, d: 2 * r + 1)
        return (head + 2.0 * self._diagonal_tail(K, 1) - self._diagonal_tail(K, 0)) / self.ladder(0).total

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Row of M in closed form: M_{i,i+d} = delta sum_{k: R_k >= |d|} D_k Gamma_k,
        the head levels summed and the diagonal levels m > max(|d|, K) by tail.

        ``near`` lists the distances d = -D..D whose entry is at least ``tol``
        (at most ``NEAR_MAX`` on each side, since the entries of gamma near 3
        decay too slowly to list down to ``tol``). ``far`` is the exact
        mass beyond D: a level of radius R holds 2 (R - D)^+ of those
        distances, so with d = D + 1 and m = max(d, K) it is
        2 delta [sum_head D_k Gamma_k (R_k - D)^+ + tail(m, 2) - d tail(m, 1)],
        and ``err`` bounds its numerical error by the ladder's own bounds.
        """
        lad, dlt, K = self.ladder(i), self.refractory, self._diagonal_from
        # the head reaches no distance past K - 1
        head = [self._head_sum(lambda r, depth: depth if r >= d else 0) for d in range(K)]

        def entry(d: int) -> float:
            if d < K:
                return dlt * (head[d] + self._diagonal_tail(K, 1))
            return dlt * self._diagonal_tail(d, 1)

        near: dict[NodeId, float] = {i: entry(0)}
        d = 1
        while d <= NEAR_MAX and (mass := entry(d)) >= tol:
            near[i - d] = near[i + d] = mass
            d += 1
        # d = D + 1 is now the nearest distance left out
        far_head = self._head_sum(lambda r, depth: depth * max(r - d + 1, 0))
        m = max(d, K)
        far = 2.0 * dlt * (far_head + self._diagonal_tail(m, 2) - d * self._diagonal_tail(m, 1))
        n = m - K + len(self.head)
        err = 2.0 * dlt * (lad.tail_err(n, 2) + d * lad.tail_err(n, 1))
        if not err < tol:
            raise NonSummableError(
                f"offspring row far mass certified only to {err:g}, not below tol = {tol:g}"
            )
        return OffspringRow(near, far, err)


class DiagonalLattice(LatticeAgeModel):
    """The lattice preset on the diagonal nesting, level k the nodes within
    distance k - 1 over [-k delta, 0): the same Gamma on costlier levels
    (E(W) = 1.142 at g = 4, delta = 0.005, against 1.099 on the preset's)."""

    def nesting(self):
        return ((0, 1),)  # one head level, then the diagonal tail


class PowerLadderLattice(DiagonalLattice):
    """The lattice on the diagonal nesting and the paper's power ladder,
    Gamma_k = C_g k^{-p} with C_g = ``c_gamma`` = ``lattice_c_gamma(g)`` and
    3 < p <= g (Gamma = 33.76 at g = p = 4, against 3.294 on bar-Gamma_k): a
    second decomposition of the same intensity, dominating the diagonal rungs
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


def lattice_preset(gamma: float, delta: float) -> LatticeAgeModel:
    return LatticeAgeModel(gamma, delta)
