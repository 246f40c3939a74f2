"""The integer-lattice age model, the paper's infinite-network example.

Nodes are the integers, psi(u) = 1 + u (psi(0) = 1, Lipschitz constant 1),
interaction kernels h_ij(t) = beta_ij exp(-t/delta) with beta_ii = 1 and
beta_ij = 1 / (2 |j-i|^g) for j != i, and nested node sets
omega_k = {i-k+1, ..., i+k-1} growing symmetrically. ``LatticeAgeModel``
overrides the network methods of ``AgeHawkesModel`` and keeps the rest.

The model simulates on its refractory Lipschitz envelope, Gamma_k =
bar-Gamma_k at every level (Gamma = 3.294 at g = 4). The paper's weight
family, the power ladder C_g k^{-p} with C_g = ``lattice_c_gamma(g)`` (C_g =
31.20 and Gamma = 33.76 at g = p = 4), is another decomposition of the same
intensity, and only the cost curve
(:func:`kalisim.analysis.weight_cost_curve`) reads its exponent p. The
preset still checks ``p`` in (3, g], because configs carry it.
"""

from __future__ import annotations

import math

from .. import series
from ..core import NodeId
from ..errors import NonSummableError
from ..kernels import AffineRate, ExponentialKernel
from .age import AgeHawkesModel, GammaLadder
from .base import OffspringRow

# most distances an offspring row lists on each side of its node
NEAR_MAX = 100_000


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


def lattice_c_gamma(gamma: float) -> float:
    """Smallest constant with C k^{-gamma} >= bar-Gamma_k for every level, on
    the envelope the preset simulates on: the constant of the paper's power
    ladder, which only the cost curve reads.

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
    """Translation-invariant age model on the integers (see module docstring)."""

    def __init__(self, gamma: float, p: float, delta: float):
        if gamma <= 3.0:
            raise ValueError("lattice preset needs gamma > 3")
        if not 3.0 < p <= gamma:
            raise ValueError("weight exponent must satisfy 3 < p <= gamma")
        self.gamma_exponent = float(gamma)
        self._ladder = GammaLadder([1.0], lipschitz=self.gamma_exponent)
        self._rate = AffineRate(1.0, 1.0)
        self._by_distance: dict[int, ExponentialKernel] = {}
        self._set_refractory(float(delta))

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

    def omega(self, i: NodeId, k: int) -> tuple[NodeId, ...]:
        return (i,) if k == 1 else tuple(range(i - k + 1, i + k))

    def psi(self, i: NodeId) -> AffineRate:
        return self._rate

    def ladder(self, i: NodeId) -> GammaLadder:
        return self._ladder

    # -- translation-invariant branching reduction ----------------------------

    def invariant_offspring_mean(self) -> float:
        """Mean backward children per point: 2k - 1 child nodes at level k, each
        at mean delta k Gamma_k, so delta (2 tail(0, 2) - tail(0, 1))."""
        return self.refractory * (2.0 * self.ladder(0).tail(0, 2) - self.ladder(0).tail(0, 1))

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Row of M in closed form: M_{i,i+d} = delta sum_{k>|d|} k Gamma_k.

        ``near`` lists the distances d = -D..D whose entry is at least ``tol``
        (at most ``NEAR_MAX`` on each side, since the entries of gamma near 3
        decay too slowly to list down to ``tol``). ``far`` is the exact
        mass beyond D: with d = D + 1,
        sum_{|d'|>D} M_{i,i+d'} = 2 delta [tail(d, 2) - d tail(d, 1)],
        and ``err`` bounds its numerical error by the ladder's own bounds.
        """
        lad = self.ladder(i)
        dlt = self.refractory
        near: dict[NodeId, float] = {i: dlt * lad.tail(0, 1)}
        d = 1
        while d <= NEAR_MAX and (m := dlt * lad.tail(d, 1)) >= tol:
            near[i - d] = near[i + d] = m
            d += 1
        # d = D + 1 is now the nearest distance left out
        far = 2.0 * dlt * (lad.tail(d, 2) - d * lad.tail(d, 1))
        err = 2.0 * dlt * (lad.tail_err(d, 2) + d * lad.tail_err(d, 1))
        if not err < tol:
            raise NonSummableError(
                f"offspring row far mass certified only to {err:g}, not below tol = {tol:g}"
            )
        return OffspringRow(near, far, err)


def lattice_preset(gamma: float, p: float, delta: float) -> LatticeAgeModel:
    return LatticeAgeModel(gamma, p, delta)
