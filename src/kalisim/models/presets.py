"""Named model presets; chiefly the integer-lattice age model.

The lattice preset is the fully worked infinite-network example: nodes are
the integers, psi(u) = 1 + u (psi(0) = 1, Lipschitz constant 1), interaction
kernels h_ij(t) = beta_ij exp(-t/delta) with beta_ii = 1 and
beta_ij = 1 / (2 |j-i|^g) for j != i, nested node sets growing symmetrically,
and per-level bounds Gamma_k = C_g k^{-p} for a weight exponent p in (3, g].
"""

from __future__ import annotations

import math

from .. import series
from ..core import NodeId
from ..errors import NonSummableError
from ..kernels import AffineRate, ExponentialKernel
from .age import AgeHawkesModel, PowerGammaLadder
from .base import OffspringRow

# most distances an offspring row lists on each side of its node
NEAR_MAX = 100_000


def lattice_gamma_bar(gamma: float, k: int) -> float:
    """Closed form of the Lipschitz envelope bar-Gamma_k on the lattice.

    bar-Gamma_1 = 1 and, for k >= 2,
    bar-Gamma_k = 2/(k-1)^gamma + e^{-(k-1)} (1 + sum_{m=1}^{k-2} m^{-gamma}).
    """
    if k < 1:
        raise ValueError("level index must be >= 1")
    if k == 1:
        return 1.0
    return 2.0 / (k - 1) ** gamma + math.exp(-(k - 1)) * (
        1.0 + series.harmonic_partial(gamma, k - 2)
    )

def lattice_c_gamma(gamma: float) -> float:
    """Smallest constant with C k^{-gamma} >= bar-Gamma_k for every level.

    k^gamma bar-Gamma_k = 2 (k/(k-1))^gamma + k^gamma e^{-(k-1)} (1 + ...);
    both pieces are decreasing once k exceeds max(gamma, a few), and their
    value there is far below the k=2 term 2^gamma (2 + 1/e), so the supremum
    is attained on a short explicit prefix.
    """
    if gamma <= 3.0:
        raise ValueError("lattice preset needs gamma > 3")
    k_star = max(50, math.ceil(3.0 * gamma))
    return max(k**gamma * lattice_gamma_bar(gamma, k) for k in range(1, k_star + 1))


class LatticeAgeModel(AgeHawkesModel):
    """Translation-invariant age model on the integers (see module docstring)."""

    def __init__(self, gamma: float, p: float, delta: float):
        if gamma <= 3.0:
            raise ValueError("lattice preset needs gamma > 3")
        if not 3.0 < p <= gamma:
            raise ValueError("weight exponent must satisfy 3 < p <= gamma")
        self.gamma_exponent = float(gamma)
        self.p = float(p)
        self.c_gamma = lattice_c_gamma(gamma)
        ladder = PowerGammaLadder(self.c_gamma, p)
        rate = AffineRate(1.0, 1.0)
        inv_delta = 1.0 / float(delta)

        def kernel(i: NodeId, j: NodeId) -> ExponentialKernel:
            beta = 1.0 if j == i else 0.5 / abs(j - i) ** gamma
            return ExponentialKernel(alpha=beta, beta=inv_delta)

        def omega(i: NodeId, k: int):
            if k == 1:
                return (i,)
            return tuple(range(i - k + 1, i + k))

        super().__init__(
            kernel=kernel,
            omega=omega,
            ladder=lambda i: ladder,
            psi=lambda i: rate,
            refractory=float(delta),
            nodes=None,
        )

    # -- translation-invariant branching reductions ---------------------------

    def translation_invariant(self) -> bool:
        return True

    def invariant_offspring_mean(self) -> float:
        """Mean backward children per point: C_gamma * delta * f(p)."""
        return self.c_gamma * self.refractory * series.offspring_f(self.p)

    def entry_level(self, i: NodeId, j: NodeId) -> int:
        return abs(j - i) + 1

    def component_sup(self, i: NodeId, desc):
        # node 0 stands for every node, so the cache holds one entry per
        # level instead of one per node visited
        return super().component_sup(0, desc)

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Row of M in closed form: M_{i,i+d} = delta C zeta_tail(p-1, |d|).

        ``near`` lists the distances d = -D..D whose entry is at least ``tol``
        (at most ``NEAR_MAX`` on each side, since the entries of p near 3
        decay too slowly to list down to ``tol``). ``far`` is the exact
        mass beyond D,
        sum_{|d|>D} M_{i,i+d} = 2 delta C [zeta_tail(p-2, D+1) - (D+1) zeta_tail(p-1, D+1)],
        and ``err`` bounds its numerical error by the zeta tails' own bounds.
        """
        lad = self.ladder(i)
        dlt = self.refractory
        near: dict[NodeId, float] = {i: dlt * lad.weighted_tail(0)}
        d = 1
        while d <= NEAR_MAX and (m := dlt * lad.weighted_tail(d)) >= tol:
            near[i - d] = near[i + d] = m
            d += 1
        # d = D + 1 is now the nearest distance left out
        far = 2.0 * dlt * (lad.square_weighted_tail(d) - d * lad.weighted_tail(d))
        err = 2.0 * dlt * lad.c * (
            series.zeta_tail_err(self.p - 2.0, d) + d * series.zeta_tail_err(self.p - 1.0, d)
        )
        if not err < tol:
            raise NonSummableError(
                f"offspring row far mass certified only to {err:g}, not below tol = {tol:g}"
            )
        return OffspringRow(near, far, err)

    def offspring_total(self, i: NodeId, tol: float = 1e-8, max_terms: int = 2_000) -> tuple[float, float]:
        """Row total sum(near) + far of ``offspring_row``, with ``err`` as the tail.

        Equals ``invariant_offspring_mean``; the generic walk would expand
        ``max_terms`` nested levels of O(k) nodes each and still stop short.
        """
        row = self.offspring_row(i, tol)
        return sum(row.near.values()) + row.far, row.err

    def offspring_tail(self, i: NodeId, n: int) -> float:
        lad = self.ladder(i)
        return self.refractory * (2.0 * lad.square_weighted_tail(n) - lad.weighted_tail(n))


def lattice_preset(gamma: float, p: float, delta: float) -> LatticeAgeModel:
    return LatticeAgeModel(gamma, p, delta)
