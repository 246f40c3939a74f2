"""Nonlinear Hawkes processes with analytic rate functions (Taylor family).

intensity_i(x) = psi(sum_j integral h_ij(-s) dx_j(s)) with psi analytic around
0 with nonnegative derivatives. Each order-k summand is a product of k atomic
bin integrals, indexed by an ordered tuple of atoms; redundant tuples are kept
distinct. The rate functions offered are entire, so the decomposition holds on
every configuration.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Mapping, Optional, Sequence

from ..core import EMPTY_ND, Configuration, EmptyND, Neighborhood, NodeId, TaylorND
from ..errors import ExplosionGuardError, NonSummableError
from ..kernels import Kernel
from ..sampling import RandomStream
from ..weights import TaylorWeights, default_atomic_weights
from .atomic import AtomicHawkesModel
from .base import EMPTY_NEIGHBORHOOD, past_drive


class PsiSeries:
    """Analytic rate function given by its derivatives at 0 (all nonnegative)."""

    def __init__(self, kind: str, coeffs: Optional[Sequence[float]] = None):
        if kind not in ("exp", "cosh", "poly"):
            raise ValueError(f"unknown analytic rate kind {kind!r}")
        if kind == "poly":
            if coeffs is None:
                raise ValueError("poly rate needs its derivative list")
            coeffs = tuple(float(c) for c in coeffs)
            if any(c < 0 for c in coeffs):
                raise ValueError("derivatives at 0 must be nonnegative")
        self.kind = kind
        self.coeffs = coeffs

    def derivative(self, k: int) -> float:
        if self.kind == "exp":
            return 1.0
        if self.kind == "cosh":
            return 1.0 if k % 2 == 0 else 0.0
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    def derivative_sup(self) -> float:
        """Largest derivative at 0 over every order."""
        if self.kind == "poly":
            return max(self.coeffs, default=0.0)
        return 1.0

    def max_order(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.kind == "poly" else None

    def __call__(self, u: float) -> float:
        if self.kind == "exp":
            return math.exp(u)
        if self.kind == "cosh":
            return math.cosh(u)
        return sum(c * u**k / math.factorial(k) for k, c in enumerate(self.coeffs))


class AnalyticHawkesModel(AtomicHawkesModel):
    """Taylor-family decomposition of a nonlinear Hawkes process.

    The family is the iterated product of the atomic family: the order-k
    members are ordered tuples (alpha_1, ..., alpha_k) of single-node bins,
    with summand psi^(k)(0)/k! * a_{alpha_1}(x) * ... * a_{alpha_k}(x) where
    a_{(j,n)} integrates the kernel over bin n of node j. Intensities may
    explode, so no rate Gamma_i dominates them; the forward simulator drives
    it with adaptive local bounds.
    """

    def __init__(
        self,
        psi: PsiSeries,
        kernels: Mapping[tuple[NodeId, NodeId], Kernel],
        eps: float,
        nodes: Sequence[NodeId],
        order_ratio: float = 0.5,
        weights: Optional[Mapping[NodeId, TaylorWeights]] = None,
    ):
        super().__init__(nodes, kernels, eps)
        self.psi = psi
        if weights is None:
            weights = {}
            for i in self._nodes:
                atoms = default_atomic_weights(self._incoming[i], self.eps, p_empty=0.0)
                weights[i] = TaylorWeights(order_ratio, atoms)
        self.weights = dict(weights)
        self.require_lossless({i: fam.atoms for i, fam in self.weights.items()})

    # -- structure -------------------------------------------------------------

    def expand(self, i: NodeId, desc) -> Neighborhood:
        if isinstance(desc, EmptyND):
            return EMPTY_NEIGHBORHOOD
        if isinstance(desc, TaylorND):
            return Neighborhood(self.bin_piece(j, n) for j, n in desc.alphas)
        raise KeyError(f"descriptor {desc!r} is not a Taylor tuple")

    # -- decomposition --------------------------------------------------------------

    def intensity(self, i: NodeId, x: Configuration) -> float:
        return self.psi(past_drive(self._incoming[i].items(), x))

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if isinstance(desc, EmptyND):
            return self.psi.derivative(0)
        if not isinstance(desc, TaylorND):
            raise KeyError(f"descriptor {desc!r} is not a Taylor tuple")
        k = desc.order()
        coef = self.psi.derivative(k)
        if k <= 170:
            coef /= math.factorial(k)
        else:
            # k! exceeds the float range: divide as integers, which rounds once
            # and underflows to 0.0 instead of overflowing
            num, den = coef.as_integer_ratio()
            coef = num / (den * math.factorial(k))
        if coef == 0.0:
            return 0.0
        for j, n in desc.alphas:
            coef *= self.atom_value(i, j, n, x)
            if coef == 0.0:
                return 0.0
        return coef

    def pmf(self, i: NodeId, desc) -> float:
        return self.weights[i].pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None):
        return self.weights[i].sample(rng)

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        """The empty set, then every tuple of the atoms live on ``x`` by order.

        Without ``x`` there is nothing to enumerate over: the family has no
        global bounds, so no caller reads it unrestricted.
        """
        if x is None:
            raise NonSummableError("the Taylor family is enumerated only over a configuration's live atoms")
        yield EMPTY_ND
        atoms = self._live_atoms(i, x)
        k = 1
        while atoms:
            for tup in product(atoms, repeat=k):
                yield TaylorND(tup)
            k += 1

    # -- forward simulation --------------------------------------------------------------

    def proposal_classes(self, i: NodeId) -> tuple:
        """The whole family as one class, renewed when any source accepts."""
        return ((None, 1.0, frozenset(self._incoming[i])),)

    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        """Bound every component value at all future shifts.

        With B* the largest atom ratio of ``atom_bound``, an order-k
        component is bounded by psi^(k)(0)/k! * (B*)^k / ((1-kappa) kappa^k).
        The factorial wins for entire rate functions; the orders are tracked
        until no later one can exceed the best so far.
        """
        fam = self.weights[i]
        b_star = self.atom_bound(i, fam.atoms, x, t)
        best = self.psi.derivative(0) / fam.p_empty
        if b_star == 0.0:
            return best
        kappa = fam.order_ratio
        term_base = b_star / kappa
        max_order = self.psi.max_order()
        d_sup = self.psi.derivative_sup()
        term = 1.0
        k = 0
        while True:
            k += 1
            if max_order is not None and k > max_order:
                break
            term *= term_base / k
            cand = self.psi.derivative(k) * term / (1.0 - kappa)
            best = max(best, cand)
            if cand > 1e300:
                raise ExplosionGuardError(
                    f"node {i}: order-k component bounds diverge (atom bound {b_star:g}"
                    f" vs order ratio {kappa:g}); the rate function grows too fast"
                )
            # from here on ``term`` only shrinks, so no later order can beat
            # d_sup * term / (1 - kappa)
            if term_base / (k + 1) < 1.0 and d_sup * term / (1.0 - kappa) <= best:
                break
            if k > 100_000:
                raise ExplosionGuardError("order bound search did not terminate")
        return best
