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

from ..core import EMPTY_ND, Configuration, EmptyND, Neighborhood, NodeId, NoGuard, TaylorND
from ..errors import ExplosionGuardError
from ..kernels import Kernel
from ..sampling import RandomStream
from ..weights import TaylorWeights, default_atomic_weights
from .base import KalikowModel, atom_future_bound, require_window_covers, require_window_for_supports


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


class AnalyticHawkesModel(KalikowModel):
    """Taylor-family decomposition of a nonlinear Hawkes process.

    The family is the iterated product of the atomic family: the order-k
    members are ordered tuples (alpha_1, ..., alpha_k) of single-node bins,
    with summand psi^(k)(0)/k! * a_{alpha_1}(x) * ... * a_{alpha_k}(x) where
    a_{(j,n)} integrates the kernel over bin n of node j. Intensities may
    explode, so there are no global bounds; the forward simulator drives it
    with adaptive local bounds.
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
        if eps <= 0:
            raise ValueError("bin width eps must be positive")
        self.psi = psi
        self.eps = float(eps)
        self._nodes = tuple(sorted(int(n) for n in nodes))
        self.kernels = {(int(i), int(j)): k for (i, j), k in kernels.items()}
        self._incoming = {
            i: {j: self.kernels.get((i, j)) for j in self._nodes if (i, j) in self.kernels}
            for i in self._nodes
        }
        if weights is None:
            weights = {}
            for i in self._nodes:
                atoms = default_atomic_weights(self._incoming[i], self.eps, p_empty=0.0)
                weights[i] = TaylorWeights(order_ratio, atoms)
        self.weights = dict(weights)
        self._guard = NoGuard()

    # -- structure -------------------------------------------------------------

    def node_set(self):
        return self._nodes

    def guard(self):
        return self._guard

    def _drive(self, i: NodeId, x: Configuration) -> float:
        total = 0.0
        for j, ker in self._incoming[i].items():
            for s in x.points(j):
                if s < 0.0:
                    total += ker(-s)
        return total

    def expand(self, i: NodeId, desc) -> Neighborhood:
        if isinstance(desc, EmptyND):
            return Neighborhood.empty()
        if isinstance(desc, TaylorND):
            return Neighborhood(
                (j, -n * self.eps, -(n - 1) * self.eps) for j, n in desc.alphas
            )
        raise KeyError(f"descriptor {desc!r} is not a Taylor tuple")

    def atom_value(self, i: NodeId, j: NodeId, n: int, x: Configuration) -> float:
        """a_{(j,n)}(x): kernel integral over bin n of node j."""
        ker = self._incoming[i].get(j)
        if ker is None:
            return 0.0
        a, b = -n * self.eps, -(n - 1) * self.eps
        return sum(ker(-s) for s in x.points_in(j, a, b))

    # -- decomposition --------------------------------------------------------------

    def intensity(self, i: NodeId, x: Configuration) -> float:
        require_window_for_supports(x, [k.support_end for k in self._incoming[i].values()])
        return self.psi(self._drive(i, x))

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if isinstance(desc, EmptyND):
            return self.psi.derivative(0)
        if not isinstance(desc, TaylorND):
            raise KeyError(f"descriptor {desc!r} is not a Taylor tuple")
        require_window_covers(x, self.expand(i, desc))
        k = desc.order()
        coef = self.psi.derivative(k) / math.factorial(k)
        if coef == 0.0:
            return 0.0
        for j, n in desc.alphas:
            coef *= self.atom_value(i, j, n, x)
            if coef == 0.0:
                return 0.0
        return coef

    def pmf(self, i: NodeId, desc) -> float:
        return self.weights[i].pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream):
        return self.weights[i].sample(rng)

    def _live_atoms(self, i: NodeId, x: Configuration) -> list[tuple[NodeId, int]]:
        """Atoms whose bin holds a point and whose kernel has not yet vanished."""
        out = []
        for j, ker in self._incoming[i].items():
            if ker.is_zero():
                continue
            bins = sorted({int(-s / self.eps) + 1 for s in x.points(j) if s < 0.0})
            out.extend((j, n) for n in bins if (n - 1) * self.eps < ker.support_end)
        return sorted(out, key=lambda a: (a[1], a[0]))

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        yield EMPTY_ND
        if x is not None:
            atoms = self._live_atoms(i, x)
            k = 1
            while True:
                if not atoms:
                    return
                for tup in product(atoms, repeat=k):
                    yield TaylorND(tup)
                k += 1
        else:
            fam = self.weights[i].atoms
            depth = 1
            while True:
                atoms = [
                    (j, n)
                    for n in range(1, depth + 1)
                    for j in fam.nodes
                    if fam.atom_pmf(j, n) > 0.0
                ]
                if not atoms:
                    return
                for k in range(1, depth + 1):
                    for tup in product(atoms, repeat=k):
                        if k == depth or max(n for _, n in tup) == depth:
                            yield TaylorND(tup)
                depth += 1

    # -- forward simulation --------------------------------------------------------------

    def bound_sources(self, i: NodeId) -> frozenset[NodeId]:
        return frozenset(self._incoming[i])

    def local_bound(
        self, i: NodeId, x: Configuration, t: float = 0.0, source: Optional[NodeId] = None
    ) -> float:
        """Bound every component value at all future shifts.

        With B* the largest atom ratio of ``atom_future_bound``, an order-k
        component is bounded by psi^(k)(0)/k! * (B*)^k / ((1-kappa) kappa^k).
        The factorial wins for entire rate functions; the orders are tracked
        until no later one can exceed the best so far.
        With ``source=j``, B* is taken over j's atoms only; the bound is
        nondecreasing in B*, so the largest of these terms is the bound.
        """
        fam = self.weights[i]
        b_star = atom_future_bound(i, self._incoming[i], fam.atoms, x, t, self.eps, source)
        kappa = fam.order_ratio
        best = self.psi.derivative(0) / (1.0 - kappa)
        if b_star == 0.0:
            return best
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
