"""Age-dependent Hawkes processes with a hard refractory period.

intensity_i(x) = psi_i( sum_j integral h_ij(-s) dx_j(s) ) * 1{age_i(x) > delta}

The neighborhood family is the nested windows of ``kalisim.models.nested``
in units of delta: level k is a pair of a node set omega_k and a depth D_k,
v_k = omega_k x [-D_k delta, 0), with omega_1 = {i}, D_1 = 1 and both
growing along the levels. A finite network deepens one delta per level,
D_k = k; the lattice preset chooses its pairs (``kalisim.models.presets``). Lipschitz rate functions give per-level bounds
whose total is finite, which is the regime the perfect simulator needs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Mapping, Optional, Sequence

from .. import series
from ..core import Configuration, NestedND, NodeId, RefractoryGap
from ..errors import NonSummableError
from ..kernels import AffineRate, ExponentialKernel, Kernel, StepKernel
from ..sampling import RandomStream
from .base import OffspringRow, past_drive, require_known_nodes
from .nested import NestedModel

_WALK_CAP = 10_000_000
# 1 - 1/e, since sum_{m<k} e^{-m} = (1 - e^{-k}) / (1 - 1/e)
_ONE_MINUS_INV_E = -math.expm1(-1.0)


def _geometric_tail(a: float, q: float, n: int, r: int) -> float:
    """sum_{k>n} k^r a q^{k-1} for r = 0, 1, 2."""
    if r == 0:
        return a * q**n / (1.0 - q)
    if r == 1:
        return a * q**n * ((n + 1) - n * q) / (1.0 - q) ** 2
    return a * q**n * (n * n / (1.0 - q) + 2 * n / (1.0 - q) ** 2 + (1.0 + q) / (1.0 - q) ** 3)


class GammaLadder:
    """One node's per-level bounds Gamma_k and the level law they induce.

    The rungs are the ``head`` values Gamma_1..Gamma_H, then closed-form tail
    terms, each read at the tail index n = k + s of level k > H, where the
    first tail level takes index ``start`` (H + 1 by default, so s = 0 and
    n = k): each geometric ``(a, r)`` pair adds a r^{n-1}, each ``power``
    ``(c, p)`` pair adds c n^{-p}, and ``lipschitz`` = gamma adds the
    lattice's diagonal Lipschitz envelope
    bar-Gamma_n = (1 - e^{-n}) / ((1 - e^{-1}) (n-1)^gamma)
    + e^{-(n-1)} (1 + H_gamma(n-2)), whose harmonic sum H_gamma is kept
    running as the rungs grow. ``total`` is Gamma = sum_k Gamma_k and
    ``tail(k, r)`` is sum_{l>k} n_l^r Gamma_l for r = 0, 1, 2, all exact:
    r = 1, 2 give offspring means where a level's depth is its index, as on
    a finite network (D_k = k) and on the lattice's diagonal tail (D = n).
    The level weights are lambda(v_k) = Gamma_k / Gamma, so that every
    component is bounded by Gamma.

    Rungs are kept in a list once computed, since ``pmf`` reads one per
    component value. ``sample`` inverts the level CDF by bisection on the
    running sums of the rungs, grown on demand and kept; the list stops
    growing at the first level whose tail is negligible, which takes every
    higher draw. Each level grown gets one ``NestedND``, which every draw of
    that level returns, so a draw below the last running sum is one bisection
    and no allocation.
    """

    def __init__(self, head: Sequence[float] = (),
                 geometric: Sequence[tuple[float, float]] = (),
                 power: Sequence[tuple[float, float]] = (),
                 lipschitz: Optional[float] = None,
                 start: Optional[int] = None):
        self.k_head = len(head)
        # level k > H is read at tail index k + shift
        self.shift = 0 if start is None else start - self.k_head - 1
        self.geometric = [(a, r) for a, r in geometric if a > 0.0]
        for _, r in self.geometric:
            if not 0.0 < r < 1.0:
                raise ValueError("geometric tail ratio must lie in (0, 1)")
        self.power = [(float(c), float(p)) for c, p in power]
        for _, p in self.power:
            if p <= 2.0:
                raise ValueError("power tail needs p > 2 for finite offspring means")
        self.lipschitz = lipschitz
        if lipschitz is not None:
            if not (lipschitz > 3.0 and self.k_head >= 1 and self.k_head + self.shift >= 1):
                raise ValueError("a Lipschitz tail needs gamma > 3, a head holding Gamma_1 and a start of 2 or more")
            self._harmonic = series.harmonic_partial(lipschitz, self.k_head + self.shift - 1)
        self._rungs = list(head)
        self._cum: list[float] = []
        self._descs: list[NestedND] = []
        self._stop_reached = False
        self.total = sum(head) + self.tail(self.k_head)

    def level(self, k: int) -> float:
        rungs = self._rungs
        g = self.lipschitz
        while len(rungs) < k:
            n = len(rungs) + 1 + self.shift
            rung = (sum(a * r ** (n - 1) for a, r in self.geometric)
                    + sum(c * n ** (-p) for c, p in self.power))
            if g is not None:
                rung += (-math.expm1(-n) / (_ONE_MINUS_INV_E * (n - 1) ** g)
                         + math.exp(-(n - 1)) * (1.0 + self._harmonic))
                self._harmonic += (n - 1) ** (-g)
            rungs.append(rung)
        return rungs[k - 1] if k >= 1 else 0.0

    def tail(self, n: int, r: int = 0) -> float:
        """sum_{l>n} n_l^r Gamma_l for r = 0, 1, 2, where n_l is level l's
        index (l on the head, the tail index past it). A shifted head has no
        tail index, so below it only the sum (r = 0) is defined."""
        if n < self.k_head:
            if r and self.shift:
                raise ValueError("a shifted ladder weights only its tail levels")
            head = sum(k**r * self._rungs[k - 1] for k in range(n + 1, self.k_head + 1))
            return head + self.tail(self.k_head, r)
        n += self.shift
        out = sum(_geometric_tail(a, q, n, r) for a, q in self.geometric)
        out += sum(c * series.zeta_tail(p - r, n) for c, p in self.power)
        if self.lipschitz is not None:
            out += self._lipschitz_tail(n, r)
        return out

    def _lipschitz_tail(self, n: int, r: int) -> float:
        """sum_{k>n} k^r bar-Gamma_k for n >= 1. With m = k - 1, the rung's
        first term splits into (m+1)^r m^{-gamma} / (1 - e^{-1}), whose sum over
        m >= n zeta tails give, and -(m+1)^r e^{-m} m^{-gamma} / (e - 1), which
        joins the positive series sum_{m>=n} (m+1)^r e^{-m}
        (1 + H_gamma(m-1) - m^{-gamma} / (e - 1)). That series is summed until
        its remainder, below (1 + zeta(3)) sum_j (1+j)^2 e^{-j} (m+1)^r e^{-m}
        < 12 (m+1)^r e^{-m}, is below rounding."""
        g = self.lipschitz
        out = sum(math.comb(r, i) * series.zeta_tail(g - i, n - 1) for i in range(r + 1)) / _ONE_MINUS_INV_E
        m, h = n, None
        while 12.0 * (m + 1) ** r * math.exp(-m) >= 2.0**-53 * out:
            if h is None:
                h = series.harmonic_partial(g, m - 1)
            out += (m + 1) ** r * math.exp(-m) * (1.0 + h - m ** (-g) / math.expm1(1.0))
            h += m ** (-g)
            m += 1
        return out

    def tail_err(self, n: int, r: int = 0) -> float:
        """Bound on the numerical error of ``tail(n, r)`` for n at or past the
        head: the zeta tails' own bounds, and a relative rounding allowance."""
        tail = self.tail(n, r)
        n += self.shift
        err = sum(c * series.zeta_tail_err(p - r, n) for c, p in self.power)
        if self.lipschitz is not None:
            g = self.lipschitz
            err += sum(math.comb(r, i) * series.zeta_tail_err(g - i, n - 1) for i in range(r + 1)) / _ONE_MINUS_INV_E
        return err + 2.0**-45 * tail

    def pmf(self, desc) -> float:
        if self.total <= 0:
            raise ValueError("total bound must be positive")
        return self.level(desc.k) / self.total if isinstance(desc, NestedND) and desc.k >= 1 else 0.0

    def sample(self, rng: RandomStream) -> NestedND:
        u = rng.uniform() * self.total
        cum = self._cum
        if cum and u < cum[-1]:
            return self._descs[bisect_right(cum, u)]
        if self.total <= 0:
            raise ValueError("total bound must be positive")
        while not (self._stop_reached or (cum and u < cum[-1])):
            k = len(cum) + 1
            if k >= _WALK_CAP:
                raise NonSummableError(f"ladder sampler walk exceeded its cap of {_WALK_CAP} levels")
            cum.append((cum[-1] if cum else 0.0) + self.level(k))
            self._descs.append(NestedND(k))
            self._stop_reached = self.tail(k) < 1e-15 * self.total
        # below the stop level cum[-1] > u, so the cap only binds at the stop level
        return self._descs[min(bisect_right(cum, u), len(cum) - 1)]


class AgeHawkesModel(NestedModel):
    """Nested-family decomposition of the age-dependent Hawkes process on a
    finite network, held as data: ``kernels[(i, j)]`` is the kernel through
    which node j drives node i, ``psi`` the rate of every node and
    ``omega[i]`` node i's nested node sets level by level (default
    omega_1 = {i}, omega_2 = every node). The windows' unit is the
    refractory length delta.

    The network is read only through ``kernel``, ``omega``, ``depth``,
    ``psi`` and ``ladder``; ``LatticeAgeModel`` overrides the windows'
    ``node_set``, ``omega`` and ``depth``, and ``kernel`` and ``ladder``,
    for the integers.
    """

    def __init__(
        self,
        psi: AffineRate,
        kernels: Mapping[tuple[NodeId, NodeId], Kernel],
        refractory: float,
        nodes: Sequence[NodeId],
        omega: Optional[Mapping[NodeId, Sequence[Sequence[NodeId]]]] = None,
    ):
        self.kernels = {(int(i), int(j)): k for (i, j), k in kernels.items()}
        require_known_nodes(self.kernels, nodes, "kernel")
        self._psi = psi
        self._ladders: dict[NodeId, GammaLadder] = {}
        super().__init__(refractory, nodes, omega, self.kernels)

    @property
    def refractory(self) -> float:
        """delta, the refractory length and the windows' unit."""
        return self.unit

    # -- structure ----------------------------------------------------------

    def guard(self):
        return RefractoryGap(self.refractory)

    def kernel(self, i: NodeId, j: NodeId) -> Optional[Kernel]:
        """The kernel through which node j drives node i, or None."""
        return self.kernels.get((i, j))

    def psi(self, i: NodeId) -> AffineRate:
        """The rate function of node i: one for every node."""
        return self._psi

    def ladder(self, i: NodeId) -> GammaLadder:
        lad = self._ladders.get(i)
        if lad is None:
            lad = self._ladders[i] = self._build_ladder(i)
        return lad

    def _build_ladder(self, i: NodeId) -> GammaLadder:
        """bar-Gamma_k up to the first level past the listed node sets and the
        step kernels' supports, then L alpha e^{-beta (k-1) delta} per
        exponential kernel into i."""
        incoming = [ker for (ii, _), ker in self.kernels.items() if ii == i]
        k_head = len(self._levels[i]) + 1
        for ker in incoming:
            if isinstance(ker, StepKernel):
                k_head = max(k_head, math.ceil(ker.support_end / self.refractory) + 1)
        exp_terms = [
            (self.psi(i).lipschitz * ker.alpha, math.exp(-ker.beta * self.refractory))
            for ker in incoming
            if isinstance(ker, ExponentialKernel) and not ker.is_zero()
        ]
        return GammaLadder([self.gamma_bar(i, k) for k in range(1, k_head + 1)], exp_terms)

    # -- intensity and summands ------------------------------------------------

    def _alive(self, i: NodeId, x: Configuration) -> bool:
        """1{age_i(x) > delta}: no own point within the trailing refractory window."""
        return x.count_in(i, self.edge(i, 1), 0.0) == 0

    def _drives(self, i: NodeId, k: int, x: Configuration) -> tuple[float, float]:
        """The drives truncated to v_{k-1} and to v_k (k >= 2), from one walk
        over the nodes of omega_k that hold points of x, in increasing order:
        omega_k and omega_{k-1} list their nodes in that order, so each drive
        adds the same values in the same order as its own walk. A node of
        omega_{k-1} counts in the inner drive from depth D_{k-1} on."""
        lo, lo_prev = self.edge(i, k), self.edge(i, k - 1)
        omega, inner = self.omega(i, k), self.omega(i, k - 1)
        prev = cur = 0.0
        for j in sorted(x.nodes()):
            ker = self.kernel(i, j) if j in omega else None
            if ker is None:
                continue
            pts = x.points_in(j, lo, 0.0)
            split = bisect_left(pts, lo_prev) if j in inner else len(pts)
            for s in pts[:split]:
                cur += ker(-s)
            for s in pts[split:]:
                v = ker(-s)
                cur += v
                prev += v
        return prev, cur

    def intensity(self, i: NodeId, x: Configuration) -> float:
        if not self._alive(i, x):
            return 0.0
        nodes = self.node_set()
        sources = x.nodes() if nodes is None else nodes
        incoming = [(j, ker) for j in sources if (ker := self.kernel(i, j)) is not None]
        return self.psi(i)(past_drive(incoming, x))

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if not isinstance(desc, NestedND):
            raise KeyError(f"descriptor {desc!r} is not a nested level")
        if not self._alive(i, x):
            return 0.0
        psi = self.psi(i)
        if desc.k == 1:
            # within v_1 the indicator forces an empty own-window drive
            return psi.at_zero
        prev, cur = self._drives(i, desc.k, x)
        return psi(cur) - psi(prev)

    def pmf(self, i: NodeId, desc) -> float:
        return self.ladder(i).pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None):
        return self.ladder(i).sample(rng)

    # -- bounds ---------------------------------------------------------------

    def gamma_bar(self, i: NodeId, k: int) -> float:
        """Lipschitz lower envelope for admissible per-level bounds.

        bar-Gamma_1 = psi(0); for k >= 2 it is L times the largest drive that
        v_k adds to v_{k-1} over refractory pasts, whose points on each node
        lie more than delta apart, through kernels that are all nonincreasing.
        One rule covers every node of omega_k: read by v_{k-1} down to depth
        D_prev, it holds at most one point per delta of
        [-D_k delta, -D_prev delta), the m-th latest of age at least m delta,
        and adds sum_{D_prev <= m < D_k} h(m delta); a node entering at level k
        has D_prev = 0. A packed past, one point just past each age m delta on
        every node (on node i from delta on), comes as close as one likes to
        all of these at once, so they sum to the sup of the intensity whatever
        the pairs (omega_k, D_k).
        """
        if k < 1:
            raise ValueError("level index must be >= 1")
        psi = self.psi(i)
        if k == 1:
            return psi.at_zero
        lip, unit = psi.lipschitz, self.refractory
        depth, depth_prev = self.depth(i, k), self.depth(i, k - 1)
        prev_set = set(self.omega(i, k - 1))
        total = 0.0
        for j in self.omega(i, k):
            ker = self.kernel(i, j)
            if ker is None:
                continue
            start = depth_prev if j in prev_set else 0
            total += sum(ker(m * unit) for m in range(start, depth))
        return lip * total

    def global_bound(self, i: NodeId) -> Optional[float]:
        return self.ladder(i).total

    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        # with lambda_k = Gamma_k / Gamma every component is bounded by Gamma,
        # uniformly over the refractory subspace and hence over future shifts
        return self.ladder(i).total

    # -- branching ----------------------------------------------------------------

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """M_ij = Gamma_j delta sum_{k >= k_j} D_k Gamma_k / Gamma_i, over the
        levels k at or past the first level k_j whose node set holds j: each
        level weighs by its volume |omega_k| D_k delta, with D_k = k here."""
        lad = self.ladder(i)
        gamma_total = lad.total
        row: dict[NodeId, float] = {}
        for j in self._nodes:
            entry = next((k for k, members in enumerate(self._levels[i], 1) if j in members), None)
            if entry is None:
                continue
            mean_depth = lad.tail(entry - 1, 1) / gamma_total
            row[j] = self.require_bound(j) * self.refractory * mean_depth
        return OffspringRow(row)
