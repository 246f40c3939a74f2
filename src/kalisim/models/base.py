"""Model interface: the contract every decomposable intensity family satisfies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..core import (
    Configuration,
    DecompositionTable,
    Neighborhood,
    NodeId,
    SubspaceGuard,
    TableRow,
    neighborhood_measure,
)
from ..errors import CoverageError, ExplosionGuardError, NonSummableError
from ..kernels import Kernel
from ..sampling import RandomStream
from ..weights import AtomicWeights


@dataclass(frozen=True)
class OffspringRow:
    """Row i of the mean offspring matrix M_ij, split into listed and far mass.

    ``near`` maps child nodes to their entries M_ij; ``far`` is the exact total
    of every entry not listed in ``near``; ``err`` is a rigorous bound on the
    numerical error of ``far``. Finite families list the whole row, so their
    ``far`` and ``err`` are 0.
    """

    near: dict[NodeId, float]
    far: float = 0.0
    err: float = 0.0


class KalikowModel(ABC):
    """A model family exposing its intensity decomposition.

    The decomposition writes the generic intensity of node ``i`` as
    ``sum_v lambda_i(v) * phi_v`` over a countable family of finite past
    neighborhoods, with ``phi_v(x) = delta(i, v, x) / pmf(i, v)`` (0/0 = 0)
    cylindrical on ``v``. Models in the bounded regime additionally expose
    per-neighborhood bounds whose total dominates the intensity; those are the
    models the perfect simulator accepts.
    """

    # -- structure -----------------------------------------------------------

    @abstractmethod
    def node_set(self) -> Optional[tuple[NodeId, ...]]:
        """Explicit nodes for finite models, None for lattice models."""

    @abstractmethod
    def guard(self) -> SubspaceGuard:
        """Subspace the decomposition is valid on."""

    # -- decomposition -------------------------------------------------------

    @abstractmethod
    def intensity(self, i: NodeId, x: Configuration) -> float:
        """Exact generic intensity phi_i(x) from the model's closed form."""

    @abstractmethod
    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        """Nonnegative summand delta_v(x), cylindrical on the expanded neighborhood."""

    @abstractmethod
    def pmf(self, i: NodeId, desc) -> float:
        """Weight lambda_i(v) of a descriptor."""

    @abstractmethod
    def expand(self, i: NodeId, desc) -> Neighborhood:
        """Concrete neighborhood a descriptor denotes for node ``i``."""

    @abstractmethod
    def sample_neighborhood(self, i: NodeId, rng: RandomStream):
        """Draw a descriptor distributed per lambda_i."""

    @abstractmethod
    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None) -> Iterator:
        """Canonical enumeration of the family (restricted to descriptors that can
        be nonzero on ``x`` when a configuration is given)."""

    def component_value(self, i: NodeId, desc, x: Configuration) -> float:
        """phi_v(x) = delta / lambda with the 0/0 = 0 convention."""
        lam = self.pmf(i, desc)
        if lam == 0.0:
            return 0.0
        return self.delta(i, desc, x) / lam

    # -- bounded regime --------------------------------------------------------

    def global_bound(self, i: NodeId) -> Optional[float]:
        """Deterministic bound dominating phi_i and every phi_v, or None."""
        return None

    def descriptor_bound(self, i: NodeId, desc) -> Optional[float]:
        """Per-neighborhood bound Gamma_v >= sup_x delta_v(x), or None."""
        return None

    def component_sup(self, i: NodeId, desc) -> Optional[float]:
        """Bound on sup_x phi_v(x) over the guard's subspace, or None.

        The perfect simulator rejects a point whose mark is at least this
        bound over Gamma without realizing its neighborhood, so the bound
        must hold at every configuration the simulator can meet;
        ``forward_accept`` raises ``NonMonotoneModelError`` on a component
        value above it. None declares no bound, and every point is expanded.
        """
        return None

    def bound_tail(self, i: NodeId, n: int) -> Optional[float]:
        """sum of Gamma_v beyond the first n enumerated descriptors, or None."""
        return None

    def weight_tail(self, i: NodeId, n: int) -> float:
        """Weight mass beyond the first n enumerated descriptors (exact: the
        weights are a probability, so the tail is 1 minus the listed mass)."""
        acc = 0.0
        for count, desc in enumerate(self.enumerate_descriptors(i)):
            if count >= n:
                break
            acc += self.pmf(i, desc)
        return max(0.0, 1.0 - acc)

    def decomposition_table(self, i: NodeId, rows: int) -> DecompositionTable:
        """Finite table view of the first ``rows`` descriptors plus tail masses."""
        listed = []
        for count, desc in enumerate(self.enumerate_descriptors(i)):
            if count >= rows:
                break
            listed.append(TableRow(desc, self.pmf(i, desc), self.descriptor_bound(i, desc)))
        n = len(listed)
        bt = self.bound_tail(i, n)
        total = self.global_bound(i)
        return DecompositionTable(
            node=i,
            rows=tuple(listed),
            weight_tail=self.weight_tail(i, n),
            bound_tail=bt,
            total_bound=total,
        )

    # -- forward simulation -------------------------------------------------------

    @abstractmethod
    def local_bound(
        self, i: NodeId, x: Configuration, t: float = 0.0, source: Optional[NodeId] = None
    ) -> float:
        """Finite bound dominating every component value of node ``i`` at the
        configuration shifted to ``t``, valid until the next accepted point.

        ``x`` holds absolute times; its points at or before ``t`` are the past
        (a point exactly at ``t`` counts, at age zero). The bound must hold at
        every later shift of that same past, since it is renewed only when a
        point is accepted.

        ``source=j``, for a node j of ``bound_sources(i)``, asks for the term
        of source j: the bound computed as if j's points were the whole past.
        The largest term over the sources equals the bound, so a term stays
        valid until the next point accepted on j. A model whose
        ``bound_sources`` is None answers with its whole bound, which
        dominates every term.
        """

    def bound_sources(self, i: NodeId) -> Optional[frozenset[NodeId]]:
        """The nodes whose pasts node ``i``'s ``local_bound`` splits over, or None.

        None (the default) declares one whole-node bound, renewed after every
        accepted point; a set declares one term per source, of which only the
        accepted node's is renewed.
        """
        return None

    # -- branching analysis ----------------------------------------------------------

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        """Mean offspring counts per child type: M_ij = sum_v lambda_i(v) Gamma^j mu(p_j(v)).

        ``near`` lists the entries (every node a finite family touches; the
        entries of at least ``tol`` for infinite families), ``far`` is the
        exact mass of the unlisted entries and ``err`` < ``tol`` bounds the
        numerical error of ``far``.
        """
        raise NotImplementedError

    def offspring_tail(self, i: NodeId, n: int) -> float:
        """Rigorous bound on sum_v lambda(v) P(v) beyond the first n descriptors."""
        raise NotImplementedError

    def offspring_total(self, i: NodeId, tol: float = 1e-8, max_terms: int = 2_000) -> tuple[float, float]:
        """sum_v lambda_i(v) P(v): the mean number of backward children of type-i points.

        Generic route: enumerate descriptors, expand each to its neighborhood
        and integrate the product measure directly; stop once the model's
        closed-form tail bound drops below ``tol``. This is deliberately a
        different code path from ``offspring_row``. Heavy-tailed lazy families
        (power-law level weights) stop at ``max_terms`` instead and report the
        remaining tail bound alongside the partial sum.
        """
        gammas = _GammaLookup(self)
        total = 0.0
        count = 0
        for desc in self.enumerate_descriptors(i):
            if self.offspring_tail(i, count) < tol or count >= max_terms:
                break
            lam = self.pmf(i, desc)
            if lam > 0.0:
                total += lam * neighborhood_measure(self.expand(i, desc), gammas)
            count += 1
        return total, self.offspring_tail(i, count)

    # -- helpers shared by concrete families -------------------------------------------

    def _require_bound(self, i: NodeId) -> float:
        g = self.global_bound(i)
        if g is None:
            raise NonSummableError(
                f"{type(self).__name__} exposes no global bound for node {i}; "
                "this operation needs the bounded decomposition regime"
            )
        return g


class _GammaLookup:
    """Mapping view of per-node global bounds, erroring on missing ones."""

    def __init__(self, model: KalikowModel):
        self._model = model

    def __contains__(self, j) -> bool:
        return self._model.global_bound(j) is not None

    def __getitem__(self, j) -> float:
        g = self._model.global_bound(j)
        if g is None:
            raise KeyError(j)
        return g


def require_window_covers(x: Configuration, v: Neighborhood) -> None:
    if not x.covers(v):
        raise CoverageError(f"configuration window {x.window} does not cover {v!r}")


def require_window_for_supports(x: Configuration, supports: list[float]) -> None:
    """Window must reach back to every kernel's support (or be complete)."""
    if x.window is None:
        return
    lo, hi = x.window
    if hi < 0.0:
        raise CoverageError(f"window {x.window} does not reach time 0")
    need = max(supports, default=0.0)
    if need > 0.0 and lo > -need:
        raise CoverageError(
            f"window {x.window} is insufficient: kernels depend on the past back to -{need:g}"
        )


def nested_levels(
    i: NodeId,
    given: Optional[Sequence[Sequence[NodeId]]],
    nodes: tuple[NodeId, ...],
    sources: Iterable[NodeId],
) -> list[tuple[NodeId, ...]]:
    """Node sets omega_1, omega_2, ... of node ``i``'s nested family, checked.

    ``given`` lists them level by level; the default is omega_1 = {i} and
    omega_2 = ``nodes``. The summand of level k is the rate on omega_k minus
    the rate on omega_{k-1}, so omega_1 must be {i}, every level must contain
    the one before (or a summand goes negative) and the last level must hold
    every node in ``sources`` (or the summands miss part of the intensity).
    """
    levels = [(i,), nodes] if given is None else [tuple(sorted(int(j) for j in lvl)) for lvl in given]
    if not levels or levels[0] != (i,):
        raise ValueError(f"omega_1 of node {i} must be {{{i}}}")
    for a, b in zip(levels, levels[1:]):
        if not set(a) <= set(b):
            raise ValueError(f"omega levels of node {i} must be nested")
    if not set(sources) <= set(levels[-1]):
        raise ValueError(f"omega levels of node {i} must eventually cover every source node {i} reads")
    return levels


def atom_future_bound(
    i: NodeId,
    incoming: Mapping[NodeId, Kernel],
    atoms: AtomicWeights,
    x: Configuration,
    t: float,
    eps: float,
    source: Optional[NodeId] = None,
) -> float:
    """Largest B_n / lambda(w_{j,n}) over the atoms of node ``i``'s sources.

    ``incoming`` maps each source j to its kernel and ``atoms`` weighs the
    bins w_{j,n}; B_n is the bound of ``future_bin_bounds``, so the value
    bounds every atom's component at every future shift of ``x``'s past
    before ``t``. ``source=j`` reads j's atoms only. Beyond the bin holding
    the oldest point the ratios decay geometrically when the bin weights
    decay slower than the kernel; otherwise no finite bound exists.
    """
    best = 0.0
    for j, ker in incoming.items():
        if source is not None and j != source:
            continue
        pts = x.points(j)
        if not pts or ker.is_zero():
            continue
        share = (1.0 - atoms.p_empty) * atoms.shares.get(j, 0.0)
        if share == 0.0:
            raise ExplosionGuardError(
                f"node {i}: kernel from node {j} is active but its atoms carry no weight"
            )
        nmax = atoms.trunc[j]
        if nmax is None and ker.decay_per(eps) >= atoms.ratios[j]:
            raise ExplosionGuardError(
                f"node {i}: bin weights from node {j} decay at least as fast as the kernel"
                " across bins; components admit no finite bound at future shifts"
            )
        for n, bound_n in future_bin_bounds(ker, pts, t, eps, nmax):
            best = max(best, bound_n / (share * atoms._bin_pmf(j, n)))
    return best


def future_bin_bounds(ker, pts: tuple[float, ...], t: float, eps: float, nmax: Optional[int]):
    """Yield ``(n, B_n)`` where B_n bounds the bin-n drive of ``ker`` at every shift.

    ``pts`` are one source node's absolute point times, increasing; the past
    is the points at or before ``t``. Bin n holds ages in [(n-1)*eps, n*eps).
    A point of age a can reach bin n at a later time iff a < n*eps, and its
    kernel value there is at most h(max(a, (n-1)*eps)), the kernel being
    nonincreasing. Only nonzero bounds are listed, for bins up to one past
    the bin of the oldest point (and up to ``nmax`` when the weights
    truncate).
    """
    ages = [t - s for s in reversed(pts[: bisect_right(pts, t)])]
    if not ages:
        return
    prefix = list(accumulate(map(ker, ages), initial=0.0))
    n_stop = int(ages[-1] / eps) + 2
    if nmax is not None:
        n_stop = min(n_stop, nmax)
    for n in range(1, n_stop + 1):
        lo_edge = (n - 1) * eps
        k_lo = bisect_left(ages, lo_edge)
        k_hi = bisect_left(ages, n * eps)
        bound_n = (prefix[k_hi] - prefix[k_lo]) + k_lo * ker(lo_edge)
        if bound_n > 0.0:
            yield n, bound_n
