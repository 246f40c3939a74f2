"""Explicit finite decomposition tables; the workhorse for bounded toy models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..core import Configuration, Neighborhood, NodeId, TableND
from ..sampling import RandomStream
from .base import KalikowModel, OffspringRow


@dataclass(frozen=True)
class TableEntry:
    """One row of an explicit decomposition: weight, neighborhood, bound, summand.

    ``value`` is either a constant (a neighborhood-free summand) or a callable
    of the configuration restricted to the neighborhood.
    """

    weight: float
    neighborhood: Neighborhood
    bound: float
    value: float | Callable[[Configuration], float] = 0.0

    def evaluate(self, x: Configuration) -> float:
        """The summand at ``x``; only a callable needs ``x`` restricted."""
        if callable(self.value):
            return float(self.value(x.restrict(self.neighborhood)))
        return float(self.value)


class TableModel(KalikowModel):
    """Model given by explicit per-node tables of (weight, neighborhood, bound, summand).

    The per-node dominating bound defaults to the sum of row bounds; it can be
    declared larger. Weights must be nonnegative and sum to one per node, and
    every summand is the caller's assertion to stay below its row bound
    (acceptance probabilities are still checked at simulation time). A row is
    drawn as the first whose running weight total exceeds a uniform, the last
    row when rounding leaves the uniform past every total.
    """

    def __init__(
        self,
        entries: Mapping[NodeId, Sequence[TableEntry]],
        bounds: Optional[Mapping[NodeId, float]] = None,
    ):
        self._entries = {int(i): tuple(rows) for i, rows in entries.items()}
        self._draws: dict[NodeId, tuple[tuple[TableND, float], ...]] = {}
        self._bounds = {}
        for i, rows in self._entries.items():
            weights = [float(row.weight) for row in rows]
            if any(w < 0 for w in weights):
                raise ValueError(f"table weights of node {i} must be nonnegative")
            total = sum(weights)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"table weights of node {i} must sum to 1, got {total}")
            self._draws[i] = tuple((TableND(i, k), w) for k, w in enumerate(weights))
            declared = None if bounds is None else bounds.get(i)
            row_sum = sum(r.bound for r in rows)
            self._bounds[i] = float(declared) if declared is not None else row_sum

    @classmethod
    def constant_rate(cls, rate: float, bound: Optional[float] = None) -> "TableModel":
        """Node 0 alone, constant intensity: lambda(empty) = 1 with summand ``rate``."""
        b = float(bound) if bound is not None else float(rate)
        entry = TableEntry(weight=1.0, neighborhood=Neighborhood.empty(), bound=b, value=float(rate))
        return cls({0: [entry]})

    # -- structure ---------------------------------------------------------------

    def node_set(self):
        return tuple(sorted(self._entries))

    def _row(self, i: NodeId, desc) -> TableEntry:
        if isinstance(desc, TableND) and desc.node == i and desc.index >= 0:
            try:
                return self._entries[i][desc.index]
            except IndexError:
                pass
        raise KeyError(f"descriptor {desc!r} does not belong to node {i}'s table")

    # -- decomposition -------------------------------------------------------------

    def intensity(self, i: NodeId, x: Configuration) -> float:
        total = 0.0
        for row in self._entries[i]:
            total += row.evaluate(x)
        return total

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        return self._row(i, desc).evaluate(x)

    def pmf(self, i: NodeId, desc) -> float:
        try:
            return self._row(i, desc).weight
        except KeyError:
            return 0.0

    def expand(self, i: NodeId, desc) -> Neighborhood:
        return self._row(i, desc).neighborhood

    def sample_neighborhood(self, i: NodeId, rng: RandomStream, cls=None):
        u = rng.uniform()
        acc = 0.0
        for desc, w in self._draws[i]:
            acc += w
            if u < acc:
                return desc
        return desc

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        return iter(TableND(i, k) for k in range(len(self._entries[i])))

    # -- bounds ------------------------------------------------------------------------

    def global_bound(self, i: NodeId) -> Optional[float]:
        return self._bounds.get(i)

    def local_bound(self, i: NodeId, x: Configuration, t: float = 0.0, cls=None) -> float:
        # row bounds are sups over all configurations, so they stay valid at
        # every future shift; zero-weight rows carry no component (0/0 = 0)
        best = 0.0
        for row in self._entries[i]:
            if row.weight > 0.0:
                best = max(best, row.bound / row.weight)
        return best

    # -- branching --------------------------------------------------------------------

    def offspring_row(self, i: NodeId, tol: float = 1e-8) -> OffspringRow:
        row: dict[NodeId, float] = {}
        for entry in self._entries[i]:
            if entry.weight == 0.0:
                continue
            for j, a, b in entry.neighborhood.pieces():
                row[j] = row.get(j, 0.0) + entry.weight * self.require_bound(j) * (b - a)
        return OffspringRow(row)
