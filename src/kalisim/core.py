"""Domain types for point configurations, past neighborhoods and decomposition tables.

Conventions used throughout the package:

* all processes are time homogeneous, so intensities are evaluated on pasts
  rooted at time 0 (every point strictly negative);
* every interval is half-open ``[a, b)``;
* a neighborhood is a finite union of ``(node, [a, b))`` pieces with
  ``a < b <= 0``, i.e. it lives strictly in the past;
* node ids are plain (possibly negative) integers, which also covers lattice
  models indexed by the integers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CoverageError, GuardViolation

NodeId = int

_NEG_INF = float("-inf")


def _merge_pieces(pieces: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort intervals and merge overlapping or abutting ones."""
    out: list[list[float]] = []
    for a, b in sorted(pieces):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


class Neighborhood:
    """Finite union of (node, half-open interval) pieces in the strict past.

    Pieces are normalized on construction: per node, intervals are sorted and
    overlapping/abutting ones merged, so equal point sets compare equal.
    """

    __slots__ = ("_by_node",)

    def __init__(self, pieces: Iterable[tuple[NodeId, float, float]] = ()):
        grouped: dict[NodeId, list[tuple[float, float]]] = {}
        for node, a, b in pieces:
            if not (a < b <= 0.0):
                raise ValueError(f"neighborhood piece must satisfy a < b <= 0, got [{a}, {b}) on node {node}")
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"neighborhood piece must be finite, got [{a}, {b})")
            grouped.setdefault(int(node), []).append((a, b))
        self._by_node = {j: _merge_pieces(iv) for j, iv in sorted(grouped.items())}

    @classmethod
    def empty(cls) -> "Neighborhood":
        return cls(())

    def is_empty(self) -> bool:
        return not self._by_node

    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._by_node)

    def intervals(self, node: NodeId) -> tuple[tuple[float, float], ...]:
        """Projection of the neighborhood onto one node (may be empty)."""
        return self._by_node.get(node, ())

    def pieces(self) -> Iterator[tuple[NodeId, float, float]]:
        for j, ivs in self._by_node.items():
            for a, b in ivs:
                yield j, a, b

    def contains(self, node: NodeId, t: float) -> bool:
        for a, b in self._by_node.get(node, ()):
            if a <= t < b:
                return True
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, Neighborhood) and self._by_node == other._by_node

    def __hash__(self) -> int:
        return hash(tuple(sorted((j, ivs) for j, ivs in self._by_node.items())))

    def __repr__(self) -> str:
        if self.is_empty():
            return "Neighborhood(empty)"
        body = " U ".join(f"{{{j}}}x[{a:g},{b:g})" for j, a, b in self.pieces())
        return f"Neighborhood({body})"


def neighborhood_measure(v: Neighborhood, gamma: Mapping[NodeId, float]) -> float:
    """Product measure of a neighborhood, P(v) = sum_j Gamma^j * length(p_j(v)).

    ``gamma`` must provide a bound for every node appearing in ``v``.
    """
    total = 0.0
    for j, a, b in v.pieces():
        if j not in gamma:
            raise KeyError(f"no bound known for node {j}")
        total += gamma[j] * (b - a)
    return total


class Configuration:
    """Finite realized point sets per node, with an optional knowledge window.

    ``window=(a, b)`` asserts the points are complete on ``[a, b)`` (``a`` may
    be ``-inf``); ``window=None`` means the configuration is complete
    everywhere. Points are strictly increasing per node and collisions across
    nodes are rejected (a realized counting path never has simultaneous
    points).
    """

    __slots__ = ("_points", "window")

    def __init__(
        self,
        points: Mapping[NodeId, Sequence[float]] | Iterable[tuple[NodeId, float]] = (),
        window: Optional[tuple[float, float]] = None,
        validate: bool = True,
    ):
        if isinstance(points, Mapping):
            data = {int(j): tuple(sorted(float(t) for t in ts)) for j, ts in points.items() if len(ts)}
        else:
            tmp: dict[int, list[float]] = {}
            for j, t in points:
                tmp.setdefault(int(j), []).append(float(t))
            data = {j: tuple(sorted(ts)) for j, ts in tmp.items()}
        self._points = data
        self.window = window
        if validate:
            self._validate()

    def _validate(self) -> None:
        seen: dict[float, NodeId] = {}
        lo, hi = self.window if self.window is not None else (_NEG_INF, math.inf)
        for j, ts in self._points.items():
            prev = _NEG_INF
            for t in ts:
                if not math.isfinite(t):
                    raise ValueError(f"non-finite point time {t} on node {j}")
                if t <= prev:
                    raise ValueError(f"points of node {j} not strictly increasing at {t}")
                if t in seen and seen[t] != j:
                    raise ValueError(f"exact time collision at {t} between nodes {seen[t]} and {j}")
                if not (lo <= t < hi):
                    raise ValueError(f"point ({j}, {t}) lies outside the window [{lo}, {hi})")
                seen[t] = j
                prev = t

    @classmethod
    def empty(cls, window: Optional[tuple[float, float]] = None) -> "Configuration":
        return cls((), window=window, validate=False)

    @classmethod
    def _unsafe(cls, points: dict[NodeId, tuple[float, ...]], window=None) -> "Configuration":
        """Fast path for internally produced, already-consistent data."""
        obj = cls.__new__(cls)
        obj._points = points
        obj.window = window
        return obj

    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._points)

    def points(self, node: NodeId) -> tuple[float, ...]:
        return self._points.get(node, ())

    def items(self) -> Iterator[tuple[NodeId, tuple[float, ...]]]:
        return iter(self._points.items())

    def n_points(self) -> int:
        return sum(len(ts) for ts in self._points.values())

    def is_empty(self) -> bool:
        return not self._points

    def count_in(self, node: NodeId, a: float, b: float) -> int:
        """Number of points of ``node`` in ``[a, b)``."""
        ts = self._points.get(node, ())
        return bisect_left(ts, b) - bisect_left(ts, a)

    def points_in(self, node: NodeId, a: float, b: float) -> tuple[float, ...]:
        ts = self._points.get(node, ())
        return ts[bisect_left(ts, a):bisect_left(ts, b)]

    def last_before(self, node: NodeId, t: float) -> Optional[float]:
        ts = self._points.get(node, ())
        k = bisect_left(ts, t)
        return ts[k - 1] if k else None

    def covers(self, v: Neighborhood) -> bool:
        """True if every piece of ``v`` lies inside the knowledge window."""
        if self.window is None:
            return True
        lo, hi = self.window
        return all(lo <= a and b <= hi for _, a, b in v.pieces())

    def restrict(self, v: Neighborhood) -> "Configuration":
        """Points of the configuration inside ``v`` (complete by construction)."""
        out = {}
        for j in v.nodes():
            kept = [t for a, b in v.intervals(j) for t in self.points_in(j, a, b)]
            if kept:
                out[j] = tuple(sorted(kept))
        return Configuration._unsafe(out, window=None)

    def restrict_at(self, v: Neighborhood, t: float) -> "Configuration":
        """Points inside ``v`` anchored at ``t``, shifted so that ``t`` is time 0.

        The same points as ``shift_to_origin(self, t).restrict(v)``: a point
        belongs to a piece by its shifted time, so rounding cannot move it
        across the piece's edge. Costs O(points in v), not O(points).
        """
        out = {}
        age = lambda s: s - t
        for j in v.nodes():
            ts = self._points.get(j)
            if not ts:
                continue
            kept = []
            for a, b in v.intervals(j):
                lo = bisect_left(ts, a, key=age)
                kept.extend(s - t for s in ts[lo:bisect_left(ts, b, lo, key=age)])
            if kept:
                out[j] = tuple(kept)
        return Configuration._unsafe(out, window=None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self._points == other._points
            and self.window == other.window
        )

    def __repr__(self) -> str:
        n = self.n_points()
        return f"Configuration({n} point{'s' if n != 1 else ''} on {len(self._points)} node(s), window={self.window})"


def agrees_on(x: Configuration, y: Configuration, v: Neighborhood) -> bool:
    """True iff the restrictions of ``x`` and ``y`` to ``v`` are the same point set.

    Both configurations must cover ``v`` with their windows: equality cannot be
    decided on a region where knowledge is incomplete.
    """
    for z, name in ((x, "first"), (y, "second")):
        if not z.covers(v):
            raise CoverageError(f"{name} configuration's window does not cover {v!r}")
    for j in v.nodes():
        for a, b in v.intervals(j):
            if x.points_in(j, a, b) != y.points_in(j, a, b):
                return False
    return True


def shift_to_origin(x: Configuration, t: float) -> Configuration:
    """View the past of ``x`` strictly before ``t`` as a configuration rooted at 0.

    Every point ``s < t`` maps to ``s - t``; points at or after ``t`` are
    dropped; the knowledge window shifts along.
    """
    out = {}
    for j, ts in x.items():
        k = bisect_left(ts, t)
        if k:
            out[j] = tuple(s - t for s in ts[:k])
    if x.window is None:
        window = None
    else:
        lo, hi = x.window
        window = (lo - t, min(hi, t) - t)
    return Configuration._unsafe(out, window=window)


# --------------------------------------------------------------------------
# Neighborhood descriptors
#
# A descriptor is a compact, hashable identity for one member of a model's
# neighborhood family; the model expands it to a concrete Neighborhood.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EmptyND:
    """The empty neighborhood."""

    def __repr__(self):
        return "ND(empty)"


@dataclass(frozen=True)
class AtomND:
    """Single-node time bin {j} x [-n*eps, -(n-1)*eps), n >= 1."""

    j: NodeId
    n: int

    def __repr__(self):
        return f"ND(atom j={self.j}, n={self.n})"


@dataclass(frozen=True)
class NestedND:
    """k-th member of a nested family omega_k x [-k*delta, 0), k >= 1."""

    k: int

    def __repr__(self):
        return f"ND(nested k={self.k})"


@dataclass(frozen=True)
class TaylorND:
    """Ordered union of atoms; redundant descriptors are kept distinct."""

    alphas: tuple[tuple[NodeId, int], ...]

    def order(self) -> int:
        return len(self.alphas)

    def __repr__(self):
        return f"ND(taylor {list(self.alphas)})"


@dataclass(frozen=True)
class TableND:
    """Row index into an explicit per-node decomposition table."""

    node: NodeId
    index: int

    def __repr__(self):
        return f"ND(table node={self.node}, row={self.index})"


EMPTY_ND = EmptyND()


# --------------------------------------------------------------------------
# Subspace guards
# --------------------------------------------------------------------------


class SubspaceGuard:
    """Predicate singling out the subspace a decomposition is valid on."""

    name = "guard"

    def check(self, x: Configuration) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def require(self, x: Configuration) -> None:
        if not self.check(x):
            raise GuardViolation(f"configuration lies outside subspace {self.name}")


class NoGuard(SubspaceGuard):
    name = "none"

    def check(self, x: Configuration) -> bool:
        return True


class RefractoryGap(SubspaceGuard):
    """All same-node gaps strictly exceed delta."""

    def __init__(self, delta: float):
        if delta <= 0:
            raise ValueError("refractory length must be positive")
        self.delta = delta
        self.name = f"refractory-gap(delta={delta:g})"

    def check(self, x: Configuration) -> bool:
        for _, ts in x.items():
            for s, t in zip(ts, ts[1:]):
                if t - s <= self.delta:
                    return False
        return True


class ActivityCap(SubspaceGuard):
    """At most K points per node on [0, T]."""

    def __init__(self, t: float, k: int):
        if t < 0 or k < 0:
            raise ValueError("activity cap needs t >= 0 and k >= 0")
        self.t = t
        self.k = k
        self.name = f"activity-cap(T={t:g}, K={k})"

    def check(self, x: Configuration) -> bool:
        for j, ts in x.items():
            lo = bisect_left(ts, 0.0)
            hi = bisect_right(ts, self.t)
            if hi - lo > self.k:
                return False
        return True


# --------------------------------------------------------------------------
# Decomposition tables and the Kalikow identity evaluator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    descriptor: object
    weight: float
    bound: Optional[float]


@dataclass(frozen=True)
class DecompositionTable:
    """Finite prefix of one node's decomposition, with closed-form tail masses.

    ``weight_tail``/``bound_tail`` are the masses beyond the listed rows;
    weights sum to 1 once the tail is added, and ``total_bound`` equals the sum
    of all row bounds plus the bound tail when bounds exist.
    """

    node: NodeId
    rows: tuple[TableRow, ...]
    weight_tail: float
    bound_tail: Optional[float]
    total_bound: Optional[float]

    def weight_sum(self) -> float:
        return sum(r.weight for r in self.rows) + self.weight_tail


def evaluate_decomposition(model, i: NodeId, x: Configuration, n: int) -> float:
    """Truncated Kalikow sum  sum_{first n neighborhoods} lambda(v) * phi_v(x).

    Terms are nonnegative, so the value is nondecreasing in ``n`` and converges
    to the intensity phi_i(x) on the model's guard subspace.
    """
    model.guard().require(x)
    total = 0.0
    for count, desc in enumerate(model.enumerate_descriptors(i, x)):
        if count >= n:
            break
        lam = model.pmf(i, desc)
        if lam > 0.0:
            total += lam * model.component_value(i, desc, x)
    return total
