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
from typing import ItemsView, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import GuardViolation

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

    def by_node(self) -> ItemsView[NodeId, tuple[tuple[float, float], ...]]:
        """Every node with its projection, ``(node, intervals)`` in increasing
        node order; the intervals are sorted and disjoint."""
        return self._by_node.items()

    def pieces(self) -> Iterator[tuple[NodeId, float, float]]:
        for j, ivs in self._by_node.items():
            for a, b in ivs:
                yield j, a, b

    def __eq__(self, other) -> bool:
        return isinstance(other, Neighborhood) and self._by_node == other._by_node

    def __hash__(self) -> int:
        return hash(tuple(sorted((j, ivs) for j, ivs in self._by_node.items())))

    def __repr__(self) -> str:
        if self.is_empty():
            return "Neighborhood(empty)"
        body = " U ".join(f"{{{j}}}x[{a:g},{b:g})" for j, a, b in self.pieces())
        return f"Neighborhood({body})"


class Configuration:
    """Finite realized point sets per node, complete everywhere.

    A configuration is a whole past: every point of the path is listed, so
    a component reads ``x.restrict(v)`` and nothing outside ``v``. Points
    are strictly increasing per node and collisions across nodes are
    rejected (a realized counting path never has simultaneous points).
    """

    __slots__ = ("_points",)

    def __init__(self, points: Mapping[NodeId, Sequence[float]]):
        self._points = {int(j): tuple(sorted(float(t) for t in ts)) for j, ts in points.items() if len(ts)}
        self._validate()

    def _validate(self) -> None:
        seen: dict[float, NodeId] = {}
        for j, ts in self._points.items():
            prev = _NEG_INF
            for t in ts:
                if not math.isfinite(t):
                    raise ValueError(f"non-finite point time {t} on node {j}")
                if t <= prev:
                    raise ValueError(f"points of node {j} not strictly increasing at {t}")
                if t in seen and seen[t] != j:
                    raise ValueError(f"exact time collision at {t} between nodes {seen[t]} and {j}")
                seen[t] = j
                prev = t

    @classmethod
    def empty(cls) -> "Configuration":
        return cls._unsafe({})

    @classmethod
    def _unsafe(cls, points: dict[NodeId, tuple[float, ...]]) -> "Configuration":
        """Fast path for internally produced, already-consistent data."""
        obj = cls.__new__(cls)
        obj._points = points
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

    def restrict(self, v: Neighborhood) -> "Configuration":
        """Points of the configuration inside ``v`` (complete by construction):
        ``restrict_at`` anchored at time 0, where no point moves."""
        return self.restrict_at(v, 0.0)

    def restrict_at(self, v: Neighborhood, t: float) -> "Configuration":
        """Points inside ``v`` anchored at ``t``, shifted so that ``t`` is time 0.

        The same points as ``shift_to_origin(self, t).restrict(v)``: a point
        belongs to a piece by its shifted time, so rounding cannot move it
        across the piece's edge. Costs O(points in v), not O(points).
        """
        out = {}
        for j, ivs in v.by_node():
            ts = self._points.get(j)
            if not ts:
                continue
            kept = []
            for a, b in ivs:
                lo = _first_aged(ts, t, a)
                kept.extend(s - t for s in ts[lo : _first_aged(ts, t, b, lo)])
            if kept:
                out[j] = tuple(kept)
        return Configuration._unsafe(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self._points == other._points

    def __repr__(self) -> str:
        n = self.n_points()
        return f"Configuration({n} point{'s' if n != 1 else ''} on {len(self._points)} node(s))"


def _first_aged(ts: tuple[float, ...], t: float, a: float, lo: int = 0) -> int:
    """The first index i >= lo with ts[i] - t >= a, for increasing ``ts``.

    The shifted time s - t, as rounded, never decreases as s grows, so the
    bisect on absolute times is off only where rounding moves a point across
    ``a``; the two steps move it to the exact boundary.
    """
    i = bisect_left(ts, a + t, lo)
    while i > lo and ts[i - 1] - t >= a:
        i -= 1
    while i < len(ts) and ts[i] - t < a:
        i += 1
    return i


def shift_to_origin(x: Configuration, t: float) -> Configuration:
    """View the past of ``x`` strictly before ``t`` as a configuration rooted at 0.

    Every point ``s < t`` maps to ``s - t``; points at or after ``t`` are
    dropped.
    """
    out = {}
    for j, ts in x.items():
        k = bisect_left(ts, t)
        if k:
            out[j] = tuple(s - t for s in ts[:k])
    return Configuration._unsafe(out)


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
    """k-th member of a nested family omega_k x [-D_k delta, 0), k >= 1."""

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
# The Kalikow identity evaluator
# --------------------------------------------------------------------------


def evaluate_decomposition(model, i: NodeId, x: Configuration, n: int) -> float:
    """Truncated Kalikow sum  sum_{first n neighborhoods} lambda(v) * phi_v(x).

    Terms are nonnegative, so the value is nondecreasing in ``n`` and converges
    to the intensity phi_i(x) on the model's guard subspace. For the age
    models every summand is at most its level bound Gamma_k, so the sum falls
    short of the intensity by at most ``model.ladder(i).tail(n)``.
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
