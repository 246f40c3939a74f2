"""Reproducible randomness and the region ledger.

The ledger is the bookkeeping that makes perfect simulation exact: each
space-time region of the dominating Poisson processes is realized exactly
once, and every later request over the same region replays its stored points
bit for bit. It stores every point it draws, with its mark.

Every draw of a run goes through one :class:`RandomStream`, which hands out
its generator's i.i.d. uniform doubles in order from a buffer it refills in
blocks. Exponential steps, geometric levels and the points of a region are
exact inversions of those uniforms, so no draw pays for a NumPy scalar call.

A run draws proposals, marks, neighborhoods and regions from one stream. Its
order of draws is a deterministic function of the past, so each region request
starts at a stopping time and the i.i.d. draws after it are independent of the
past: the law is that of a stream per region, and the same ``(seed, path)``
with the same calls replays the run bit for bit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import LedgerError
from .io import open_output

# Uniforms a stream draws from its generator at its first refill; each refill
# doubles the block up to the cap, so a stream that draws little pays little.
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


class RandomStream:
    """Splittable seeded random stream.

    A stream is identified by ``(seed, path)``; identical identities replay
    identical draw sequences, and distinct paths yield streams that are
    independent by construction (children are keyed into the seed material,
    not derived from the parent's consumed state).

    Every draw is made from the generator's uniform doubles, read in order
    from a buffer: ``uniform`` and ``uniforms`` return them as they are, and
    ``exponential`` and ``geometric`` invert one each. The buffer is refilled
    with ``generator.random(n)``, n growing from ``_FIRST_BLOCK`` to
    ``_MAX_BLOCK``; the uniforms a stream returns are those of one
    ``generator.random`` call of their total length.

    The region ledger draws from the stream it is given: a run passes one
    long-lived stream, never a re-created one that replays spent draws.
    """

    __slots__ = ("seed", "path", "_gen", "_buf", "_block")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self._gen = None  # constructed on first draw; many streams never draw
        self._buf = iter(())  # the uniforms drawn from the generator and not yet used
        self._block = _FIRST_BLOCK

    def child(self, *indices: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(indices))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.path))
            )
        return self._gen

    def _refill(self) -> None:
        n = self._block
        self._block = min(2 * n, _MAX_BLOCK)
        self._buf = iter(self.generator.random(n).tolist())

    def uniform(self) -> float:
        """The next uniform of [0, 1)."""
        try:
            return next(self._buf)
        except StopIteration:
            self._refill()
            return next(self._buf)

    def uniforms(self, n: int) -> list[float]:
        """The next ``n`` uniforms, in order."""
        out = list(islice(self._buf, n))
        while len(out) < n:
            self._refill()
            out += islice(self._buf, n - len(out))
        return out

    def exponential(self, rate: float) -> float:
        """An exponential step of the given rate, ``-log(1 - u) / rate``; u = 0 gives 0."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return -math.log1p(-self.uniform()) / rate

    def geometric(self, p: float) -> int:
        """The number of trials up to the first success of probability ``p``
        in (0, 1], at least 1: P(G > k) = (1 - p)^k."""
        u = self.uniform()
        return 1 if p == 1.0 else 1 + int(math.log1p(-u) / math.log1p(-p))

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self.path})"


def sample_poisson_region(
    rng: RandomStream, rate: float, region: Sequence[tuple[float, float]]
) -> list[float]:
    """Homogeneous Poisson points of the given rate on a disjoint interval union.

    The intervals are laid end to end in order and walked with exponential
    steps of the given rate; a step that overshoots an interval's end carries
    the overshoot into the next interval, which by memorylessness is again an
    exponential step. Per-interval counts are thus independent Poisson(rate *
    length), and the output comes globally sorted. The walk makes one
    exponential draw per point and one for the final overshoot.

    A reversed, overlapping or infinite interval raises ``ValueError`` before
    any draw; an interval of zero length is empty.
    """
    if rate <= 0:
        raise ValueError(f"poisson rate must be positive, got {rate}")
    ivs = sorted(region)
    for a, b in ivs:
        if b < a:
            raise ValueError(f"region interval [{a}, {b}) is reversed")
    for (a, b), (c, _) in zip(ivs, ivs[1:]):
        if b > c:
            raise ValueError("region intervals must be disjoint")
    if not math.isfinite(sum(b - a for a, b in ivs)):
        raise ValueError("region must have finite total length")
    return _poisson_on_sorted(rng, rate, ivs)


def _poisson_on_sorted(rng: RandomStream, rate: float, ivs: list[tuple[float, float]]) -> list[float]:
    """The draws of :func:`sample_poisson_region` on intervals the caller
    already knows to be sorted, disjoint and finite, at a positive rate.

    Each step is ``-log1p(-u) / rate`` of the next uniform, the float
    ``RandomStream.exponential(rate)`` returns, taken inline."""
    if not ivs:
        return []
    uniform, log1p = rng.uniform, math.log1p
    out: list[float] = []
    over = -log1p(-uniform()) / rate  # from the next interval's start to the next point
    for a, b in ivs:
        t = a + over
        while t < b:
            out.append(t)
            t += -log1p(-uniform()) / rate
        over = t - b
    return out


def _ordered_pieces(region: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """A ledger request's pieces as floats sorted by start, checked to be
    finite, non-empty and disjoint; raises :class:`LedgerError` otherwise.

    Anchored neighbourhoods arrive as sorted lists of float pairs, so one pass
    that finds them in order returns the request itself; anything else is
    converted, sorted and checked again.
    """
    pieces = region if isinstance(region, list) else list(region)
    end = -math.inf
    for a, b in pieces:
        if not (type(a) is float and type(b) is float and -math.inf < a and end <= a < b < math.inf):
            break
        end = b
    else:
        return pieces
    pieces = sorted((float(a), float(b)) for a, b in pieces)
    for k, (a, b) in enumerate(pieces):
        if not (a < b) or not (math.isfinite(a) and math.isfinite(b)):
            raise LedgerError(f"invalid region piece [{a}, {b})")
        if k and pieces[k - 1][1] > a:
            raise LedgerError("requested region must be a disjoint interval union")
    return pieces


@dataclass(slots=True)
class PointRecord:
    """One realized point of a dominating process, with its attached marks.

    ``mark`` is the uniform thinning mark drawn at creation time;
    ``neighborhood`` is the descriptor drawn at first expansion;
    ``children`` are the realized points of that neighborhood, stored when the
    expansion realizes it (the region cannot gain points afterwards);
    ``decision`` is set exactly once by the forward pass.
    """

    node: int
    time: float
    mark: float
    neighborhood: object = None
    decision: Optional[bool] = None
    generation: Optional[int] = None
    children: Optional[list["PointRecord"]] = None

    def __repr__(self):
        state = "undecided" if self.decision is None else ("accepted" if self.decision else "rejected")
        return f"PointRecord(node={self.node}, t={self.time:.6g}, {state})"


@dataclass
class _NodeLedger:
    """One node's coverage and its realized points.

    ``records[k]`` is the point at ``times[k]``; both lists are sorted by time.
    """

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    records: list[PointRecord] = field(default_factory=list)
    rate: Optional[float] = None


class RegionLedger:
    """Per-node record of realized intervals of the dominating Poisson processes.

    Each node keeps its coverage, half-open intervals kept disjoint and merged
    when abutting (endpoints compared exactly, no epsilon merging), and its
    stored points, once each as a ``PointRecord`` in a list sorted by time.
    Region requests and ``advance`` store every point they draw, so a covered
    stretch holds exactly the dominating process's points there. Records
    carry their marks and are shared by every simulation step of one run. A
    region request returns the records it finds and makes, so a caller that
    keeps them never reads a realized region again.

    No two points share a time, on any node, because ``Configuration`` forbids
    simultaneous points. An exact collision (a measure-zero event realized by
    floating point) is resolved by resampling the new point: inside the same
    interval for region requests, by a fresh exponential step for proposals.
    The ledger-wide set of used times exists only for that rule.

    A region request is served one of three ways, which give the same gaps,
    coverage and returned records; see :meth:`realize_new`.
    """

    def __init__(self):
        self._nodes: dict[int, _NodeLedger] = {}
        self._times_used: set[float] = set()
        self._n_points = 0

    # -- inspection ----------------------------------------------------------

    def coverage(self, node: int) -> list[tuple[float, float]]:
        led = self._nodes.get(node)
        return list(zip(led.starts, led.ends)) if led else []

    def points_in(self, node: int, a: float, b: float) -> list[PointRecord]:
        """Records of the node's realized points in [a, b)."""
        led = self._nodes.get(node)
        if led is None:
            return []
        return led.records[bisect_left(led.times, a) : bisect_left(led.times, b)]

    def record(self, node: int, t: float) -> Optional[PointRecord]:
        """The node's realized point at exactly ``t``, if any."""
        led = self._nodes.get(node)
        if led is None:
            return None
        k = bisect_left(led.times, t)
        return led.records[k] if k < len(led.times) and led.times[k] == t else None

    def n_points(self) -> int:
        return self._n_points

    # -- internal helpers ------------------------------------------------------

    def _node(self, node: int) -> _NodeLedger:
        led = self._nodes.get(node)
        if led is None:
            led = self._nodes[node] = _NodeLedger()
        return led

    def _check_rate(self, node: int, rate: float) -> _NodeLedger:
        """The node's ledger, its rate set on a first request or checked.

        Requests at the node's set rate skip this call: a set rate passed
        this check, so it is positive."""
        if rate <= 0:
            raise LedgerError(f"dominating rate must be positive, got {rate} for node {node}")
        led = self._node(node)
        if led.rate is None:
            led.rate = rate
        elif led.rate != rate:
            raise LedgerError(
                f"node {node} was realized at rate {led.rate} but is now requested at {rate};"
                " dominating bounds must be constant within a run"
            )
        return led

    def _cover_gap(self, node: int, led: _NodeLedger, k: int, a: float, b: float) -> None:
        """Cover [a, b), which must lie in the gap after coverage interval ``k``.

        ``k`` is the last interval starting at or before ``a`` (-1 if none).
        The gap must hold no stored point beyond a possible one at ``a``. The
        stretch is merged with the intervals it abuts, as the coverage keeps
        abutting intervals merged.
        """
        if a >= b:  # an exponential step can round to zero
            return
        starts, ends, times = led.starts, led.ends, led.times
        after = k + 1 < len(starts)
        if (k >= 0 and ends[k] > a) or (after and starts[k + 1] < b):
            raise LedgerError(f"register_empty would overlap realized coverage on node {node}: [{a}, {b})")
        lo = bisect_right(times, a)
        if lo < len(times) and times[lo] < b:
            raise LedgerError(f"register_empty over stored points on node {node}: [{a}, {b})")
        joins_next = after and starts[k + 1] == b
        if k >= 0 and ends[k] == a:
            if joins_next:
                ends[k] = ends[k + 1]
                del starts[k + 1], ends[k + 1]
            else:
                ends[k] = b
        elif joins_next:
            starts[k + 1] = a
        else:
            starts.insert(k + 1, a)
            ends.insert(k + 1, b)

    def _store_point(self, node: int, led: _NodeLedger, t: float, mark: float) -> PointRecord:
        rec = PointRecord(node=node, time=t, mark=mark)
        k = bisect_right(led.times, t)
        led.times.insert(k, t)
        led.records.insert(k, rec)
        self._times_used.add(t)
        self._n_points += 1
        return rec

    # -- mutation ----------------------------------------------------------------

    def realize_new(
        self,
        node: int,
        region: Iterable[tuple[float, float]],
        rate: float,
        rng: RandomStream,
    ) -> tuple[list[PointRecord], list[PointRecord]]:
        """Realize the dominating process on the not-yet-visited part of ``region``.

        Returns ``(new, old)``: fresh points simulated on ``region`` minus the
        already-realized intervals, and previously realized points inside
        ``region``. The ledger's coverage is extended by the full request
        either way, so re-requesting any region is idempotent.

        The request's uncovered gaps are realized by the draws of one
        :func:`sample_poisson_region` call on the caller's ``rng``, then the
        points' marks by one ``uniforms`` call; the module docstring says why.

        The request's stored points are read piece by piece, and only when
        one lies in its span; a point stored by ``add_proposal_point`` may lie
        outside every interval, so coverage alone does not say where they
        are. The coverage intervals that touch or abut the span are found by
        two bisects, and the request takes the cheapest of three routes, all
        with the walk's gaps and coverage:

        - *It meets no coverage*, on a new node or between intervals, with
          any number of pieces. The walk would cut no piece, so the pieces
          are the gaps, and they enter the coverage merged where they abut,
          at one place.
        - *One piece inside one interval.* The walk would find no gap, and
          ``sample_poisson_region`` draws nothing on no gap, so nothing is
          drawn and the coverage stays as it is.
        - *Anything else* takes the walk: one pass over the touching
          intervals and the pieces, in order of start, cuts the gaps and
          merges the coverage.
        """
        led = self._nodes.get(node)
        if led is None or led.rate != rate:
            led = self._check_rate(node, rate)
        pieces = _ordered_pieces(region)
        if not pieces:
            return [], []
        starts, ends, times, records = led.starts, led.ends, led.times, led.records
        # the coverage intervals that touch or abut the request
        lo = bisect_left(ends, pieces[0][0])
        hi = bisect_right(starts, pieces[-1][1])
        # the stored points in the pieces, if any lies in the request's span
        old, p = [], bisect_left(times, pieces[0][0])
        if p < len(times) and times[p] < pieces[-1][1]:
            for a, b in pieces:
                p = bisect_left(times, a, p)
                p_end = bisect_left(times, b, p)
                old += records[p:p_end]
                p = p_end
        if lo == hi:
            # a request that meets no coverage is its own gaps, and its pieces,
            # merged where they abut, are new intervals
            gaps, cover_s, cover_e = pieces, [], []
            for a, b in pieces:
                if cover_e and cover_e[-1] == a:
                    cover_e[-1] = b
                else:
                    cover_s.append(a)
                    cover_e.append(b)
            starts[lo:lo] = cover_s
            ends[lo:lo] = cover_e
        elif hi == lo + 1 and len(pieces) == 1 and starts[lo] <= pieces[0][0] and pieces[0][1] <= ends[lo]:
            # one piece inside one interval: no gap, so nothing to draw or cover
            return [], old
        else:
            # one walk over those intervals and the pieces, in order of start,
            # collects the uncovered gaps and the new coverage
            gaps, cover_s, cover_e = [], [], []
            j, last_end = lo, -math.inf
            for a, b in pieces:
                # coverage before the piece; the last interval may reach into it
                while j < hi and starts[j] <= a:
                    s, last_end = starts[j], ends[j]
                    if cover_e and s <= cover_e[-1]:
                        if last_end > cover_e[-1]:
                            cover_e[-1] = last_end
                    else:
                        cover_s.append(s)
                        cover_e.append(last_end)
                    j += 1
                if cover_e and a <= cover_e[-1]:
                    if b > cover_e[-1]:
                        cover_e[-1] = b
                else:
                    cover_s.append(a)
                    cover_e.append(b)
                # coverage starting inside the piece cuts it into gaps and merges with it
                pos = max(a, last_end)
                while j < hi and starts[j] < b:
                    s, last_end = starts[j], ends[j]
                    if s > pos:
                        gaps.append((pos, s))
                    pos = max(pos, last_end)
                    if last_end > cover_e[-1]:
                        cover_e[-1] = last_end
                    j += 1
                if pos < b:
                    gaps.append((pos, b))
            # an interval abutting the last piece
            if j < hi:
                cover_e[-1] = ends[j]
            starts[lo:hi] = cover_s
            ends[lo:hi] = cover_e
        drawn = _poisson_on_sorted(rng, rate, gaps)
        if not drawn:
            return [], old
        marks = rng.uniforms(len(drawn))
        fresh: list[PointRecord] = []
        resampled = False
        for t, mark in zip(drawn, marks):
            if t in self._times_used:  # an exact collision: resample in its own gap
                # keyed by start: a request's own pieces may be lists
                a, b = gaps[bisect_right(gaps, t, key=itemgetter(0)) - 1]
                while t in self._times_used:
                    t = a + (b - a) * rng.uniform()
                resampled = True
            fresh.append(self._store_point(node, led, t, mark))
        if resampled:  # the draws come sorted; only a resampled time can break the order
            fresh.sort(key=lambda r: r.time)
        return fresh, old

    def register_empty(self, node: int, a: float, b: float) -> None:
        """Mark [a, b) as realized with no points beyond a possible one at ``a``.

        The public way to declare a stretch of a node's dominating process
        empty; ``advance`` covers the segments its proposal steps walk
        through itself, through ``_cover_gap``.
        """
        if a >= b:
            return
        led = self._node(node)
        self._cover_gap(node, led, bisect_right(led.starts, a) - 1, a, b)

    def add_proposal_point(self, node: int, t: float, mark: float) -> PointRecord:
        """Store a proposal point learned from an exponential step."""
        if self.record(node, t) is not None:
            raise LedgerError(f"point ({node}, {t}) already realized")
        return self._store_point(node, self._node(node), t, mark)

    def advance(
        self,
        node: int,
        cursor: float,
        limit: float,
        rate: float,
        rng: RandomStream,
    ) -> Optional[PointRecord]:
        """Next point of the dominating process strictly after ``cursor``.

        Walks forward through realized coverage, replaying stored points, and
        through the gaps with one exponential step: a new point draws its
        mark right after its step and is stored and returned, its gap covered
        up to it. A step overshooting the gap certifies it empty of stored
        points, and one overshooting ``limit`` certifies that up to ``limit``
        and returns ``None``.
        """
        led = self._nodes.get(node)
        if led is None or led.rate != rate:
            led = self._check_rate(node, rate)
        starts, ends, times = led.starts, led.ends, led.times
        used = self._times_used
        step, uniform = rng.exponential, rng.uniform
        pos = cursor
        while pos < limit:
            k = bisect_right(starts, pos) - 1
            if k >= 0 and pos < ends[k]:
                # inside realized coverage: replay stored points
                end = ends[k]
                lo = bisect_right(times, pos)
                if lo < len(times) and times[lo] < min(end, limit):
                    return led.records[lo]
                pos = end
                continue
            # in the gap after interval k. A stored point inside the gap is an
            # error, which _cover_gap raises before the step past it draws a mark
            gap_end = starts[k + 1] if k + 1 < len(starts) else math.inf
            end = min(gap_end, limit)
            cand = pos + step(rate)
            while cand in used:  # also keeps the new point's time unique
                cand = pos + step(rate)
            if cand < end:
                self._cover_gap(node, led, k, pos, cand)
                return self._store_point(node, led, cand, uniform())
            # the step overshot the gap or ``limit``: [pos, end) holds no stored point
            self._cover_gap(node, led, k, pos, end)
            pos = end
        return None

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for node, led in sorted(self._nodes.items()):
            out[str(node)] = {
                "rate": led.rate,
                "intervals": [[a, b] for a, b in zip(led.starts, led.ends)],
                "points": [
                    {"time": t, "decision": rec.decision, "generation": rec.generation}
                    for t, rec in zip(led.times, led.records)
                ],
            }
        return out

    def dump(self, path: str) -> None:
        with open_output(path) as fh:
            json.dump(self.to_json(), fh, indent=2)
