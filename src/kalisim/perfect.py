"""Perfect simulation: backward clan construction, forward acceptance sweep.

The stationary sample of one node on a finite window is produced root by
root: propose the next dominating-process point by an exponential step, build
the clan of every realized point that can influence its decision by walking
backward through randomly drawn neighborhoods, then decide all undecided
points forward in time order. One region ledger spans the whole run, so no
space-time region is ever simulated twice and overlapping clans share their
realizations exactly. A point's neighborhood is realized whole when the point
is expanded and cannot gain points afterwards, so the expansion stores the
points it returns on the record as its children; the forward pass reads
those instead of the ledger. Every clan is decided before the next root is
proposed, so a clan consists of its root and the points it simulates: the
realized points it finds were decided by earlier clans.

Most roots realize no fresh point, so their clan is the root alone, and most
points keep no accepted child, so they are decided on the empty past. The
sweep therefore expands each undecided root itself and decides a root that
realized nothing fresh on the spot, with no clan object; only a root that
simulated points goes through ``backward_clan`` and ``forward_accept``. Both
routes expand a point with ``_expand`` and decide it with ``_decide``, and
the model keeps each (node, descriptor)'s value on the empty past after its
first evaluation (``KalikowModel.empty_past_value``). Neither changes a draw
or a float. Each node's dominating rate Gamma_i is read once per model,
through ``KalikowModel.require_bound``, which also refuses a node without
one.

A point with drawn neighborhood v is accepted when its uniform mark is below
phi_v(x)/Gamma, so a model must bound every component value by Gamma, and
every root is stored and expanded. A model whose weights are its components'
sups, as the lattice preset's atoms and the nested levels' Lipschitz rungs
bar-Gamma_k are, leaves no mark that rejects a point whatever its past: such
points would be an independent thinning of a larger dominating process (the
marking theorem), which is never drawn.

Each expanded point makes one ledger request per node of its drawn
neighborhood, so the decomposition sets the cost of a root: its nodes per
drawn neighborhood times the mean clan, which E(W) bounds (1.52 and 1.029 on
the lattice preset's atoms, 2.92 and 1.142 on its diagonal nested levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .core import Configuration, NodeId, _merge_pieces
from .errors import BudgetExhausted, KalisimError, LedgerError, NonMonotoneModelError
from .sampling import PointRecord, RandomStream, RegionLedger


@dataclass(frozen=True)
class BackwardBudget:
    """Caps on the backward construction.

    Subcritical families terminate almost surely, so the caps only guard
    misconfigured (supercritical) models; exhaustion raises, never truncates
    silently.
    """

    max_generations: int = 10_000
    max_points: int = 1_000_000

    def __post_init__(self):
        if self.max_generations < 1 or self.max_points < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = BackwardBudget()


@dataclass
class PerfectRunStats:
    """Per-run accounting of the backward/forward machinery: every root
    proposed, every root accepted, and each root's clan size and lookback."""

    roots: int = 0
    accepted: int = 0
    clan_sizes: list[int] = field(default_factory=list)
    lookbacks: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        hist: dict[int, int] = {}
        for s in self.clan_sizes:
            hist[s] = hist.get(s, 0) + 1
        return {
            "roots": self.roots,
            "accepted": self.accepted,
            "clan_size_histogram": {str(k): v for k, v in sorted(hist.items())},
            "mean_clan_size": (sum(self.clan_sizes) / len(self.clan_sizes)) if self.clan_sizes else None,
            "max_lookback": max(self.lookbacks, default=0.0),
            "mean_lookback": (sum(self.lookbacks) / len(self.lookbacks)) if self.lookbacks else None,
        }


@dataclass
class AncestorGraph:
    """Clan of ancestors of one root proposal.

    ``pending`` holds the root and the points the clan simulated, in
    increasing time order, ending with the root, once the clan terminated;
    the realized points the clan found were decided by earlier clans. A clan
    that exceeds its budget carries the points simulated so far, in the order
    they were simulated after the root. ``lookback`` is how far before the
    root the backward steps looked (0 if nowhere).
    """

    root_record: PointRecord
    pending: list[PointRecord] = field(default_factory=list)
    lookback: float = 0.0
    terminated: bool = False

    def clan_size(self) -> int:
        """Total points including the ancestor."""
        return len(self.pending)


_by_time = attrgetter("time", "node")


def _expand(model, rec: PointRecord, ledger: RegionLedger, rng: RandomStream) -> tuple[list[PointRecord], float]:
    """Expand ``rec`` and return the points it simulated and ``first``.

    Draws the point's neighborhood (once, stored on the record), realizes
    the dominating process on the never-visited part of each node's pieces
    shifted to the point's time, and stores every realized point of the
    neighborhood on the record as its children, grouped by node, fresh
    before found. ``first`` is the earliest piece start (inf for an empty
    neighborhood), so the expansion looks back to ``first + rec.time``.
    """
    if rec.neighborhood is None:
        rec.neighborhood = model.sample_neighborhood(rec.node, rng)
    # each piece [a, b) of the neighborhood is requested at the point's time s
    s = rec.time
    realize, bound = ledger.realize_new, model.require_bound
    new: list[PointRecord] = []
    children: list[PointRecord] = []
    first = math.inf
    for j, pieces in model.expand(rec.node, rec.neighborhood).by_node():
        if pieces[0][0] < first:  # pieces are sorted
            first = pieces[0][0]
        fresh, found = realize(j, [(a + s, b + s) for a, b in pieces], bound(j), rng)
        if fresh:
            new += fresh
            children += fresh
        if found:
            children += found
    rec.children = children
    return new, first


def _decide(rec: PointRecord, model, gam: float) -> None:
    """Set the decision of the expanded point ``rec`` on node rate ``gam``.

    The point is accepted when its mark is below phi_v(x)/gam, where x holds
    its accepted children; with none it reads the model's empty-past value.
    """
    children = rec.children
    if children is None:
        raise LedgerError(
            f"undecided point {rec!r} was never expanded; the ledger carries state"
            " from an aborted run"
        )
    kept: dict[NodeId, list[float]] = {}
    for child in children:
        if child.decision is None:
            raise LedgerError(
                f"undecided point {child!r} found by {rec!r} is foreign to this clan;"
                " the ledger carries state from an aborted or undecided clan"
            )
        if child.decision:
            kept.setdefault(child.node, []).append(child.time - rec.time)
    if kept:
        # a node's children are its fresh points, then the ones found
        x = Configuration._unsafe({j: tuple(sorted(ts)) for j, ts in kept.items()})
        value = model.component_value(rec.node, rec.neighborhood, x)
    else:
        value = model.empty_past_value(rec.node, rec.neighborhood)
    prob = value / gam
    if prob > 1.0 + 1e-9:
        raise NonMonotoneModelError(
            f"component value {value:g} exceeds the dominating bound {gam:g}"
            f" for {rec!r}; the model's declared bounds are wrong"
        )
    rec.decision = rec.mark < prob


def backward_clan(
    model,
    i: NodeId,
    t: float,
    ledger: RegionLedger,
    rng: RandomStream,
    budget: BackwardBudget = DEFAULT_BUDGET,
    root_record: Optional[PointRecord] = None,
    _root_expansion: Optional[tuple[list[PointRecord], float]] = None,
) -> AncestorGraph:
    """Build the clan of ancestors of the proposal (i, t).

    The root is ``root_record``, which must be undecided, or else a new
    proposal point stored at (i, t). Every point to expand draws its
    neighborhood (once, stored on the record), the dominating Poisson process
    is realized on the never-visited part of the shifted neighborhood at the
    node's global bound, and freshly simulated points form the next
    generation. Construction stops at the first empty generation. Realized
    points found along the way were decided by earlier clans; they become
    children of the point that found them and are not traversed.

    Every expansion is ``_expand``'s. The root is expanded first, on its
    own: if it realizes no fresh point, its clan is the root alone.
    Otherwise its fresh points are generation 1, and each later generation
    is expanded in time order. The perfect sweep decides a root alone
    itself; it hands a root that simulated points here already expanded,
    with ``_root_expansion`` holding what ``_expand`` returned for it.
    """
    root = root_record if root_record is not None else ledger.add_proposal_point(i, t, mark=rng.uniform())
    if root.decision is not None:
        raise LedgerError(f"root {root!r} is already decided")
    root.generation = 0

    graph = AncestorGraph(root_record=root, pending=[root])
    pending = graph.pending
    frontier, first = _root_expansion if _root_expansion is not None else _expand(model, root, ledger, rng)
    # a piece [a, b) is requested at the point's time s, and a + s rounds
    # monotonically in a, so t - (first + s) is the largest t - (a + s) of
    # every piece; an empty neighborhood looks nowhere (t - inf)
    graph.lookback = max(graph.lookback, t - (first + root.time))
    if not frontier:
        graph.terminated = True
        return graph

    # the root and at most max_points simulated points
    cap = budget.max_points + 1

    def adopt(fresh: list[PointRecord], gen: int) -> list[PointRecord]:
        # the batch that passes the cap raises as soon as it is simulated, and
        # the clan carries all of it: the ledger holds no point outside the graph
        for child in fresh:
            child.generation = gen
        pending.extend(fresh)
        if len(pending) > cap:
            raise BudgetExhausted(
                f"backward construction exceeded {budget.max_points} points",
                graph=graph,
            )
        return fresh

    adopt(frontier, 1)
    gen = 1
    while frontier:
        if gen + 1 > budget.max_generations:
            raise BudgetExhausted(
                f"backward construction exceeded {budget.max_generations} generations"
                " (supercritical weights or too small a budget)",
                graph=graph,
            )
        if len(frontier) > 1:
            frontier.sort(key=_by_time)
        next_frontier: list[PointRecord] = []
        for rec in frontier:
            new, first = _expand(model, rec, ledger, rng)
            graph.lookback = max(graph.lookback, t - (first + rec.time))
            next_frontier += adopt(new, gen + 1)
        gen += 1
        frontier = next_frontier

    graph.terminated = True
    pending.sort(key=_by_time)
    return graph


def forward_accept(graph: AncestorGraph, model, ledger: RegionLedger) -> AncestorGraph:
    """Decide every pending point of the clan in increasing time order.

    A point is accepted with probability phi_v(x)/Gamma, where v is its drawn
    neighborhood and x its accepted children, the points of v that the
    backward pass stored on it; the uniform mark attached to the point at
    creation carries the decision. Children are strictly earlier in time, so
    a child the clan simulated is decided before its parent, and a child it
    found was decided by an earlier clan; an undecided child is foreign, left
    by an aborted or undecided clan, and raises ``LedgerError``. The root,
    being latest, is decided last. A point that keeps no accepted child is
    decided on the empty past, whose value the model keeps per (node,
    descriptor) (``empty_past_value``). A value above Gamma raises
    ``NonMonotoneModelError`` at every point, memoized or not: the model's
    declared bounds are wrong. The ledger is not read: every pending point
    was expanded, so its children are on its record. Each point is decided
    by ``_decide``, which the perfect sweep also calls for a root alone.
    """
    if not graph.terminated:
        raise KalisimError("cannot run the forward pass on a non-terminated clan")
    bound = model.require_bound
    for rec in graph.pending:
        _decide(rec, model, bound(rec.node))
    return graph


def _node_sweep(
    model,
    node: NodeId,
    start: float,
    limit: float,
    ledger: RegionLedger,
    draws: RandomStream,
    budget: BackwardBudget,
    out: list[float],
    stats: Optional[PerfectRunStats] = None,
) -> None:
    gam = model.require_bound(node)
    advance = ledger.advance
    cursor = start
    while (rec := advance(node, cursor, limit, gam, draws)) is not None:
        t = cursor = rec.time
        if rec.decision is None:
            rec.generation = 0  # as backward_clan marks its root
            fresh, first = _expand(model, rec, ledger, draws)
            if fresh:
                graph = backward_clan(
                    model, node, t, ledger, draws, budget, root_record=rec, _root_expansion=(fresh, first)
                )
                forward_accept(graph, model, ledger)
                size, lookback = graph.clan_size(), graph.lookback
            else:
                # the root alone is its clan: backward_clan would look back
                # max(0.0, t - (first + t)) and decide it by itself
                _decide(rec, model, gam)
                size, lookback = 1, max(0.0, t - (first + t))
            if stats is not None:
                stats.clan_sizes.append(size)
                stats.lookbacks.append(lookback)
        if stats is not None:
            stats.roots += 1
            stats.accepted += rec.decision
        if rec.decision:
            out.append(rec.time)


def perfect_sample(
    model,
    i: NodeId,
    t_max: float,
    rng: RandomStream,
    budget: BackwardBudget = DEFAULT_BUDGET,
    ledger: Optional[RegionLedger] = None,
    stats: Optional[PerfectRunStats] = None,
) -> Configuration:
    """Stationary sample of node ``i`` on [0, t_max].

    Iterates: propose the next dominating point by an exponential step at the
    node's global bound, run the backward and forward procedures, emit the
    root if accepted; one ledger is shared across all iterations.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    return perfect_sample_window(model, [(i, (0.0, t_max))], rng, budget, ledger, stats)


def perfect_sample_window(
    model,
    targets: Iterable[tuple[NodeId, Sequence[float]]],
    rng: RandomStream,
    budget: BackwardBudget = DEFAULT_BUDGET,
    ledger: Optional[RegionLedger] = None,
    stats: Optional[PerfectRunStats] = None,
) -> Configuration:
    """Stationary sample on a finite union of per-node windows.

    Sweeps every requested (node, [a, b)) in sorted order on one stream,
    sharing one ledger so overlapping clans are simulated only on new parts;
    :func:`perfect_sample` is the single-window case. ``ledger`` and
    ``stats`` mean what they mean there, summed over the windows.
    """
    normalized: dict[NodeId, list[tuple[float, float]]] = {}
    for node, interval in targets:
        a, b = float(interval[0]), float(interval[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"window [{a}, {b}) for node {node} is not finite")
        if not a < b:
            raise ValueError(f"empty window [{a}, {b}) for node {node}")
        normalized.setdefault(int(node), []).append((a, b))
    merged = {j: _merge_pieces(iv) for j, iv in normalized.items()}

    led = ledger if ledger is not None else RegionLedger()
    draws = rng.child(0)
    collected: dict[NodeId, list[float]] = {}
    for node in sorted(merged):
        for a, b in merged[node]:
            _node_sweep(model, node, a, b, led, draws, budget, collected.setdefault(node, []), stats=stats)
    points = {j: tuple(sorted(ts)) for j, ts in collected.items() if ts}
    return Configuration._unsafe(points)
