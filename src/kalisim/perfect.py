"""Perfect simulation: backward clan construction, forward acceptance sweep.

The stationary sample of one node on a finite window is produced root by
root: propose the next dominating-process point by an exponential step, build
the clan of every realized point that can influence its decision by walking
backward through randomly drawn neighborhoods, then decide all undecided
points forward in time order. One region ledger spans the whole run, so no
space-time region is ever simulated twice and overlapping clans share their
realizations exactly.

A point with drawn neighborhood v is accepted when its uniform mark is below
phi_v(x)/Gamma. When the model bounds phi_v by ``component_sup`` and the mark
already lies at or above that bound over Gamma, no past can accept the point:
it is rejected as soon as v is drawn, realizes no region and has no children.
The mark is independent of v and of x, so the law is unchanged; a region left
unrealized is realized later, once, by whichever point needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .core import Configuration, NodeId, _merge_pieces
from .errors import BudgetExhausted, KalisimError, LedgerError, NonMonotoneModelError, NonSummableError
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
    """Per-run accounting of the backward/forward machinery.

    ``mark_decided`` counts the roots and clan members rejected from their
    marks alone; a root decided that way counts as a clan of 1.
    """

    roots: int = 0
    accepted: int = 0
    mark_decided: int = 0
    clan_sizes: list[int] = field(default_factory=list)
    lookbacks: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        hist: dict[int, int] = {}
        for s in self.clan_sizes:
            hist[s] = hist.get(s, 0) + 1
        return {
            "roots": self.roots,
            "accepted": self.accepted,
            "mark_decided": self.mark_decided,
            "clan_size_histogram": {str(k): v for k, v in sorted(hist.items())},
            "mean_clan_size": (sum(self.clan_sizes) / len(self.clan_sizes)) if self.clan_sizes else None,
            "max_lookback": max(self.lookbacks, default=0.0),
            "mean_lookback": (sum(self.lookbacks) / len(self.lookbacks)) if self.lookbacks else None,
        }


@dataclass
class AncestorGraph:
    """Clan of ancestors of one root proposal.

    ``pending`` holds the points the clan simulated and the previously
    realized but still undecided points it rediscovered, in increasing time
    order, ending with the root. ``lookback`` is how far before the root the
    backward steps looked (0 if nowhere). ``mark_decided`` counts the members
    rejected from their marks alone.
    """

    root: tuple[NodeId, float]
    root_record: PointRecord
    pending: list[PointRecord] = field(default_factory=list)
    lookback: float = 0.0
    terminated: bool = False
    new_point_count: int = 0
    mark_decided: int = 0

    def clan_size(self) -> int:
        """Total points including the ancestor."""
        return 1 + self.new_point_count


def _anchored(model, rec: PointRecord) -> Iterator[tuple[NodeId, list[tuple[float, float]]]]:
    """Yield ``(node, pieces)`` of an expanded record's neighborhood anchored
    at its time: each piece [a, b) becomes [a + t, b + t). The one place a
    neighborhood is put at a point's time, for both the backward and the
    forward pass."""
    t = rec.time
    nb = model.expand(rec.node, rec.neighborhood)
    for j in nb.nodes():
        yield j, [(a + t, b + t) for a, b in nb.intervals(j)]


def _children(ledger: RegionLedger, model, rec: PointRecord) -> list[PointRecord]:
    """Realized points inside an expanded record's anchored neighborhood,
    piece by piece (no simulation). The one read of a neighborhood's points,
    for both the backward and the forward pass."""
    out = []
    for j, region in _anchored(model, rec):
        for a, b in region:
            out.extend(ledger.points_in(j, a, b))
    return out


def _decided_by_mark(model, rec: PointRecord, rng: RandomStream) -> bool:
    """Draw the record's neighborhood if it has none; reject the record when
    its mark alone decides it, and say whether it did.

    ``sup / gam`` uses the float operations of ``forward_accept``'s
    ``value / gam``, so whenever value <= sup the two comparisons agree.
    """
    if rec.neighborhood is None:
        rec.neighborhood = model.sample_neighborhood(rec.node, rng)
    sup = model.component_sup(rec.node, rec.neighborhood)
    if sup is None or rec.mark < sup / model.global_bound(rec.node):
        return False
    rec.decision = False
    return True


def backward_clan(
    model,
    i: NodeId,
    t: float,
    ledger: RegionLedger,
    rng: RandomStream,
    budget: BackwardBudget = DEFAULT_BUDGET,
    root_record: Optional[PointRecord] = None,
) -> AncestorGraph:
    """Build the clan of ancestors of the proposal (i, t).

    Every point to expand draws its neighborhood (once, stored on the record),
    the dominating Poisson process is realized on the never-visited part of
    the shifted neighborhood at the node's global bound, and freshly simulated
    points form the next generation. Construction stops at the first empty
    generation. Previously realized undecided points rediscovered along the
    way are traversed without simulation and queued for the forward pass.
    A point whose mark alone rejects it (see the module docstring) is decided
    when its neighborhood is drawn and is not expanded.
    """
    root = root_record if root_record is not None else ledger.record(i, t)
    if root is None:
        root = ledger.add_proposal_point(i, t, mark=rng.uniform())
    if root.generation is None:
        root.generation = 0

    graph = AncestorGraph(root=(i, t), root_record=root)

    seen: set[int] = {id(root)}
    pending: list[PointRecord] = [] if root.decision is not None else [root]
    old_stack: list[PointRecord] = []

    def expand(rec: PointRecord) -> tuple[list[PointRecord], list[PointRecord]]:
        if _decided_by_mark(model, rec, rng):
            graph.mark_decided += 1
            return [], []
        new: list[PointRecord] = []
        old: list[PointRecord] = []
        for j, region in _anchored(model, rec):
            gam = model.global_bound(j)
            if gam is None:
                raise NonSummableError(
                    f"{type(model).__name__} has no global bound for node {j}; "
                    "backward simulation needs the bounded regime"
                )
            fresh, found = ledger.realize_new(j, region, gam, rng)
            new.extend(fresh)
            old.extend(found)
            # pieces are sorted, so the first starts earliest
            graph.lookback = max(graph.lookback, t - region[0][0])
        return new, old

    def traverse_old(rec: PointRecord) -> None:
        # already-realized, still-undecided point: its neighborhood was fully
        # realized when it was first expanded, so only a read is needed
        if rec.neighborhood is None:
            raise LedgerError(
                f"undecided point {rec!r} was never expanded; the ledger carries state"
                " from an aborted run"
            )
        pending.append(rec)
        for child in _children(ledger, model, rec):
            if child.decision is None and id(child) not in seen:
                seen.add(id(child))
                old_stack.append(child)

    frontier = [root]
    gen = 0
    while frontier:
        if gen + 1 > budget.max_generations:
            raise BudgetExhausted(
                f"backward construction exceeded {budget.max_generations} generations"
                " (supercritical weights or too small a budget)",
                graph=graph,
            )
        next_frontier: list[PointRecord] = []
        for rec in sorted(frontier, key=lambda r: (r.time, r.node)):
            new, old = expand(rec)
            for child in new:
                child.generation = gen + 1
                seen.add(id(child))
                next_frontier.append(child)
                pending.append(child)
                graph.new_point_count += 1
                if graph.new_point_count > budget.max_points:
                    raise BudgetExhausted(
                        f"backward construction exceeded {budget.max_points} points",
                        graph=graph,
                    )
            for found in old:
                if found.decision is None and id(found) not in seen:
                    seen.add(id(found))
                    old_stack.append(found)
        while old_stack:
            traverse_old(old_stack.pop())
        gen += 1
        frontier = next_frontier

    graph.terminated = True
    graph.pending = sorted(pending, key=lambda r: (r.time, r.node))
    return graph


def forward_accept(graph: AncestorGraph, model, ledger: RegionLedger) -> AncestorGraph:
    """Decide every pending point of the clan in increasing time order.

    A point is accepted with probability phi_v(x)/Gamma, where v is its drawn
    neighborhood and x the already-accepted points inside v (children are
    strictly earlier in time, so they are always decided first); the uniform
    mark attached to the point at creation carries the decision. The root,
    being latest, is decided last. Points already decided from their marks
    are skipped. A value above Gamma, or above the model's ``component_sup``,
    raises ``NonMonotoneModelError``: the backward pass trusted that bound.
    """
    if not graph.terminated:
        raise KalisimError("cannot run the forward pass on a non-terminated clan")
    for rec in graph.pending:
        if rec.decision is not None:
            continue
        kept: dict[NodeId, list[float]] = {}
        for child in _children(ledger, model, rec):
            if child.decision is None:
                raise KalisimError(
                    f"undecided dependency {child!r} while deciding {rec!r};"
                    " forward order violated"
                )
            if child.decision:
                kept.setdefault(child.node, []).append(child.time - rec.time)
        x = Configuration._unsafe({j: tuple(sorted(ts)) for j, ts in kept.items()}, window=None)
        gam = model.global_bound(rec.node)
        value = model.component_value(rec.node, rec.neighborhood, x)
        prob = value / gam
        if prob > 1.0 + 1e-9:
            raise NonMonotoneModelError(
                f"component value {value:g} exceeds the dominating bound {gam:g}"
                f" for {rec!r}; the model's declared bounds are wrong"
            )
        sup = model.component_sup(rec.node, rec.neighborhood)
        if sup is not None and value > sup * (1.0 + 1e-9):
            raise NonMonotoneModelError(
                f"component value {value:g} exceeds the declared supremum {sup:g}"
                f" for {rec!r}; the model's component_sup is wrong"
            )
        rec.decision = rec.mark < prob
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
    gam = model.global_bound(node)
    if gam is None:
        raise NonSummableError(
            f"{type(model).__name__} has no global bound for node {node}; "
            "perfect simulation needs the bounded regime"
        )
    cursor = start
    while True:
        rec = ledger.advance(node, cursor, limit, gam, draws)
        if rec is None:
            return
        cursor = rec.time
        if rec.decision is None:
            # a root its mark decides needs no clan, so none is built
            if _decided_by_mark(model, rec, draws):
                if stats is not None:
                    stats.mark_decided += 1
                    stats.clan_sizes.append(1)
                    stats.lookbacks.append(0.0)
            else:
                graph = backward_clan(model, node, rec.time, ledger, draws, budget, root_record=rec)
                forward_accept(graph, model, ledger)
                if stats is not None:
                    stats.mark_decided += graph.mark_decided
                    stats.clan_sizes.append(graph.clan_size())
                    stats.lookbacks.append(graph.lookback)
        if stats is not None:
            stats.roots += 1
        if rec.decision:
            if stats is not None:
                stats.accepted += 1
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
    out = perfect_sample_window(model, [(i, (0.0, t_max))], rng, budget, ledger, stats)
    out.window = (0.0, t_max)
    return out


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
    return Configuration._unsafe(points, window=None)
