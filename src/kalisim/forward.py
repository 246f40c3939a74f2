"""Forward simulation from empty past on a finite network.

Adaptive thinning driven by the decomposition. Each node's bound dominates
every component value of the node. The next proposal arrives at the total
bound rate and is assigned a node proportionally to the bounds, a
neighborhood is drawn from the node's weights, and the proposal is accepted
with component value over bound. Valid for unbounded intensities (linear or
exponential Hawkes) because the bounds adapt to the realized past.

Bounds are renewed only when the past changes, and only where it changed.
A node's bound is the largest of its terms. At the start each node has one
term, its whole ``local_bound``. A model that declares ``bound_sources``
splits the bound into per-source terms: the term keyed j is the bound
computed as if node j's points were the whole past, and the largest term is
the bound. After a point accepted on node a, only the terms keyed a are
renewed, on the nodes whose bound reads a; every other term is kept. A model
whose ``bound_sources`` is None keeps one whole-node term per node, renewed
on every node after every acceptance.

A kept term stays valid (Ogata's thinning argument, applied per term).
``local_bound`` dominates the component values at every later shift of the
past it was given. A term keyed j reads only j's past, which no rejection
changes and every acceptance on j renews, so it still bounds the part of
the bound that reads j. The whole-node term from the start still covers
every source no term has been renewed for. So the largest term dominates
every component value, and the piecewise constant rate between two
acceptances dominates the intensity throughout.

Costs. A proposal's component value is read from the accepted points
inside the drawn neighborhood only, shifted to the proposal time
(``Configuration.restrict_at``): ``delta`` is cylindrical on the expanded
neighborhood, so the rest of the past cannot change it, and a proposal costs
O(points in the drawn neighborhood) instead of O(history). What every
proposal until the next renewal shares (the total rate and the cumulative
bounds the node is picked from) is computed once per renewal. A
term costs O(points in its live window), plus O(log N) bins for N points of
its source: the per-source bound walks the source's bins from its newest
point and stops once no older bin can raise it
(``models.base.future_bin_bounds``). An acceptance copies the accepted
node's tuple of points, not the whole history.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .core import ActivityCap, Configuration, NodeId, SubspaceGuard
from .errors import ExplosionGuardError, NonMonotoneModelError
from .sampling import RandomStream

TIME_REACHED = "time-reached"
STEP_BUDGET = "step-budget"
GUARD_EXIT = "guard-exit"

# backstop against finite-time explosion even when no guard is requested
EXPLOSION_CAP = 1_000_000


@dataclass(frozen=True)
class ForwardRun:
    """Outcome of one forward simulation.

    ``bound_terms`` counts the ``local_bound`` calls: each node's whole bound
    at the start, then every term renewed after an acceptance.
    """

    accepted: Configuration
    stop_reason: str
    tau: float
    proposals: int
    t_max: float
    n_max: int
    guard_name: str
    bound_terms: int

    def count(self, node: Optional[NodeId] = None) -> int:
        if node is None:
            return self.accepted.n_points()
        return len(self.accepted.points(node))


def forward_simulate(
    model,
    nodes: Sequence[NodeId],
    t_max: float,
    n_max: int,
    guard: Optional[SubspaceGuard],
    rng: RandomStream,
) -> ForwardRun:
    """Simulate the process on ``nodes`` over [0, t_max] starting from empty past.

    ``n_max`` caps the number of accepted points; the run stops at t_max, at
    the budget, or when accepting a point would leave the guard subspace
    (that point is not included, so the output always satisfies the guard).
    The model must keep every component value below its local bound in the
    absence of new points; a violation detected at proposal time invalidates
    the run with a hard error.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    node_list = tuple(sorted(int(n) for n in nodes))
    if not node_list:
        raise ValueError("need at least one node")
    known = model.node_set()
    if known is None:
        raise ValueError("forward simulation runs on finite networks only")
    if not set(node_list) <= set(known):
        raise ValueError(f"nodes {set(node_list) - set(known)} are unknown to the model")

    guards: list[SubspaceGuard] = [ActivityCap(t_max, EXPLOSION_CAP)]
    if guard is not None:
        guards.insert(0, guard)
    guard_name = guards[0].name

    # accepted times of the nodes that have any, in node order; an acceptance
    # replaces the dict and the accepted node's tuple, never changes them
    points: dict[NodeId, tuple[float, ...]] = {}
    t = 0.0
    n_accepted = 0
    proposals = 0
    bound_terms = 0

    def finish(reason: str, tau: float) -> ForwardRun:
        hi = tau if reason != STEP_BUDGET else math.nextafter(tau, math.inf)
        return ForwardRun(
            accepted=Configuration._unsafe(points, window=(-math.inf, hi)),
            stop_reason=reason,
            tau=tau,
            proposals=proposals,
            t_max=t_max,
            n_max=n_max,
            guard_name=guard_name,
            bound_terms=bound_terms,
        )

    # (node index, term key) pairs to renew: every whole-node term at the
    # start, and after an acceptance on ``a`` the terms that read a's past
    sources = [model.bound_sources(i) for i in node_list]
    renewals = {
        a: [(k, None if src is None else a) for k, src in enumerate(sources) if src is None or a in src]
        for a in node_list
    }
    due = [(k, None) for k in range(len(node_list))]
    terms: list[dict[Optional[NodeId], float]] = [{} for _ in node_list]
    bounds = [0.0] * len(node_list)
    past = Configuration._unsafe(points, window=(-math.inf, 0.0))  # absolute times
    while True:
        if n_accepted >= n_max:
            return finish(STEP_BUDGET, t)
        if due:
            try:
                for k, key in due:
                    bound_terms += 1
                    terms[k][key] = model.local_bound(node_list[k], past, t, source=key)
                    bounds[k] = max(terms[k].values())
            except ExplosionGuardError:
                return finish(GUARD_EXIT, t)
            due = ()
            total = sum(bounds)
            if total <= 0.0:
                return finish(TIME_REACHED, t_max)
            # what every proposal until the next renewal reads: the cumulative
            # bounds a uniform is placed in, and the last positive bound for a
            # uniform rounded past them
            cumulative = list(accumulate(bounds))
            last = max(k for k, bd in enumerate(bounds) if bd > 0.0)

        t_cand = t + rng.exponential(total)
        if t_cand > t_max:
            return finish(TIME_REACHED, t_max)
        proposals += 1

        k = bisect_right(cumulative, rng.uniform() * total)
        if k == len(cumulative):
            k = last
        pick, pick_bound = node_list[k], bounds[k]

        desc = model.sample_neighborhood(pick, rng)
        value = model.component_value(pick, desc, past.restrict_at(model.expand(pick, desc), t_cand))
        if value > pick_bound * (1.0 + 1e-9):
            raise NonMonotoneModelError(
                f"component value {value:g} exceeds the bound {pick_bound:g} of node {pick}"
                f" at t={t_cand:g}; the model violates the monotone-bound assumption"
            )
        t = t_cand
        if rng.uniform() < value / pick_bound:
            grown = {**points, pick: points.get(pick, ()) + (t_cand,)}
            if len(grown) > len(points):  # the node's first point: keep node order
                grown = {j: grown[j] for j in node_list if j in grown}
            candidate = Configuration._unsafe(grown, window=(-math.inf, math.nextafter(t_cand, math.inf)))
            if not all(g.check(candidate) for g in guards):
                return finish(GUARD_EXIT, t_cand)
            n_accepted += 1
            points, past = grown, candidate
            due = renewals[pick]
