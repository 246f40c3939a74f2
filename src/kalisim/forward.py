"""Forward simulation from empty past on a finite network.

Adaptive thinning driven by the decomposition, per class (Ogata's thinning
applied to each class). The model splits node i's family into classes C
(``proposal_classes``) of weight lambda_i(C), each with a bound M_C that
dominates phi_v for every v in C at every later shift of the past. Proposals
arrive at the total rate sum_{i,C} lambda_i(C) * M_C and pick (i, C) in
proportion to those rates; v is drawn from lambda_i( . | C) and accepted with
phi_v / M_C. So class C accepts at rate sum_{v in C} lambda_i(v) * phi_v =
sum_{v in C} delta_v, and node i at its intensity, unbounded or not: the
bounds adapt to the realized past.

The split sets the cost. A node's rate never exceeds its largest M_C, the
rate of thinning the whole family at once, and a node with one class of
weight 1 runs exactly those draws. The linear model's classes are the empty
set and each source's atoms; lambda(empty) and the shares cancel out of
their rates (``LinearHawkesModel``).

Bounds are renewed only when the past changes, and only where it changed.
A class's bound is one ``local_bound`` call, renewed after a point accepted
on a node in the class's ``sources``: None renews it after every acceptance,
and the empty set never. A kept bound stays valid: it dominates at every
later shift of the past it was given, and its class reads only its sources'
past, which no rejection changes and every acceptance on them renews. So the
piecewise constant rate between two acceptances dominates the intensity;
``ForwardRun.rate_integral`` is its integral, the proposals' compensator.

Costs. A proposal is one model call, ``sample_component``: it draws v from
the picked class and reads the accepted points inside v only, shifted to the
proposal time, since ``delta`` is cylindrical: O(points in the neighborhood),
not O(history). The linear family does it with one bin draw, one bin weight
and a kernel sum over the source's points in the bin; other families take
the generic route through ``Configuration.restrict_at``. The rates the class
is picked from are summed once per renewal. A bound costs O(points in its
live window) plus O(log N) bins for N points of each source it reads: it
walks the source's bins from the newest point and stops once no older bin
can raise it (``models.atomic``), and each source's walk is
set up once per model. An acceptance copies the accepted node's tuple of
points, not the whole history.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .core import Configuration, NodeId, SubspaceGuard
from .errors import ExplosionGuardError, NonMonotoneModelError
from .sampling import RandomStream

TIME_REACHED = "time-reached"
STEP_BUDGET = "step-budget"
GUARD_EXIT = "guard-exit"
NO_BOUND = "no-bound"


@dataclass(frozen=True)
class ForwardRun:
    """Outcome of one forward simulation.

    ``bound_terms`` counts the ``local_bound`` calls: every class's bound at
    the start, then each class renewed after an acceptance.
    ``rate_integral`` is the integral of the total proposal rate over
    [0, tau], so ``proposals`` has that mean over runs.
    """

    accepted: Configuration
    stop_reason: str
    tau: float
    proposals: int
    guard_name: str
    bound_terms: int
    rate_integral: float

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
    the budget, when accepting a point would leave the guard subspace (that
    point is not included, so the output always satisfies the guard), or with
    ``NO_BOUND`` when the model has no finite bound for the past it reached.
    The model must keep every component value below its local bound in the
    absence of new points; a violation detected at proposal time invalidates
    the run with a hard error.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    node_list = tuple(sorted(int(n) for n in nodes))
    if not node_list:
        raise ValueError("need at least one node")
    repeated = sorted({j for j, k in zip(node_list, node_list[1:]) if j == k})
    if repeated:
        raise ValueError(f"nodes {repeated} are listed more than once")
    known = model.node_set()
    if known is None:
        raise ValueError("forward simulation runs on finite networks only")
    if not set(node_list) <= set(known):
        raise ValueError(f"nodes {set(node_list) - set(known)} are unknown to the model")

    guard_name = "none" if guard is None else guard.name

    # accepted times of the nodes that have any, in node order; an acceptance
    # replaces the dict and the accepted node's tuple, never changes them
    points: dict[NodeId, tuple[float, ...]] = {}
    t = 0.0
    n_accepted = 0
    proposals = 0
    bound_terms = 0
    total = 0.0  # the total proposal rate since the time ``since``
    since = 0.0
    rate_integral = 0.0  # of the total rate over [0, since]

    def finish(reason: str, tau: float) -> ForwardRun:
        return ForwardRun(
            accepted=Configuration._unsafe(points),
            stop_reason=reason,
            tau=tau,
            proposals=proposals,
            guard_name=guard_name,
            bound_terms=bound_terms,
            rate_integral=rate_integral + total * (tau - since),
        )

    # one (node, class key, weight, sources) slot per class, in node order;
    # the slots to renew: all at the start, and after an acceptance on ``a``
    # those whose sources hold a
    slots = [(i, *cls) for i in node_list for cls in model.proposal_classes(i)]
    renewals = {a: [k for k, (*_, src) in enumerate(slots) if src is None or a in src] for a in node_list}
    due = range(len(slots))
    bounds, rates = [0.0] * len(slots), [0.0] * len(slots)
    past = Configuration._unsafe(points)  # absolute times
    while True:
        if n_accepted >= n_max:
            return finish(STEP_BUDGET, t)
        if due:
            try:
                for k in due:
                    bound_terms += 1
                    node, cls, weight, _ = slots[k]
                    bounds[k] = model.local_bound(node, past, t, cls=cls)
                    rates[k] = weight * bounds[k]
            except ExplosionGuardError:
                return finish(NO_BOUND, t)
            due = ()
            rate_integral += total * (t - since)
            since = t
            total = sum(rates)
            if total <= 0.0:
                return finish(TIME_REACHED, t_max)
            # what every proposal until the next renewal reads: the cumulative
            # rates a uniform is placed in, and the last positive rate for a
            # uniform rounded past them
            cumulative = list(accumulate(rates))
            last = next(k for k in reversed(range(len(rates))) if rates[k] > 0.0)

        t_cand = t + rng.exponential(total)
        if t_cand > t_max:
            return finish(TIME_REACHED, t_max)
        proposals += 1

        k = bisect_right(cumulative, rng.uniform() * total)
        if k == len(cumulative):
            k = last
        (pick, cls, _, _), pick_bound = slots[k], bounds[k]

        value = model.sample_component(pick, cls, rng, past, t_cand)
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
            candidate = Configuration._unsafe(grown)
            if guard is not None and not guard.check(candidate):
                return finish(GUARD_EXIT, t_cand)
            n_accepted += 1
            points, past = grown, candidate
            due = renewals[pick]
