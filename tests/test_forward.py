import math
import statistics

import pytest

from kalisim import (
    AtomicWeights,
    Configuration,
    ExponentialKernel,
    LinearHawkesModel,
    NonMonotoneModelError,
    RandomStream,
    RefractoryGap,
)
from kalisim.forward import GUARD_EXIT, STEP_BUDGET, TIME_REACHED, forward_simulate

# the 4-node ring of linear Hawkes processes the benchmark's forward workload runs
RING = (0, 1, 2, 3)
MU, ALPHA_SELF, ALPHA_NB, BETA, EPS, T_MAX = 0.5, 0.3, 0.15, 1.0, 0.5, 10.0


def ring_kernels():
    n = len(RING)
    return {
        (j, i): ExponentialKernel(a, BETA)
        for i in RING
        for j, a in ((i, ALPHA_SELF), ((i - 1) % n, ALPHA_NB), ((i + 1) % n, ALPHA_NB))
    }


class CountingRing(LinearHawkesModel):
    """The ring, counting its ``local_bound`` calls."""

    def __init__(self, **kw):
        super().__init__(mu={i: MU for i in RING}, kernels=ring_kernels(), eps=EPS, **kw)
        self.bound_calls = 0

    def local_bound(self, i, x, t=0.0):
        self.bound_calls += 1
        return super().local_bound(i, x, t)


class HalfBoundRing(CountingRing):
    """Declares half the true bound, so the empty set's component exceeds it."""

    def local_bound(self, i, x, t=0.0):
        return 0.5 * super().local_bound(i, x, t)


def ring_closed_form_mean() -> float:
    """Mean total count on [0, T_MAX] from an empty past.

    Each node's mean intensity solves m' = beta*mu - r*m with m(0) = mu,
    where r = beta - (alpha_self + 2*alpha_nb).
    """
    drive = ALPHA_SELF + 2.0 * ALPHA_NB
    r = BETA - drive
    return len(RING) * (MU * BETA / r * T_MAX - MU * drive / r**2 * (1.0 - math.exp(-r * T_MAX)))


class TestBoundRefresh:
    def test_bounds_renewed_only_at_start_and_after_acceptances(self):
        m = CountingRing()
        run = forward_simulate(m, RING, T_MAX, 10_000, None, RandomStream(5))
        assert run.stop_reason == TIME_REACHED
        assert run.proposals > run.count()  # some proposals were rejected
        assert m.bound_calls == len(RING) * (run.count() + 1)

    def test_step_budget_skips_the_last_refresh(self):
        m = CountingRing()
        run = forward_simulate(m, RING, T_MAX, 5, None, RandomStream(6))
        assert run.stop_reason == STEP_BUDGET
        assert run.count() == 5
        assert m.bound_calls == len(RING) * 5


class TestStops:
    def test_bound_violation_raises(self):
        with pytest.raises(NonMonotoneModelError, match="exceeds the bound"):
            forward_simulate(HalfBoundRing(), RING, T_MAX, 10_000, None, RandomStream(1))

    def test_guard_exit_keeps_the_output_inside_the_guard(self):
        guard = RefractoryGap(3.0)
        run = forward_simulate(CountingRing(), RING, T_MAX, 10_000, guard, RandomStream(2))
        assert run.stop_reason == GUARD_EXIT
        assert run.guard_name == guard.name
        assert guard.check(run.accepted)
        assert run.tau < T_MAX

    def test_unbounded_refresh_exits_at_the_guard(self):
        # bin weights decay faster than the kernel (ratio 0.5 < exp(-0.5)), so
        # no finite bound exists once a point is accepted
        weights = {i: AtomicWeights(0.5, {i: 1.0}, {i: 0.5}) for i in RING}
        m = LinearHawkesModel(
            mu={i: MU for i in RING},
            kernels={(i, i): ExponentialKernel(1.0, 1.0) for i in RING},
            eps=EPS,
            weights=weights,
        )
        run = forward_simulate(m, RING, T_MAX, 10_000, None, RandomStream(3))
        assert run.stop_reason == GUARD_EXIT
        assert run.count() == 1
        (node,) = run.accepted.nodes()
        assert run.accepted.points(node) == (run.tau,)


class TestLaw:
    def test_ring_mean_count_matches_closed_form(self):
        m = CountingRing()
        base = RandomStream(2021)
        counts = []
        for r in range(100):
            run = forward_simulate(m, RING, T_MAX, 10_000, None, base.child(r))
            assert run.stop_reason == TIME_REACHED
            counts.append(run.count())
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / math.sqrt(len(counts))
        assert abs(mean - ring_closed_form_mean()) < 4.0 * se


def test_closed_form_value():
    assert ring_closed_form_mean() == pytest.approx(42.64, abs=0.005)


def test_local_bound_reads_absolute_times():
    m = CountingRing()
    pts = {0: (0.4, 1.7, 2.05), 1: (0.9,), 3: (2.2, 3.0)}
    t = 3.0
    rooted = Configuration({j: [s - t for s in ts] for j, ts in pts.items()})
    absolute = Configuration(pts)
    for i in RING:
        assert m.local_bound(i, absolute, t) == m.local_bound(i, rooted)
