import hashlib
import math
import statistics

import pytest

from kalisim import (
    AnalyticHawkesModel,
    AtomicWeights,
    Configuration,
    ExponentialKernel,
    LinearHawkesModel,
    NonMonotoneModelError,
    PsiSeries,
    RandomStream,
    RefractoryGap,
)
from kalisim.forward import GUARD_EXIT, STEP_BUDGET, TIME_REACHED, forward_simulate
from kalisim.oracles import ogata_linear_hawkes, ogata_multivariate_linear_hawkes
from kalisim.validation import hawkes_ring, ogata_parameters

# the 4-node ring of linear Hawkes processes the benchmark's forward workload runs
RING = (0, 1, 2, 3)
MU, ALPHA_SELF, ALPHA_NB, BETA, EPS, T_MAX = 0.5, 0.3, 0.15, 1.0, 0.5, 10.0


def ring_kernels():
    return hawkes_ring().kernels


class CountingRing(LinearHawkesModel):
    """The ring, recording its ``local_bound`` calls as (node, source) pairs."""

    def __init__(self, **kw):
        super().__init__(mu={i: MU for i in RING}, kernels=ring_kernels(), eps=EPS, **kw)
        self.bound_calls = []

    def local_bound(self, i, x, t=0.0, source=None):
        self.bound_calls.append((i, source))
        return super().local_bound(i, x, t, source=source)


class HalfBoundRing(CountingRing):
    """Declares half of every true term, so the empty set's component exceeds it."""

    def local_bound(self, i, x, t=0.0, source=None):
        return 0.5 * super().local_bound(i, x, t, source=source)


def expected_terms(run, renewed: int) -> list:
    """The whole-node term of every node at the start, then for each of the
    first ``renewed`` accepted points, on node a, the terms keyed a of the
    nodes that read a."""
    calls = [(i, None) for i in RING]
    accepted = sorted((s, a) for a in RING for s in run.accepted.points(a))
    for _, a in accepted[:renewed]:
        calls += [(i, a) for i in RING if (i, a) in ring_kernels()]
    return calls


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
        assert m.bound_calls == expected_terms(run, run.count())
        assert len(m.bound_calls) == len(RING) + 3 * run.count() == run.bound_terms

    def test_step_budget_skips_the_last_refresh(self):
        m = CountingRing()
        run = forward_simulate(m, RING, T_MAX, 5, None, RandomStream(6))
        assert run.stop_reason == STEP_BUDGET
        assert run.count() == 5
        assert m.bound_calls == expected_terms(run, 4)
        assert len(m.bound_calls) == len(RING) + 3 * 4 == run.bound_terms

    def test_whole_node_models_renew_every_node(self):
        class WholeRing(CountingRing):
            def bound_sources(self, i):
                return None

        m = WholeRing()
        run = forward_simulate(m, RING, T_MAX, 10_000, None, RandomStream(5))
        assert run.stop_reason == TIME_REACHED
        assert m.bound_calls == [(i, None) for i in RING] * (run.count() + 1)
        assert run.bound_terms == len(m.bound_calls)


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

    def test_ring_mean_counts_match_the_thinning_oracle(self):
        # per node and in total, forward simulation against the multivariate
        # Ogata oracle, which shares no code with the decomposition
        m = hawkes_ring()
        mu, alpha, beta = ogata_parameters(m)
        t_max, runs = 5.0, 300
        base = RandomStream(2104)
        fwd, ora = [], []
        for r in range(runs):
            run = forward_simulate(m, RING, t_max, 10_000, None, base.child(0, r))
            fwd.append([run.count(i) for i in RING] + [run.count()])
            events = ogata_multivariate_linear_hawkes(mu, alpha, beta, t_max, base.child(1, r))
            ora.append([len(ev) for ev in events] + [sum(map(len, events))])
        for col in range(len(RING) + 1):
            a, b = [row[col] for row in fwd], [row[col] for row in ora]
            se = math.hypot(statistics.stdev(a), statistics.stdev(b)) / math.sqrt(runs)
            assert abs(statistics.fmean(a) - statistics.fmean(b)) < 4.0 * se


class TestOracle:
    def test_one_node_is_the_single_node_oracle(self):
        for seed in range(20):
            single = ogata_linear_hawkes(1.0, 0.5, 1.0, 5.0, RandomStream(seed))
            multi = ogata_multivariate_linear_hawkes([1.0], [[0.5]], [[1.0]], 5.0, RandomStream(seed))
            assert multi == [single]

    def test_ring_mean_count_matches_closed_form(self):
        mu, alpha, beta = ogata_parameters(hawkes_ring())
        base = RandomStream(7)
        counts = [
            sum(map(len, ogata_multivariate_linear_hawkes(mu, alpha, beta, T_MAX, base.child(r))))
            for r in range(400)
        ]
        se = statistics.stdev(counts) / math.sqrt(len(counts))
        assert abs(statistics.fmean(counts) - ring_closed_form_mean()) < 4.0 * se

    def test_parameters_follow_the_kernels(self):
        mu, alpha, beta = ogata_parameters(hawkes_ring())
        assert mu == [MU] * 4
        assert alpha[1] == [ALPHA_NB, ALPHA_SELF, ALPHA_NB, 0.0]
        assert beta[1] == [BETA] * 4


def test_golden_ring_run():
    # recorded with per-source bound terms and the neighborhood-restricted past
    run = forward_simulate(hawkes_ring(), RING, T_MAX, 10_000, None, RandomStream(2104))
    assert run.stop_reason == TIME_REACHED
    pts = sorted((s, i) for i in RING for s in run.accepted.points(i))
    assert (len(pts), run.proposals) == (58, 625)
    assert (pts[0], pts[-1]) == ((0.4302724767254979, 2), (9.962197326291957, 3))
    digest = hashlib.sha256(",".join(f"{i}:{s.hex()}" for s, i in pts).encode()).hexdigest()
    assert digest == "0b24d1ca095e4971784c39c2bda18d19fbbef94e76228d6e9eff2d08ae3fd0cc"


def test_golden_analytic_run():
    # two exp-rate nodes: every proposal reads the Taylor family's local_bound
    kernels = {(i, j): ExponentialKernel(0.2 if i == j else 0.1, 1.5) for i in (0, 1) for j in (0, 1)}
    model = AnalyticHawkesModel(PsiSeries("exp"), kernels, eps=0.5, nodes=[0, 1])
    run = forward_simulate(model, (0, 1), 5.0, 10_000, None, RandomStream(3))
    assert run.stop_reason == TIME_REACHED
    pts = sorted((s, i) for i in (0, 1) for s in run.accepted.points(i))
    assert (len(pts), run.proposals) == (14, 2518)
    assert (pts[0], pts[-1]) == ((0.011587733931588575, 0), (4.9667855581540055, 1))
    digest = hashlib.sha256(",".join(f"{i}:{s.hex()}" for s, i in pts).encode()).hexdigest()
    assert digest == "dc0dbc052c32cbef4d6f264452c71b06644c9fcfa87a1e7b2e4b121a18ef605c"


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
