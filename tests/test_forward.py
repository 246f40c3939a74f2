import functools
import hashlib
import math
import statistics

import pytest
from scipy import stats

from kalisim import (
    EMPTY_ND,
    AffineRate,
    AnalyticHawkesModel,
    AtomicWeights,
    Configuration,
    ExplosionGuardError,
    ExponentialKernel,
    GLModel,
    LinearHawkesModel,
    NonMonotoneModelError,
    PsiSeries,
    RandomStream,
    RefractoryGap,
    StepKernel,
)
from kalisim.forward import GUARD_EXIT, NO_BOUND, STEP_BUDGET, TIME_REACHED, forward_simulate
from kalisim.oracles import ogata_hawkes
from kalisim.validation import exp_hawkes, hawkes_ring, ogata_parameters

# the 4-node ring of linear Hawkes processes the benchmark's forward workload runs
RING = (0, 1, 2, 3)
MU, ALPHA_SELF, ALPHA_NB, BETA, EPS, T_MAX = 0.5, 0.3, 0.15, 1.0, 0.5, 10.0


def ring_kernels():
    return hawkes_ring().kernels


class CountingRing(LinearHawkesModel):
    """The ring, recording its ``local_bound`` calls as (node, class) pairs."""

    def __init__(self, **kw):
        super().__init__(mu={i: MU for i in RING}, kernels=ring_kernels(), eps=EPS, **kw)
        self.bound_calls = []

    def local_bound(self, i, x, t=0.0, cls=None):
        self.bound_calls.append((i, cls))
        return super().local_bound(i, x, t, cls=cls)


class HalfBoundRing(CountingRing):
    """Declares half of every true bound, so the empty set's component exceeds it."""

    def local_bound(self, i, x, t=0.0, cls=None):
        return 0.5 * super().local_bound(i, x, t, cls=cls)


class OneClassModel(LinearHawkesModel):
    """A linear model thinned at each node's largest component bound: one
    class, the whole family, renewed when any source accepts."""

    def proposal_classes(self, i):
        return ((None, 1.0, frozenset(self._incoming[i])),)


class OneClassRing(OneClassModel, CountingRing):
    """The counting ring thinned at each node's largest component bound."""


def expected_bounds(run, renewed: int) -> list:
    """The start-up bound of every class, node by node (the empty set's, then
    each source's atoms), then for each of the first ``renewed`` accepted
    points, on node a, the class of a's atoms on every node that reads a."""
    calls = [(i, cls) for i in RING for cls in (EMPTY_ND, *sorted(j for k, j in ring_kernels() if k == i))]
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
        assert m.bound_calls == expected_bounds(run, run.count())
        assert len(m.bound_calls) == 4 * len(RING) + 3 * run.count() == run.bound_terms

    def test_step_budget_skips_the_last_refresh(self):
        m = CountingRing()
        run = forward_simulate(m, RING, T_MAX, 5, None, RandomStream(6))
        assert run.stop_reason == STEP_BUDGET
        assert run.count() == 5
        assert m.bound_calls == expected_bounds(run, 4)
        assert len(m.bound_calls) == 4 * len(RING) + 3 * 4 == run.bound_terms

    def test_whole_node_models_renew_every_node(self):
        class WholeRing(CountingRing):
            def proposal_classes(self, i):
                return ((None, 1.0, None),)

        m = WholeRing()
        run = forward_simulate(m, RING, T_MAX, 10_000, None, RandomStream(5))
        assert run.stop_reason == TIME_REACHED
        assert m.bound_calls == [(i, None) for i in RING] * (run.count() + 1)
        assert run.bound_terms == len(m.bound_calls)

    def test_one_class_renews_when_a_source_accepts(self):
        m = OneClassRing()
        run = forward_simulate(m, RING, T_MAX, 10_000, None, RandomStream(5))
        assert run.stop_reason == TIME_REACHED
        calls = [(i, None) for i in RING]
        for _, a in sorted((s, a) for a in RING for s in run.accepted.points(a)):
            calls += [(i, None) for i in RING if (i, a) in ring_kernels()]
        assert m.bound_calls == calls
        assert run.bound_terms == len(calls)


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
        assert run.stop_reason == NO_BOUND
        assert run.guard_name == "none"
        assert run.count() == 1
        (node,) = run.accepted.nodes()
        assert run.accepted.points(node) == (run.tau,)

    def test_live_source_without_atom_weight_exits_at_the_guard(self):
        # node 0 reads node 1 through a live kernel, but its atoms carry no
        # weight on node 1: node 1's first point leaves no finite bound
        m = LinearHawkesModel(
            mu={0: MU, 1: MU},
            kernels={(0, 0): ExponentialKernel(0.3, 1.0), (0, 1): ExponentialKernel(0.3, 1.0)},
            eps=EPS,
            weights={0: AtomicWeights(0.5, {0: 1.0}, {0: 0.8}), 1: AtomicWeights(1.0, {}, {})},
        )
        assert [key for key, _, _ in m.proposal_classes(0)] == [EMPTY_ND, 0, 1]
        run = forward_simulate(m, (0, 1), T_MAX, 10_000, None, RandomStream(3))
        assert run.stop_reason == NO_BOUND
        assert run.accepted.points(1) == (run.tau,)

    def test_gl_model_has_no_bound_after_its_first_eligible_point(self):
        # a point of node 1 drives node 0 at every later shift, with level
        # weights that vanish, so node 0's bound is gone once node 1 fires;
        # node 0's own points drive no node, so they leave every bound finite
        m = GLModel(AffineRate(0.5, 1.0), {(0, 1): 0.4}, {(0, 1): 2.0}, step=0.7, nodes=[0, 1])
        run = forward_simulate(m, (0, 1), T_MAX, 10_000, None, RandomStream(1))
        assert run.stop_reason == NO_BOUND
        assert run.guard_name == "none"
        assert run.accepted.points(1) == (run.tau,)
        assert len(run.accepted.points(0)) == 2


def step_pair(model_class=LinearHawkesModel) -> LinearHawkesModel:
    """Two nodes with compact step kernels on truncated weights whose shares,
    empty weights and bin ratios differ per node."""
    kernels = {
        (0, 0): StepKernel([0.0, 0.6, 1.3], [0.4, 0.2]),
        (0, 1): StepKernel([0.0, 1.0], [0.3]),
        (1, 0): StepKernel([0.0, 2.2], [0.25]),
        (1, 1): StepKernel([0.0, 0.6, 1.3], [0.3, 0.1]),
    }
    weights = {
        0: AtomicWeights(0.3, {0: 0.7, 1: 0.3}, {0: 0.8, 1: 0.9}, {0: 3, 1: 2}),
        1: AtomicWeights(0.6, {0: 0.2, 1: 0.8}, {0: 0.9, 1: 0.7}, {0: 5, 1: 3}),
    }
    return model_class(mu={0: 0.8, 1: 0.5}, kernels=kernels, eps=0.5, weights=weights)


def scaled_ring(rho: float, **kw) -> LinearHawkesModel:
    """The ring with kernel masses scaled to spectral radius ``rho``; at 0.6
    it is ``hawkes_ring()``."""
    kernels = {}
    for i in RING:
        for j, a in ((i, rho / 2), ((i - 1) % 4, rho / 4), ((i + 1) % 4, rho / 4)):
            kernels[(i, j)] = ExponentialKernel(a, BETA)
    return LinearHawkesModel(mu={i: MU for i in RING}, kernels=kernels, eps=EPS, **kw)


class TestLaw:
    def test_class_split_matches_one_class_thinning(self):
        # the same decomposition thinned per class and at the node's largest
        # bound: per-node and total counts agree in mean and in law
        t_max, runs = T_MAX, 300
        base = RandomStream(1707)
        counts = {}
        for arm, model in ((0, step_pair()), (1, step_pair(OneClassModel))):
            rows = []
            for r in range(runs):
                run = forward_simulate(model, (0, 1), t_max, 10_000, None, base.child(arm, r))
                assert run.stop_reason == TIME_REACHED
                rows.append((run.count(0), run.count(1), run.count()))
            counts[arm] = rows
        for col in range(3):
            a, b = [row[col] for row in counts[0]], [row[col] for row in counts[1]]
            se = math.hypot(statistics.stdev(a), statistics.stdev(b)) / math.sqrt(runs)
            assert abs(statistics.fmean(a) - statistics.fmean(b)) < 4.0 * se, col
        totals = [[row[2] for row in counts[arm]] for arm in (0, 1)]
        assert stats.ks_2samp(*totals).pvalue > 0.01

    def test_proposals_are_compensated_by_the_rate_integral(self):
        # the proposals form a point process of the total proposal rate, so
        # over [0, T] their count has the mean of the rate's integral
        base = RandomStream(1808)
        runs = [forward_simulate(hawkes_ring(), RING, T_MAX, 10_000, None, base.child(r)) for r in range(200)]
        diffs = [run.proposals - run.rate_integral for run in runs]
        assert all(run.rate_integral > 0.0 for run in runs)
        assert abs(statistics.fmean(diffs)) < 4.0 * statistics.stdev(diffs) / math.sqrt(len(diffs))

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
        assert_matches_the_oracle(hawkes_ring(), 5.0, 300, 2104)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exp_mean_counts_match_the_thinning_oracle(self, n):
        # the Taylor family's single class against Ogata's thinning of e^drive
        assert_matches_the_oracle(exp_hawkes(n), 2.0, 1000 // n, 2204 + n)

    def test_a_node_no_kernel_drives_fires_at_psi_zero(self):
        # node 1 reads no kernel, so its family is the empty set alone, at
        # psi(0) = 1; node 0 is an exponential Hawkes process on its own
        model = AnalyticHawkesModel(PsiSeries("exp"), {(0, 0): ExponentialKernel(0.2, 1.5)}, eps=0.5, nodes=[0, 1])
        t_max, runs = 2.0, 500
        counts = [row[1] for row in assert_matches_the_oracle(model, t_max, runs, 2304)]
        se = statistics.stdev(counts) / math.sqrt(runs)
        assert abs(statistics.fmean(counts) - t_max) < 4.0 * se


def assert_matches_the_oracle(model, t_max: float, runs: int, seed: int) -> list[list[int]]:
    """Per-node and total counts on [0, t_max], forward and by ``ogata_hawkes``,
    agree in mean within 4 SE, and the totals by a KS test. Returns the
    forward runs' per-node counts, each row ending with the total."""
    nodes = model.node_set()
    rates, alpha, beta = ogata_parameters(model)
    base = RandomStream(seed)
    fwd, ora = [], []
    for r in range(runs):
        run = forward_simulate(model, nodes, t_max, 10_000, None, base.child(0, r))
        assert run.stop_reason == TIME_REACHED
        fwd.append([run.count(i) for i in nodes] + [run.count()])
        events = ogata_hawkes(rates, alpha, beta, t_max, base.child(1, r))
        ora.append([len(ev) for ev in events] + [sum(map(len, events))])
    for col in range(len(nodes) + 1):
        a, b = [row[col] for row in fwd], [row[col] for row in ora]
        se = math.hypot(statistics.stdev(a), statistics.stdev(b)) / math.sqrt(runs)
        assert abs(statistics.fmean(a) - statistics.fmean(b)) < 4.0 * se, col
    assert stats.ks_2samp([row[-1] for row in fwd], [row[-1] for row in ora]).pvalue > 0.01
    return fwd


class TestOracle:
    def test_ring_mean_count_matches_closed_form(self):
        rates, alpha, beta = ogata_parameters(hawkes_ring())
        base = RandomStream(7)
        counts = [sum(map(len, ogata_hawkes(rates, alpha, beta, T_MAX, base.child(r)))) for r in range(400)]
        se = statistics.stdev(counts) / math.sqrt(len(counts))
        assert abs(statistics.fmean(counts) - ring_closed_form_mean()) < 4.0 * se

    def test_an_exploding_intensity_is_a_typed_error(self):
        with pytest.raises(ExplosionGuardError, match=r"overflow at t=0\.069\d* after 142 events"):
            ogata_hawkes([math.exp], [[5.0]], [[0.1]], 100.0, RandomStream(1))

    def test_parameters_follow_the_kernels(self):
        rates, alpha, beta = ogata_parameters(hawkes_ring())
        assert [rate(0.0) for rate in rates] == [MU] * 4 and rates[2](1.5) == MU + 1.5
        assert alpha[1] == [ALPHA_NB, ALPHA_SELF, ALPHA_NB, 0.0]
        assert beta[1] == [BETA] * 4
        rates, alpha, beta = ogata_parameters(exp_hawkes(2))
        assert rates == [math.exp] * 2
        assert alpha == [[0.1, 0.1], [0.1, 0.1]] and beta == [[1.5] * 2] * 2


def test_a_repeated_node_is_refused():
    # [0, 0, 1] would give node 0 two proposal slots, and twice its intensity
    with pytest.raises(ValueError, match=r"nodes \[0\] are listed more than once"):
        forward_simulate(hawkes_ring(2, 0.5), [0, 0, 1], 10.0, 10_000, None, RandomStream(7))


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_a_non_finite_horizon_is_refused(t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        forward_simulate(hawkes_ring(), RING, t_max, 1000, None, RandomStream(1))


def test_golden_ring_run():
    # recorded with per-class thinning (the empty set and each source's atoms)
    # and the neighborhood-restricted past
    run = forward_simulate(hawkes_ring(), RING, T_MAX, 10_000, None, RandomStream(2104))
    assert run.stop_reason == TIME_REACHED
    pts = sorted((s, i) for i in RING for s in run.accepted.points(i))
    assert (len(pts), run.proposals) == (49, 211)
    assert (pts[0], pts[-1]) == ((0.042852874415001976, 1), (9.911706523710912, 2))
    digest = hashlib.sha256(",".join(f"{i}:{s.hex()}" for s, i in pts).encode()).hexdigest()
    assert digest == "5ae2d6ab40ef969bb7478476548065fbcdac18e5cb4095bd027a539079d704c6"


def test_ring_proposals_skip_the_generic_route(monkeypatch):
    # the linear family reads a class's component straight from its source's
    # points: the golden ring run, with the generic proposal route refused
    want = forward_simulate(hawkes_ring(), RING, T_MAX, 10_000, None, RandomStream(2104))
    model = hawkes_ring()

    def refuse(*args, **kwargs):
        raise AssertionError("a proposal took the generic route")

    monkeypatch.setattr(Configuration, "restrict_at", refuse)
    monkeypatch.setattr(model, "expand", refuse)
    monkeypatch.setattr(model, "component_value", refuse)
    run = forward_simulate(model, RING, T_MAX, 10_000, None, RandomStream(2104))
    assert (run.accepted, run.proposals, run.rate_integral) == (want.accepted, want.proposals, want.rate_integral)
    assert run.proposals == 211


def test_each_source_walk_is_set_up_once(monkeypatch):
    # a class bound's per-source set-up (kernel decay against the bin ratio)
    # is kept: once per (node, source) pair over every run of one model
    model = hawkes_ring()
    calls = []
    decay_per = ExponentialKernel.decay_per

    def counting(kernel, step):
        calls.append(id(kernel))
        return decay_per(kernel, step)

    monkeypatch.setattr(ExponentialKernel, "decay_per", counting)
    runs = [forward_simulate(model, RING, T_MAX, 10_000, None, RandomStream(2104).child(r)) for r in range(3)]
    assert sum(run.bound_terms for run in runs) > 100
    assert len(calls) == len(set(calls)) <= len(model.kernels) == 12


@functools.lru_cache(maxsize=None)
def ring_proposals_per_point(model_name: str, rho: float, seed: int, runs: int) -> float:
    """Proposals per accepted point over ``runs`` fixed-seed ring runs on [0, T_MAX]."""
    if model_name == "default":
        model = scaled_ring(rho)
    else:
        # lambda(empty) and shares far from the default's 1/2 and uniform
        ratio = math.sqrt(math.exp(-BETA * EPS))
        model = scaled_ring(rho, weights={
            i: AtomicWeights(0.228, {i: 0.5, (i - 1) % 4: 0.25, (i + 1) % 4: 0.25}, dict.fromkeys(RING, ratio))
            for i in RING
        })
    base = RandomStream(seed)
    out = [forward_simulate(model, RING, T_MAX, 100_000, None, base.child(r)) for r in range(runs)]
    assert all(run.stop_reason == TIME_REACHED for run in out)
    return sum(run.proposals for run in out) / sum(run.count() for run in out)


def test_ring_proposals_per_point_stay_low():
    # the algorithmic cost of the ring's default decomposition: about 4.5 on
    # this seed block thinned per class, 13.3 thinned at each node's largest
    # component bound under lambda(empty) = 1/2 with uniform shares
    assert ring_proposals_per_point("default", 0.6, 1600, 50) < 9.0


def test_class_split_keeps_ring_proposals_below_six():
    assert ring_proposals_per_point("default", 0.6, 1600, 50) < 6.0


@pytest.mark.parametrize("weights", ["default", "skewed"])
def test_near_critical_ring_stays_cheap(weights):
    # spectral radius 0.995: a run from an empty past stays far below the
    # stationary rates, and the per-class rates do not depend on the weights
    assert ring_proposals_per_point(weights, 0.995, 77, 40) < 8.0


def test_golden_analytic_run():
    # two exp-rate nodes: every proposal reads the Taylor family's local_bound,
    # one class per node renewed after an acceptance on either node
    kernels = {(i, j): ExponentialKernel(0.2 if i == j else 0.1, 1.5) for i in (0, 1) for j in (0, 1)}
    model = AnalyticHawkesModel(PsiSeries("exp"), kernels, eps=0.5, nodes=[0, 1])
    run = forward_simulate(model, (0, 1), 5.0, 10_000, None, RandomStream(3))
    assert run.stop_reason == TIME_REACHED
    pts = sorted((s, i) for i in (0, 1) for s in run.accepted.points(i))
    assert (len(pts), run.proposals) == (13, 4272)
    assert (pts[0], pts[-1]) == ((0.011587733931588575, 0), (4.7240095536294975, 0))
    digest = hashlib.sha256(",".join(f"{i}:{s.hex()}" for s, i in pts).encode()).hexdigest()
    assert digest == "1fc60a81b47742ea09775d03e05ad1095ef1d9043493ad962afe5a62b63a0c6f"


def test_golden_one_node_analytic_run():
    # one exp-rate node, whose one class reads one source
    model = AnalyticHawkesModel(PsiSeries("exp"), {(0, 0): ExponentialKernel(0.3, 1.0)}, eps=0.5, nodes=[0])
    run = forward_simulate(model, [0], 5.0, 10_000, None, RandomStream(505))
    assert run.stop_reason == TIME_REACHED
    pts = run.accepted.points(0)
    assert (len(pts), run.proposals, run.bound_terms) == (8, 976, 9)
    assert (pts[0], pts[-1]) == (0.23696380030400438, 4.438133426997648)
    digest = hashlib.sha256(",".join(f"0:{s.hex()}" for s in pts).encode()).hexdigest()
    assert digest == "47e8597c868f60e6a3a76ecdc5705ed6c379372db9bbb094076759a54ee8d222"


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
