"""Proposal-class bounds and the neighborhood-restricted past the forward
simulator reads."""

import math
import random
from bisect import bisect_right
from itertools import accumulate

import pytest

from kalisim import (
    EMPTY_ND,
    AffineRate,
    AgeHawkesModel,
    AnalyticHawkesModel,
    AtomND,
    AtomicWeights,
    Configuration,
    ExplosionGuardError,
    ExponentialKernel,
    GLModel,
    LinearHawkesModel,
    Neighborhood,
    PsiSeries,
    RandomStream,
    StepKernel,
    TableEntry,
    TableModel,
    TaylorND,
    TaylorWeights,
    shift_to_origin,
)
from kalisim.forward import TIME_REACHED, forward_simulate
from kalisim.models import atomic
from kalisim.models.atomic import future_bin_bounds
from kalisim.validation import hawkes_ring


def full_walk_bins(ker, pts, t, eps, nmax, falls):
    """Reference: ``(n, B_n)`` for every bin with B_n > 0, with the ages' kernel
    prefix sums built newest first. The walk covers every bin up to one past
    the oldest point's when the ratios fall from there (``falls``), else to
    the compact support's end, and never past ``nmax``."""
    ages = [t - s for s in reversed(pts[: bisect_right(pts, t)])]
    if not ages:
        return
    prefix = list(accumulate(map(ker, ages), initial=0.0))
    if falls:
        n_stop = int(ages[-1] / eps) + 2
    elif nmax is None:
        n_stop = int(ker.support_end / eps) + 2
    else:
        n_stop = nmax
    if nmax is not None:
        n_stop = min(n_stop, nmax)
    for n in range(1, n_stop + 1):
        # bin n holds ages in ((n-1)*eps, n*eps], as the atom's shifted times
        lo_edge = (n - 1) * eps
        k_lo = bisect_right(ages, lo_edge)
        k_hi = bisect_right(ages, n * eps)
        bound_n = (prefix[k_hi] - prefix[k_lo]) + k_lo * ker(lo_edge)
        if bound_n > 0.0:
            yield n, bound_n


def full_walk_bound(i, incoming, atoms, x, t, eps, source=None, tables=None):
    """Reference for ``atom_bound``: the largest B_n / lambda(w_{j,n})
    over every bin of every source, with no early stop and no kept tables."""
    best = 0.0
    for j, ker in incoming.items():
        if source is not None and j != source:
            continue
        pts = x.points(j)
        if not pts or ker.is_zero():
            continue
        share = (1.0 - atoms.p_empty) * atoms.shares[j]
        falls = math.isinf(ker.support_end) and ker.decay_per(eps) < atoms.ratios[j]
        for n, bound_n in full_walk_bins(ker, pts, t, eps, atoms.trunc[j], falls):
            best = max(best, bound_n / (share * atoms._bin_pmf(j, n)))
    return best


def analytic_triangle() -> AnalyticHawkesModel:
    kernels = {(i, j): ExponentialKernel(0.1 if i == j else 0.05, 1.5) for i in range(3) for j in range(3)}
    del kernels[(0, 2)]
    return AnalyticHawkesModel(PsiSeries("exp"), kernels, eps=0.5, nodes=[0, 1, 2])


def random_past(rng: random.Random, nodes, t: float, eps: float) -> Configuration:
    """Points before ``t``, some placed exactly on bin edges seen from ``t``."""
    pts = {}
    for j in nodes:
        ts = {rng.uniform(0.0, t) for _ in range(rng.randrange(0, 6))}
        ts |= {t - n * eps for n in rng.sample(range(1, 12), rng.randrange(0, 3)) if t - n * eps >= 0.0}
        pts[j] = sorted(ts)
    # distinct times across nodes, as a realized path has
    seen = set()
    for j in nodes:
        pts[j] = [s for s in pts[j] if not (s in seen or seen.add(s))]
    return Configuration(pts)


SPLIT_MODELS = [pytest.param(hawkes_ring, id="linear"), pytest.param(analytic_triangle, id="analytic")]


def before_last_point(x: Configuration, j, t: float) -> tuple[Configuration, float]:
    """Node ``j``'s past before ``t`` alone, and the time of its last point."""
    pts = x.points(j)[: bisect_right(x.points(j), t)]
    return Configuration({j: pts}), pts[-1]


class TestClassBounds:
    @pytest.mark.parametrize("make", SPLIT_MODELS)
    def test_bound_reads_only_its_sources(self, make):
        # a kept bound stays valid while nodes outside its sources accept
        m = make()
        rng = random.Random(12)
        for _ in range(40):
            t = rng.uniform(0.5, 8.0)
            x = random_past(rng, m.node_set(), t, m.eps)
            y = random_past(rng, m.node_set(), t, m.eps)
            for i in m.node_set():
                for key, _, sources in m.proposal_classes(i):
                    theirs = {s for k in y.nodes() if k not in sources for s in y.points(k)}
                    if any(set(x.points(j)) & theirs for j in sources):
                        continue  # mixing the two would collide
                    mixed = {k: y.points(k) for k in y.nodes() if k not in sources}
                    mixed = Configuration({**mixed, **{j: x.points(j) for j in sources}})
                    assert m.local_bound(i, mixed, t, cls=key) == m.local_bound(i, x, t, cls=key)

    @pytest.mark.parametrize("make", SPLIT_MODELS)
    def test_bound_is_at_most_the_largest_source_bound(self, make):
        # every bin bound B_n at a later shift is at most its value at the
        # source's last point, so a bound renewed on one source's point never
        # exceeds the largest of the bounds each source alone gave when it last
        # accepted
        m = make()
        rng = random.Random(11)
        for _ in range(60):
            t = rng.uniform(0.5, 8.0)
            x = random_past(rng, m.node_set(), t, m.eps)
            for i in m.node_set():
                alone = [m.local_bound(i, Configuration.empty())]
                alone += [m.local_bound(i, *before_last_point(x, j, t)) for j in x.nodes() if x.points(j)]
                assert m.local_bound(i, x, t) <= max(alone) * (1.0 + 1e-12)

    def test_sources_are_the_kernel_sources(self):
        ring = hawkes_ring()
        fam = ring.weights[0]
        assert ring.proposal_classes(0) == (
            (EMPTY_ND, fam.p_empty, frozenset()),
            *((j, (1.0 - fam.p_empty) * fam.shares[j], frozenset({j})) for j in (0, 1, 3)),
        )
        assert analytic_triangle().proposal_classes(0) == ((None, 1.0, frozenset({0, 1})),)

    def test_whole_node_models_declare_no_sources(self):
        assert TableModel.constant_rate(1.0).proposal_classes(0) == ((None, 1.0, None),)


def linear_mixed() -> LinearHawkesModel:
    """Step kernels, on untruncated and truncated weights, beside exponential ones."""
    kernels = {
        (0, 0): StepKernel([0.0, 0.6, 1.3], [0.4, 0.2]),
        (0, 1): ExponentialKernel(0.3, 1.0),
        (1, 0): ExponentialKernel(0.2, 2.0),
        (1, 1): StepKernel([0.0, 2.2], [0.3]),
    }
    weights = {
        0: AtomicWeights(0.5, {0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.8}),
        1: AtomicWeights(0.4, {0: 0.3, 1: 0.7}, {0: 0.6, 1: 0.9}, {1: 5}),
    }
    return LinearHawkesModel(mu={0: 0.5, 1: 0.3}, kernels=kernels, eps=0.5, weights=weights)


def analytic_truncated() -> AnalyticHawkesModel:
    """Truncated weights on step kernels whose supports the truncations
    cover, so each walk runs to its truncation: the kernels fall in steps
    while the weights decay by 0.5 or 0.7 a bin, and the ratios rise."""
    kernels = {
        (i, j): StepKernel([0.0, 3.0, 12.0], [0.2, 0.05]) if j == 0 else StepKernel([0.0, 1.0, 14.5], [0.1, 0.02])
        for i in (0, 1)
        for j in (0, 1)
    }
    atoms = AtomicWeights(0.0, {0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.7}, {0: 40, 1: 30})
    weights = {i: TaylorWeights(0.5, atoms) for i in (0, 1)}
    return AnalyticHawkesModel(PsiSeries("poly", [1.0, 1.0, 0.5]), kernels, eps=0.5, nodes=[0, 1], weights=weights)


LINEAR_MODELS = [pytest.param(hawkes_ring, id="ring"), pytest.param(linear_mixed, id="step")]


def shifted_members(m, i, key, x, t, n_bins):
    """(descriptor, component value) of the class keyed ``key`` over the
    first ``n_bins`` bins, at a few later shifts of the past before ``t``."""
    members = [EMPTY_ND] if key is EMPTY_ND else [AtomND(key, n) for n in range(1, n_bins + 1)]
    for shift in (0.0, 0.05, 0.21, 0.5, 1.3, 2.7, 6.1):
        rooted = shift_to_origin(x, t + shift)
        for desc in members:
            yield desc, m.component_value(i, desc, rooted)


class TestProposalClasses:
    @pytest.mark.parametrize("make", LINEAR_MODELS)
    def test_class_bound_dominates_its_components_at_later_shifts(self, make):
        m = make()
        rng = random.Random(21)
        for _ in range(30):
            t = rng.uniform(0.5, 8.0)
            x = random_past(rng, m.node_set(), t, m.eps)
            for i in m.node_set():
                for key, _, _ in m.proposal_classes(i):
                    bound = m.local_bound(i, x, t, cls=key)
                    for desc, value in shifted_members(m, i, key, x, t, 30):
                        assert value <= bound * (1.0 + 1e-9), (i, key, desc)

    @pytest.mark.parametrize("make", LINEAR_MODELS)
    def test_class_weights_are_their_members_weights(self, make):
        m = make()
        for i in m.node_set():
            classes = m.proposal_classes(i)
            fam = m.weights[i]
            assert math.fsum(w for _, w, _ in classes) == pytest.approx(1.0, abs=1e-12)
            for key, weight, _ in classes:
                if key is EMPTY_ND:
                    assert weight == fam.p_empty
                else:
                    assert weight == pytest.approx(math.fsum(fam.pmf(AtomND(key, n)) for n in range(1, 400)), abs=1e-12)

    def test_class_draws_follow_the_conditional_weights(self):
        m = linear_mixed()
        draws = RandomStream(8)
        fam = m.weights[1]
        assert m.sample_neighborhood(1, draws, cls=EMPTY_ND) is EMPTY_ND
        n = 20_000
        got = [m.sample_neighborhood(1, draws, cls=1) for _ in range(n)]
        assert {d.j for d in got} == {1} and max(d.n for d in got) == 5
        for b in range(1, 6):
            p = m.pmf(1, AtomND(1, b)) / ((1.0 - fam.p_empty) * fam.shares[1])
            assert abs(sum(d.n == b for d in got) / n - p) < 4.0 * math.sqrt(p * (1.0 - p) / n), b


def crowded_past(rng: random.Random, nodes, t: float, eps: float) -> Configuration:
    """``random_past`` plus 500-700 points older than 5 on one node, with every
    bin edge from the 12th on among them."""
    x = random_past(rng, nodes, t, eps)
    pts = {j: set(x.points(j)) for j in nodes}
    j = rng.choice(nodes)
    crowd = {rng.uniform(0.0, t - 5.0) for _ in range(rng.randrange(500, 700))}
    crowd |= {t - n * eps for n in range(12, int(t / eps))}
    pts[j] |= crowd - {s for k in nodes if k != j for s in pts[k]}
    return Configuration({k: sorted(ts) for k, ts in pts.items()})


def bound_or_error(m, i, x, t, cls):
    try:
        return m.local_bound(i, x, t, cls=cls)
    except ExplosionGuardError as err:
        return type(err)


class CountingKernel(ExponentialKernel):
    """An exponential kernel that counts its evaluations."""

    __slots__ = ("calls",)

    def __init__(self, alpha: float, beta: float):
        super().__init__(alpha, beta)
        self.calls = 0

    def __call__(self, t: float) -> float:
        self.calls += 1
        return super().__call__(t)


class TestCappedWalk:
    """The bin walk stops early, yet every bound is the float the walk over
    every bin gives."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(hawkes_ring, id="linear"),
            pytest.param(linear_mixed, id="linear-step"),
            pytest.param(analytic_triangle, id="analytic"),
            pytest.param(analytic_truncated, id="analytic-truncated"),
        ],
    )
    def test_capped_bound_is_the_full_walk(self, make, monkeypatch):
        m = make()
        rng = random.Random(31)
        cases = []
        for trial in range(16):
            t = rng.uniform(30.0, 80.0)
            x = (crowded_past if trial % 2 else random_past)(rng, m.node_set(), t, m.eps)
            for i in m.node_set():
                for key in {None, *(key for key, _, _ in m.proposal_classes(i))}:
                    cases.append((i, x, t, key, bound_or_error(m, i, x, t, key)))
        assert max(x.n_points() for _, x, *_ in cases) >= 500

        def full_walk(model, i, atoms, x, t, source=None):
            return full_walk_bound(i, model._incoming[i], atoms, x, t, model.eps, source)

        monkeypatch.setattr(atomic.AtomicHawkesModel, "atom_bound", full_walk)
        for i, x, t, key, capped in cases:
            assert bound_or_error(m, i, x, t, key) == capped

    def test_cost_flat_in_history(self):
        # one recent point and n_old points aged 40-100: the walk stops within
        # O(log n_old) bins of the recent point and never reads an old point,
        # while the full walk evaluates the kernel n_old + 200 times
        calls = {}
        for n_old in (500, 2000, 4000):
            ker = CountingKernel(0.3, 1.0)
            m = LinearHawkesModel(mu={0: 0.5}, kernels={(0, 0): ker}, eps=0.5)
            rng = random.Random(41)
            x = Configuration({0: sorted({100.0 - rng.uniform(40.0, 100.0) for _ in range(n_old)} | {99.7})})
            ker.calls = 0
            bound = m.local_bound(0, x, 100.0)
            calls[n_old] = ker.calls
            assert bound == max(1.0, full_walk_bound(0, {0: ker}, m.weights[0], x, 100.0, m.eps))
        assert max(calls.values()) <= 48, calls

    def test_rounding_allowance_is_needed(self):
        # 3000 kernel values just above half an ulp of a prefix sum of 1.0 each
        # round the sum up by a whole ulp, so the computed B_37 comes to 4/3 of
        # count * h_37: a stop at count * h_n / w_n, without the allowance for
        # the unread points' rounding, would end the walk at bin 37 and miss it
        beta = (53 * math.log(2.0) - math.log(1.5)) / 36.0  # h(36) = 1.5 * 2**-53
        ker = ExponentialKernel(1.0, beta)
        t = 100.0
        pts = sorted([t - 36.05 - 0.25 * i / 3000 for i in range(3000)] + [t])

        def weight(n):
            return 0.45 ** (n - 1)  # slower than the kernel's exp(-beta) ~ 0.36

        envelope = len(pts) * ker(36.0) / weight(37)
        best = 1.15 * envelope  # what the sources read before reached
        full = max(best, *(b / weight(n) for n, b in full_walk_bins(ker, pts, t, 1.0, None, True)))
        assert full > 1.3 * envelope
        assert future_bin_bounds(ker, pts, t, 1.0, None, weight, best, True) == full

    def test_truncated_bound_dominates_where_the_ratios_rise(self):
        # bin weights that decay faster than the kernel, truncated at bin 6
        # where its support ends, with a recent past: the ratios rise up to
        # the truncation, past the oldest point's bin, and the bound must
        # cover every order there
        atoms = AtomicWeights(0.0, {0: 1.0}, {0: 0.5}, {0: 6})
        m = AnalyticHawkesModel(
            PsiSeries("poly", [1.0, 1.0, 0.5]),
            {(0, 0): StepKernel([0.0, 1.0, 3.0], [0.2, 0.15])},
            eps=0.5,
            nodes=[0],
            weights={0: TaylorWeights(0.5, atoms)},
        )
        rng = random.Random(17)
        pasts = [[-0.1]] + [sorted(rng.uniform(-4.0, -1e-9) for _ in range(rng.randrange(1, 6))) for _ in range(20)]
        descs = [TaylorND(())] + [TaylorND(((0, n),)) for n in range(1, 7)]
        descs += [TaylorND(((0, a), (0, b))) for a in range(1, 7) for b in range(1, 7)]
        for pts in pasts:
            bound = m.local_bound(0, Configuration({0: pts}))
            for shift in [0.05 * k for k in range(80)]:
                shifted = Configuration({0: [s - shift for s in pts]})
                for desc in descs:
                    assert m.component_value(0, desc, shifted) <= bound * (1.0 + 1e-9), (pts, shift, desc)
        run = forward_simulate(m, [0], 5.0, 10_000, None, RandomStream(4))
        assert run.stop_reason == TIME_REACHED and run.count() > 0


class TestAnalyticOrderSearch:
    def test_cosh_bound_covers_orders_after_a_zero_derivative(self):
        # where B*/kappa lies in (sqrt 2, 2) the order-2 bound exceeds the
        # order-0 one although the order-1 bound is 0, since psi'(0) = 0
        m = AnalyticHawkesModel(PsiSeries("cosh"), {(0, 0): ExponentialKernel(0.2, 1.0)}, eps=0.5, nodes=[0])
        for k in range(60):
            age = 0.01 + 0.1 * k
            bound = m.local_bound(0, Configuration({0: [-age]}))
            for shift in (0.0, 0.25, 0.5, 1.0, 2.0):
                y = Configuration({0: [-age - shift]})
                n = int((age + shift) / m.eps) + 1
                for order in (1, 2, 3, 4):
                    # the forward simulator's rounding allowance
                    assert m.component_value(0, TaylorND(((0, n),) * order), y) <= bound * (1.0 + 1e-9)

    def test_exp_bound_is_the_largest_order(self):
        m = AnalyticHawkesModel(PsiSeries("exp"), {(0, 0): ExponentialKernel(1.0, 1.0)}, eps=0.5, nodes=[0])
        pts = (-0.3, -0.2, -0.1)
        atoms, kappa = m.weights[0].atoms, m.weights[0].order_ratio
        bins = full_walk_bins(m.kernels[(0, 0)], pts, 0.0, m.eps, None, True)
        b_star = max(bound_n / atoms.bin_weight(0, n) for n, bound_n in bins)
        term, best = 1.0, 1.0 / (1.0 - kappa)
        for k in range(1, 200):
            term *= b_star / kappa / k
            best = max(best, term / (1.0 - kappa))
        assert m.local_bound(0, Configuration({0: pts})) == best


def gl_pair() -> GLModel:
    return GLModel(AffineRate(0.5, 1.0), {(0, 1): 0.4, (1, 0): 0.3}, {(0, 1): 2.0, (1, 0): 1.0}, step=0.7, nodes=[0, 1])


def age_pair() -> AgeHawkesModel:
    return AgeHawkesModel(
        psi=AffineRate(0.5, 0.5),
        kernels={(0, 0): ExponentialKernel(0.8, 2.0), (0, 1): StepKernel([0.0, 0.6, 1.3], [0.4, 0.2]), (1, 0): ExponentialKernel(0.5, 1.0)},
        refractory=0.4,
        nodes=[0, 1],
    )


def table_pair() -> TableModel:
    def reader(x):
        return sum(abs(s) for _, ts in x.items() for s in ts)

    rows = [
        TableEntry(0.25, Neighborhood.empty(), 1.0, 0.5),
        TableEntry(0.25, Neighborhood([(0, -1.0, -0.3)]), 50.0, reader),
        TableEntry(0.5, Neighborhood([(0, -2.5, -2.0), (1, -2.0, 0.0)]), 50.0, reader),
    ]
    return TableModel({0: rows, 1: [TableEntry(1.0, Neighborhood([(0, -0.5, 0.0)]), 50.0, reader)]})


FAMILIES = [
    pytest.param(hawkes_ring, 0.5, id="linear"),
    pytest.param(analytic_triangle, 0.5, id="analytic"),
    pytest.param(gl_pair, 0.7, id="gl"),
    pytest.param(age_pair, 0.4, id="age"),
    pytest.param(table_pair, 0.5, id="table"),
]


@pytest.mark.parametrize("make, eps", FAMILIES)
def test_component_value_reads_only_the_neighborhood(make, eps):
    m = make()
    rng = random.Random(13)
    draws = RandomStream(13)
    for _ in range(60):
        t = rng.uniform(0.5, 8.0)
        x = random_past(rng, m.node_set(), t, eps)
        rooted = shift_to_origin(x, t)
        for i in m.node_set():
            for _ in range(5):
                desc = m.sample_neighborhood(i, draws)
                restricted = x.restrict_at(m.expand(i, desc), t)
                assert m.component_value(i, desc, restricted) == m.component_value(i, desc, rooted)
