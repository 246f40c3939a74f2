import math
import random

import numpy as np
import pytest

from kalisim import (
    AffineRate,
    AtomND,
    AtomicWeights,
    Configuration,
    EMPTY_ND,
    EmptyND,
    ExplosionGuardError,
    ExponentialKernel,
    GLModel,
    KalikowModel,
    LinearHawkesModel,
    Neighborhood,
    RandomStream,
    StepKernel,
    TableEntry,
    TableModel,
    lattice_preset,
    shift_to_origin,
)
from kalisim.forward import TIME_REACHED, forward_simulate
from kalisim.validation import bounded_age_model, exp_hawkes, hawkes_ring


def one_node(mu=1.0, alpha=1.0, beta=1.0, eps=0.5, **kw):
    return LinearHawkesModel(
        mu={1: mu}, kernels={(1, 1): ExponentialKernel(alpha, beta)}, eps=eps, **kw
    )


class TestDelta:
    def test_single_point_bin_integral(self):
        m = one_node()
        x = Configuration({1: [-0.3]})
        assert m.delta(1, AtomND(1, 1), x) == pytest.approx(math.exp(-0.3))

    def test_empty_bin(self):
        m = one_node()
        x = Configuration({1: [-0.3]})
        assert m.delta(1, AtomND(1, 2), x) == 0.0

    def test_empty_set_is_mu(self):
        m = one_node(mu=0.7)
        assert m.delta(1, EMPTY_ND, Configuration.empty()) == 0.7

    def test_multiple_points_sum(self):
        m = one_node()
        x = Configuration({1: [-0.45, -0.1]})
        expect = math.exp(-0.45) + math.exp(-0.1)
        assert m.delta(1, AtomND(1, 1), x) == pytest.approx(expect)


class TestIntensity:
    def test_empty_past(self):
        m = one_node(mu=0.7)
        assert m.intensity(1, Configuration.empty()) == 0.7

    def test_sums_kernel_values(self):
        m = one_node(mu=0.5)
        x = Configuration({1: [-2.0, -0.3]})
        assert m.intensity(1, x) == pytest.approx(0.5 + math.exp(-2.0) + math.exp(-0.3))


def gl_pair():
    return GLModel(AffineRate(0.5, 1.0), {(0, 1): 0.4, (1, 0): 0.3}, {(0, 1): 0.6, (1, 0): 1.0}, step=0.7, nodes=[0, 1])


def table_reader_pair():
    """Two nodes whose rows read their neighborhood's points through a callable."""

    def reader(x):
        return sum(abs(s) for _, ts in x.items() for s in ts)

    rows = [
        TableEntry(0.25, Neighborhood.empty(), 1.0, 0.5),
        TableEntry(0.25, Neighborhood([(0, -1.0, -0.3)]), 50.0, reader),
        TableEntry(0.5, Neighborhood([(0, -2.5, -2.0), (1, -2.0, 0.0)]), 50.0, reader),
    ]
    return TableModel({0: rows, 1: [TableEntry(1.0, Neighborhood([(0, -0.5, 0.0)]), 50.0, reader)]})


CYLINDRICAL_FAMILIES = {
    "age": bounded_age_model,
    "lattice": lambda: lattice_preset(4, 0.005),
    "linear": hawkes_ring,
    "analytic": lambda: exp_hawkes(2),
    "gl": gl_pair,
    "table": table_reader_pair,
}


class TestCylindricity:
    """Each family's summand delta_v reads a complete past x only through
    x ∩ v, the points inside its neighborhood, as the decomposition needs."""

    @pytest.mark.parametrize("make", CYLINDRICAL_FAMILIES.values(), ids=CYLINDRICAL_FAMILIES.keys())
    def test_delta_reads_only_its_neighborhood(self, make):
        m = make()
        nodes = m.node_set() or tuple(range(-3, 4))
        gap = getattr(m, "refractory", 0.0)
        rng = random.Random(11)
        read = 0  # positive summands read from a past with points inside and outside v
        for k in range(300):
            i = rng.choice(nodes)
            desc = m.sample_neighborhood(i, RandomStream(11, (k,)))
            v = m.expand(i, desc)
            depth = 2.0 * max((-a for _, a, _ in v.pieces()), default=1.0)
            pts = {}
            for j in set(nodes) | {j for j, _ in v.by_node()}:
                kept = []  # same-node gaps above the refractory length
                for s in sorted(rng.uniform(-depth, 0.0) for _ in range(rng.randrange(8))):
                    if not kept or s - kept[-1] > gap:
                        kept.append(s)
                pts[j] = kept
            x = Configuration(pts)
            inside = x.restrict(v)
            got = m.delta(i, desc, x)
            assert got == m.delta(i, desc, inside), (k, i, desc)
            read += got > 0.0 and 0 < inside.n_points() < x.n_points()
        assert read >= 20

    def test_components_ignore_points_outside_their_neighborhood(self):
        m = one_node()
        rng = np.random.default_rng(2)
        for _ in range(50):
            inside = sorted(rng.uniform(-0.5, -1e-9, size=2))
            outside = sorted(rng.uniform(-30.0, -0.5, size=3))
            x = Configuration({1: inside})
            y = Configuration({1: sorted(outside + inside)})
            d = AtomND(1, 1)
            assert m.delta(1, d, x) == pytest.approx(m.delta(1, d, y), rel=1e-12)


class TestLocalBound:
    def test_empty_past_is_mu_over_empty_weight(self):
        m = one_node(mu=1.0)
        b = m.local_bound(1, Configuration.empty())
        assert b == pytest.approx(1.0 / m.weights[1].p_empty)

    def test_dominates_components_at_future_shifts(self):
        m = one_node(mu=0.8, alpha=1.3, beta=0.9, eps=0.4)
        rng = np.random.default_rng(7)
        for trial in range(30):
            pts = sorted(rng.uniform(-4.0, -1e-9, size=rng.integers(1, 6)))
            x = Configuration({1: pts})
            bound = m.local_bound(1, x)
            for shift in [0.0, 0.05, 0.21, 0.4, 1.3, 2.7]:
                shifted = Configuration({1: [t - shift for t in pts]})
                assert m.component_value(1, EMPTY_ND, shifted) <= bound * (1 + 1e-9)
                for n in range(1, 20):
                    val = m.component_value(1, AtomND(1, n), shifted)
                    assert val <= bound * (1 + 1e-9), (trial, shift, n)

    def test_explosion_guard_when_weights_decay_too_fast(self):
        # kernel decay over a bin is exp(-0.5) ~ 0.607 > ratio 0.5
        m = one_node(weights={1: AtomicWeights(0.5, {1: 1.0}, {1: 0.5})})
        with pytest.raises(ExplosionGuardError, match="decay"):
            m.local_bound(1, Configuration({1: [-0.3]}))

    @pytest.mark.parametrize(
        "kernel, weights",
        [
            pytest.param(StepKernel([0.0, 0.6, 1.3], [0.4, 0.2]), AtomicWeights(0.5, {0: 1.0}, {0: 0.5}), id="step-untruncated"),
            pytest.param(StepKernel([0.0, 2.2], [0.3]), AtomicWeights(0.5, {0: 1.0}, {0: 0.5}), id="long-step-untruncated"),
            pytest.param(StepKernel([0.0, 2.2], [0.3]), None, id="long-step-default"),
        ],
    )
    def test_bound_dominates_where_the_ratios_rise(self, kernel, weights):
        # on a compact support B_n / lambda(w_n) may rise past the oldest
        # point's bin up to the support's last one, and the bound must cover it
        m = LinearHawkesModel(mu={0: 0.5}, kernels={(0, 0): kernel}, eps=0.5, weights=weights and {0: weights})
        nmax = m.weights[0].trunc[0] or 20
        rng = np.random.default_rng(8)
        pasts = [[-0.1]] + [sorted(rng.uniform(-4.0, -1e-9, size=rng.integers(1, 6))) for _ in range(30)]
        for pts in pasts:
            bound = m.local_bound(0, Configuration({0: pts}))
            for shift in [0.0, 0.05, 0.21, *np.arange(0.4, 6.0, 0.3)]:
                shifted = Configuration({0: [t - shift for t in pts]})
                assert m.component_value(0, EMPTY_ND, shifted) <= bound * (1 + 1e-9)
                for n in range(1, nmax + 1):
                    val = m.component_value(0, AtomND(0, n), shifted)
                    assert val <= bound * (1 + 1e-9), (pts, shift, n)
        run = forward_simulate(m, [0], 20.0, 10_000, None, RandomStream(4))
        assert run.stop_reason == TIME_REACHED and run.count() > 0

    def test_compact_kernels_never_explode(self):
        m = LinearHawkesModel(
            mu={0: 0.2},
            kernels={(0, 0): StepKernel(edges=[0.0, 1.0], values=[2.0])},
            eps=0.5,
        )
        x = Configuration({0: [-0.9, -0.4, -0.1]})
        bound = m.local_bound(0, x)
        assert math.isfinite(bound) and bound > 0


class TestWeightsAndSampling:
    def test_default_family_normalizes(self):
        m = one_node()
        total = m.pmf(1, EMPTY_ND) + sum(m.pmf(1, AtomND(1, n)) for n in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_sampling_recovers_pmf(self):
        m = one_node()
        rng = RandomStream(3)
        n = 20_000
        empties = sum(1 for _ in range(n) if m.sample_neighborhood(1, rng) is EMPTY_ND)
        p = m.pmf(1, EMPTY_ND)
        assert abs(empties / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_truncation_must_cover_kernel_support(self):
        with pytest.raises(ValueError, match="lossy"):
            LinearHawkesModel(
                mu={0: 0.0},
                kernels={(0, 0): StepKernel(edges=[0.0, 2.0], values=[1.0])},
                eps=0.5,
                weights={0: AtomicWeights(0.5, {0: 1.0}, {0: 0.5}, {0: 2})},
            )


class TestKalikowIdentity:
    def test_residuals_shrink_on_random_pasts(self):
        m = one_node(mu=0.4, alpha=0.9, beta=1.1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = sorted(rng.uniform(-6.0, -1e-9, size=4))
            x = Configuration({1: pts})
            target = m.intensity(1, x)
            from kalisim import evaluate_decomposition

            residuals = [abs(target - evaluate_decomposition(m, 1, x, n)) for n in (1, 5, 15, 40)]
            assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
            assert residuals[-1] < 1e-9


def points_in_delta(m, i, desc, x):
    """The atom summand as ``points_in`` and a kernel sum."""
    if isinstance(desc, EmptyND):
        return m.mu[i]
    a, b = -desc.n * m.eps, -(desc.n - 1) * m.eps
    ker = m._incoming[i].get(desc.j)
    if ker is None:
        return 0.0
    return sum(ker(-s) for s in x.points_in(desc.j, a, b))


def step_pair():
    """Two nodes driven by step kernels, which the default weights truncate."""
    kernels = {
        (0, 0): StepKernel([0.0, 0.7, 1.6], [0.4, 0.2]),
        (0, 1): StepKernel([0.0, 1.0], [0.3]),
        (1, 1): StepKernel([0.0, 0.3, 2.1], [0.5, 0.1]),
    }
    return LinearHawkesModel(mu={0: 0.6, 1: 0.4}, kernels=kernels, eps=0.25)


def zero_share_pair():
    """Node 1's own kernel is live but its atoms carry no share, and node 0
    puts no weight on the empty set (its empty component is 0/0 = 0)."""
    kernels = {(i, j): ExponentialKernel(0.2 + 0.1 * j, 1.5) for i in (0, 1) for j in (0, 1)}
    weights = {
        0: AtomicWeights(0.0, {0: 0.5, 1: 0.5}, {0: 0.6, 1: 0.6}),
        1: AtomicWeights(0.5, {0: 1.0, 1: 0.0}, {0: 0.6, 1: 0.6}),
    }
    return LinearHawkesModel(mu={0: 0.5, 1: 0.5}, kernels=kernels, eps=0.4, weights=weights)


def edge_pasts(nodes, eps, count, seed):
    """``count`` pasts before a time t, with points exactly at t - n*eps
    (each such time on one node only, as a realized path has)."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.uniform(1.0, 12.0)
        edges = [t - n * eps for n in rng.sample(range(1, 16), 8) if t - n * eps >= 0.0]
        pts = {}
        for j in nodes:
            ts = {rng.uniform(0.0, t) for _ in range(rng.randrange(0, 8))}
            ts |= {edges.pop() for _ in range(min(len(edges), rng.randrange(0, 4)))}
            pts[j] = sorted(ts)
        yield Configuration(pts), t


class TestSampleComponent:
    """The linear family's one-call proposal against the generic route."""

    @pytest.mark.parametrize("make", [hawkes_ring, step_pair, zero_share_pair], ids=["ring", "step", "zero-share"])
    def test_matches_the_generic_route_draw_for_draw(self, make):
        m = make()
        values = []
        for k, (x, t) in enumerate(edge_pasts(m.node_set(), m.eps, 200, seed=17)):
            for i in m.node_set():
                for key in (None, *(key for key, _, _ in m.proposal_classes(i))):
                    fast, generic = RandomStream(k, (i,)), RandomStream(k, (i,))
                    got = m.sample_component(i, key, fast, x, t)
                    want = KalikowModel.sample_component(m, i, key, generic, x, t)
                    assert got == want, (k, i, key)
                    assert fast.uniform() == generic.uniform(), (k, i, key)
                    values.append(got)
        assert sum(v > 0.0 for v in values) > 200

    @pytest.mark.parametrize("make", [hawkes_ring, step_pair, zero_share_pair], ids=["ring", "step", "zero-share"])
    def test_delta_is_the_points_in_sum(self, make):
        m = make()
        for x, t in edge_pasts(m.node_set(), m.eps, 50, seed=23):
            past = shift_to_origin(x, t)
            for i in m.node_set():
                assert m.delta(i, EMPTY_ND, past) == points_in_delta(m, i, EMPTY_ND, past)
                for j in m.node_set():
                    for n in range(1, 40):
                        desc = AtomND(j, n)
                        assert m.delta(i, desc, past) == points_in_delta(m, i, desc, past), (i, desc)
