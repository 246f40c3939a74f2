"""Per-source bound terms and the neighborhood-restricted past the forward
simulator reads."""

import random

import pytest

from kalisim import (
    AffineRate,
    AgeHawkesModel,
    AnalyticHawkesModel,
    Configuration,
    ExponentialKernel,
    GLModel,
    Neighborhood,
    PsiSeries,
    RandomStream,
    StepKernel,
    TableEntry,
    TableModel,
    TaylorND,
    shift_to_origin,
)
from kalisim.models.base import future_bin_bounds
from kalisim.validation import hawkes_ring


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


class TestTermSplit:
    @pytest.mark.parametrize("make", SPLIT_MODELS)
    def test_largest_term_is_the_bound(self, make):
        m = make()
        rng = random.Random(11)
        for _ in range(60):
            t = rng.uniform(0.5, 8.0)
            x = random_past(rng, m.node_set(), t, m.eps)
            for i in m.node_set():
                terms = [m.local_bound(i, x, t, source=j) for j in m.bound_sources(i)]
                assert max(terms) == m.local_bound(i, x, t)

    @pytest.mark.parametrize("make", SPLIT_MODELS)
    def test_term_reads_only_its_source(self, make):
        m = make()
        rng = random.Random(12)
        for _ in range(40):
            t = rng.uniform(0.5, 8.0)
            x = random_past(rng, m.node_set(), t, m.eps)
            y = random_past(rng, m.node_set(), t, m.eps)
            for i in m.node_set():
                for j in m.bound_sources(i):
                    if set(x.points(j)) & {s for k in y.nodes() if k != j for s in y.points(k)}:
                        continue  # mixing the two would collide
                    mixed = Configuration({**{k: y.points(k) for k in y.nodes() if k != j}, j: x.points(j)})
                    assert m.local_bound(i, mixed, t, source=j) == m.local_bound(i, x, t, source=j)

    def test_sources_are_the_kernel_sources(self):
        assert hawkes_ring().bound_sources(0) == frozenset({3, 0, 1})
        assert analytic_triangle().bound_sources(0) == frozenset({0, 1})

    def test_whole_node_models_declare_no_sources(self):
        assert TableModel.constant_rate(1.0).bound_sources(0) is None


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
        bins = future_bin_bounds(m.kernels[(0, 0)], pts, 0.0, m.eps, None)
        b_star = max(bound_n / atoms.atom_pmf(0, n) for n, bound_n in bins)
        term, best = 1.0, 1.0 / (1.0 - kappa)
        for k in range(1, 200):
            term *= b_star / kappa / k
            best = max(best, term / (1.0 - kappa))
        assert m.local_bound(0, Configuration({0: pts})) == best


def gl_pair() -> GLModel:
    return GLModel(AffineRate(0.5, 1.0), {(0, 1): 0.4, (1, 0): 0.3}, {(0, 1): 2.0, (1, 0): 1.0}, step=0.7, nodes=[0, 1])


def age_pair() -> AgeHawkesModel:
    return AgeHawkesModel.finite(
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
