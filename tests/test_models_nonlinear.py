"""Kalikow identity of the analytic (Taylor) and Galves-Löcherbach families,
and the nested-level checks their node sets share with the age model."""

import math
from itertools import product

import numpy as np
import pytest

from kalisim import (
    EMPTY_ND,
    AffineRate,
    AgeHawkesModel,
    AnalyticHawkesModel,
    AtomicWeights,
    Configuration,
    ExponentialKernel,
    GLModel,
    LinearHawkesModel,
    NestedND,
    NonSummableError,
    PsiSeries,
    RandomStream,
    TaylorND,
    TaylorWeights,
    evaluate_decomposition,
)


def analytic_pair(kind="exp"):
    kernels = {(i, j): ExponentialKernel(0.3 if i == j else 0.2, 1.5) for i in (0, 1) for j in (0, 1)}
    return AnalyticHawkesModel(PsiSeries(kind), kernels, eps=0.5, nodes=[0, 1])


def gl_triangle(omega=None):
    beta = {(0, 1): 0.4, (0, 2): 0.25, (1, 0): 0.3, (2, 1): 0.5}
    saturation = {(0, 1): 0.6, (0, 2): 1.0, (1, 0): 0.5, (2, 1): 2.0}
    return GLModel(AffineRate(0.5, 1.0), beta, saturation, step=0.7, nodes=[0, 1, 2], omega=omega)


def random_past(rng, nodes, horizon, size):
    pts = {j: sorted(rng.uniform(-horizon, -1e-9, size=rng.integers(0, size + 1))) for j in nodes}
    return Configuration(pts)


class TestAnalyticIdentity:
    @pytest.mark.parametrize("kind", ["exp", "cosh"])
    def test_sum_approaches_the_intensity_on_random_pasts(self, kind):
        m = analytic_pair(kind)
        rng = np.random.default_rng(17)
        for _ in range(8):
            # one point per node keeps the order-k level at 2^k tuples or fewer
            x = random_past(rng, (0, 1), 2.0, 1)
            for i in (0, 1):
                target = m.intensity(i, x)
                descs = []
                for desc in m.enumerate_descriptors(i, x):
                    if desc is not EMPTY_ND and desc.order() > 10:
                        break
                    descs.append(desc)
                assert all(m.delta(i, d, x) >= 0.0 for d in descs)
                partial = [evaluate_decomposition(m, i, x, n) for n in (1, 3, 7, 15, 63, len(descs))]
                assert all(b >= a for a, b in zip(partial, partial[1:]))
                assert partial[-1] <= target * (1.0 + 1e-12)
                assert target - partial[-1] < 1e-9

    def test_orders_past_170_add_nothing_instead_of_overflowing(self):
        m = AnalyticHawkesModel(PsiSeries("exp"), {(0, 0): ExponentialKernel(0.3, 1.5)}, eps=0.5, nodes=[0])
        x = Configuration({0: [-0.2]})
        # one live atom: the n-th descriptor is the order-(n - 1) tuple
        at_171 = evaluate_decomposition(m, 0, x, 171)
        at_173 = evaluate_decomposition(m, 0, x, 173)
        assert math.isfinite(at_173) and at_173 >= at_171
        assert abs(at_173 - m.intensity(0, x)) < 1e-12

    @pytest.mark.parametrize("s", [-0.5, -1.0, -1.5, -0.9999])
    def test_a_point_on_a_bin_edge_is_in_its_atom(self, s):
        # atom (j, n) holds shifted times in [-n*eps, -(n-1)*eps), so a point
        # at -n*eps is in bin n, not n + 1
        m = AnalyticHawkesModel(PsiSeries("exp"), {(0, 0): ExponentialKernel(0.5, 1.0)}, eps=0.5, nodes=[0])
        x = Configuration({0: [s]})
        assert m._live_atoms(0, x) == [(0, math.ceil(-s / m.eps))]
        assert evaluate_decomposition(m, 0, x, 12) == pytest.approx(m.intensity(0, x), rel=1e-12)

    def test_a_truncation_short_of_the_kernel_is_refused(self):
        # the bins stop at age 1.0 while the kernel reaches on, so at a past
        # point of age 3 the sum would stop at psi(0) = 1.0 below the
        # intensity 1 + 0.5 e^{-1.5} = 1.1116, as the linear model's would
        atoms = AtomicWeights(0.0, {0: 1.0}, {0: 0.5}, {0: 2})
        with pytest.raises(ValueError, match="lossy"):
            AnalyticHawkesModel(
                PsiSeries("poly", [1.0, 1.0]),
                {(0, 0): ExponentialKernel(0.5, 0.5)},
                eps=0.5,
                nodes=[0],
                weights={0: TaylorWeights(0.5, atoms)},
            )

    def test_enumeration_needs_a_configuration(self):
        m = analytic_pair()
        with pytest.raises(NonSummableError, match="live atoms"):
            next(m.enumerate_descriptors(0))
        assert list(m.enumerate_descriptors(0, Configuration({}))) == [EMPTY_ND]

    def test_delta_builds_no_neighborhood(self, monkeypatch):
        # delta reads the atoms straight from the tuple, without expanding it
        m = analytic_pair()
        x = Configuration({0: [-0.2, -1.3], 1: [-0.7]})
        desc = TaylorND(((0, 1), (1, 2), (0, 3)))
        want = m.delta(0, desc, x)
        calls = []
        expand = m.expand
        monkeypatch.setattr(m, "expand", lambda *a: calls.append(a) or expand(*a))
        assert m.delta(0, desc, x) == want and calls == []

    def test_the_empty_set_expands_to_one_shared_neighborhood(self):
        m = analytic_pair()
        assert m.expand(0, EMPTY_ND) is m.expand(1, EMPTY_ND) is LinearHawkesModel.expand(None, 0, EMPTY_ND)
        assert m.expand(0, EMPTY_ND).is_empty()

    def test_weights_sum_to_one(self):
        m = analytic_pair()
        fam = m.weights[0]
        atoms = [(j, n) for j in (0, 1) for n in range(1, 90)]
        total = m.pmf(0, EMPTY_ND)
        for k in (1, 2):
            total += sum(m.pmf(0, TaylorND(tup)) for tup in product(atoms, repeat=k))
        # orders above 2 carry kappa^3; the atoms beyond bin 89 carry < 1e-13
        assert total + fam.order_ratio**3 == pytest.approx(1.0, abs=1e-12)


class TestGLIdentity:
    def test_sum_approaches_the_intensity_on_random_pasts(self):
        m = gl_triangle(omega={0: [[0], [0, 1], [0, 1, 2]], 1: [[1], [0, 1]], 2: [[2], [1, 2]]})
        rng = np.random.default_rng(23)
        for _ in range(25):
            x = random_past(rng, (0, 1, 2), 6.0, 4)
            for i in (0, 1, 2):
                target = m.intensity(i, x)
                assert m.delta(i, EMPTY_ND, x) >= 0.0
                assert all(m.delta(i, NestedND(k), x) >= 0.0 for k in range(1, 12))
                partial = [evaluate_decomposition(m, i, x, n) for n in (1, 2, 4, 8, 12)]
                assert all(b >= a - 1e-15 for a, b in zip(partial, partial[1:]))
                # level 10 reaches back 7.0, past every point
                assert partial[-1] == pytest.approx(target, abs=1e-12)

    def test_weights_sum_to_one(self):
        m = gl_triangle()
        for i in (0, 1, 2):
            total = m.pmf(i, EMPTY_ND) + sum(m.pmf(i, NestedND(k)) for k in range(1, 80))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestNestedLevels:
    def test_gl_rejects_levels_that_are_not_nested(self):
        # level 3 drops node 1, so delta_3 would be negative
        with pytest.raises(ValueError, match="nested"):
            gl_triangle(omega={0: [[0], [0, 1], [0, 2]]})

    def test_gl_rejects_levels_that_name_an_unknown_node(self):
        # node 5 is not a node of the network
        with pytest.raises(ValueError, match=r"unknown nodes \[5\]"):
            gl_triangle(omega={0: [[0], [0, 1, 2, 5]]})

    def test_gl_rejects_levels_that_miss_a_source(self):
        # node 0 reads node 2, which no level reaches
        with pytest.raises(ValueError, match="cover"):
            gl_triangle(omega={0: [[0], [0, 1]]})

    @pytest.mark.parametrize("omega", [{0: [[0, 1], [0, 1, 2]]}, {0: []}])
    def test_gl_first_level_is_the_node_itself(self, omega):
        with pytest.raises(ValueError, match="omega_1"):
            gl_triangle(omega=omega)

    @pytest.mark.parametrize(
        "omega, match",
        [
            ({0: [[0], [0, 1], [0]]}, "nested"),
            ({0: [[0], [0, 1]]}, "cover"),
            ({0: [[1], [0, 1]]}, "omega_1"),
            ({0: [[0], [0, 1, 2, 5]]}, "unknown nodes"),
        ],
    )
    def test_age_model_applies_the_same_checks(self, omega, match):
        kernels = {(0, 0): ExponentialKernel(0.5, 2.0), (0, 2): ExponentialKernel(0.2, 2.0)}
        with pytest.raises(ValueError, match=match):
            AgeHawkesModel(AffineRate(0.5, 0.5), kernels, refractory=0.5, nodes=[0, 1, 2], omega=omega)


class TestUnknownNodes:
    """Every family refuses an interaction that names a node it does not have."""

    def test_levels_for_an_unknown_node(self):
        with pytest.raises(ValueError, match=r"omega names unknown nodes \[7\]"):
            gl_triangle(omega={7: [[7]]})
        with pytest.raises(ValueError, match=r"omega names unknown nodes \[5\]"):
            AgeHawkesModel(AffineRate(0.5, 0.5), {}, refractory=0.5, nodes=[0, 1], omega={5: [[5], [5, 0]]})

    @pytest.mark.parametrize("pair", [(7, 0), (0, 7)], ids=["target", "source"])
    def test_age_kernel(self, pair):
        with pytest.raises(ValueError, match=rf"kernel \({pair[0]},{pair[1]}\) references an unknown node"):
            AgeHawkesModel(AffineRate(0.5, 0.5), {pair: ExponentialKernel(0.5, 2.0)}, refractory=0.5, nodes=[0, 1])

    @pytest.mark.parametrize("pair", [(7, 0), (0, 7)], ids=["target", "source"])
    def test_analytic_kernel(self, pair):
        with pytest.raises(ValueError, match=rf"kernel \({pair[0]},{pair[1]}\) references an unknown node"):
            AnalyticHawkesModel(PsiSeries("exp"), {pair: ExponentialKernel(0.3, 1.5)}, eps=0.5, nodes=[0, 1])

    @pytest.mark.parametrize("section", ["beta", "saturation"])
    def test_gl_interactions(self, section):
        beta = {(0, 1): 0.4}
        saturation = {(0, 1): 0.6}
        (beta if section == "beta" else saturation)[(7, 0)] = 0.5
        with pytest.raises(ValueError, match=rf"{section} \(7,0\) references an unknown node"):
            GLModel(AffineRate(0.5, 1.0), beta, saturation, step=0.7, nodes=[0, 1])


class TestUndrivenAnalyticNode:
    """Node 1 has no incoming kernel, so its Taylor family is the empty set alone."""

    def model(self):
        return AnalyticHawkesModel(PsiSeries("exp"), {(0, 0): ExponentialKernel(0.3, 1.0)}, eps=0.5, nodes=[0, 1])

    def test_family_is_the_empty_set_at_psi_zero(self):
        m = self.model()
        x = Configuration({0: [-0.3, -0.1]})
        assert m.pmf(1, EMPTY_ND) == 1.0
        assert m.component_value(1, EMPTY_ND, x) == m.intensity(1, x) == 1.0
        assert [m.component_value(1, d, x) for d in m.enumerate_descriptors(1, x)] == [1.0]
        assert m.local_bound(1, x) == 1.0
        assert m.proposal_classes(1) == ((None, 1.0, frozenset()),)

    def test_sampling_draws_only_the_empty_set(self):
        m = self.model()
        rng = RandomStream(3)
        assert {m.sample_neighborhood(1, rng) for _ in range(200)} == {EMPTY_ND}
