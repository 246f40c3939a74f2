"""Kalikow identity of the analytic (Taylor) and Galves-Löcherbach families,
and the nested-level checks their node sets share with the age model."""

from itertools import product

import numpy as np
import pytest

from kalisim import (
    EMPTY_ND,
    AffineRate,
    AgeHawkesModel,
    AnalyticHawkesModel,
    Configuration,
    ExponentialKernel,
    GLModel,
    NestedND,
    PsiSeries,
    TaylorND,
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

    def test_weights_sum_to_one(self):
        m = analytic_pair()
        fam = m.weights[0]
        atoms = [(j, n) for j in (0, 1) for n in range(1, 90)]
        total = m.pmf(0, EMPTY_ND)
        for k in (1, 2):
            total += sum(m.pmf(0, TaylorND(tup)) for tup in product(atoms, repeat=k))
        # orders above 2 carry kappa^3; the atoms beyond bin 89 carry < 1e-13
        assert total + fam.tail_after_order(2) == pytest.approx(1.0, abs=1e-12)


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
        [({0: [[0], [0, 1], [0]]}, "nested"), ({0: [[0], [0, 1]]}, "cover"), ({0: [[1], [0, 1]]}, "omega_1")],
    )
    def test_age_model_applies_the_same_checks(self, omega, match):
        kernels = {(0, 0): ExponentialKernel(0.5, 2.0), (0, 2): ExponentialKernel(0.2, 2.0)}
        with pytest.raises(ValueError, match=match):
            AgeHawkesModel.finite(AffineRate(0.5, 0.5), kernels, refractory=0.5, nodes=[0, 1, 2], omega=omega)
