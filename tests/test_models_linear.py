import math

import numpy as np
import pytest

from kalisim import (
    AtomND,
    AtomicWeights,
    Configuration,
    CoverageError,
    EMPTY_ND,
    ExplosionGuardError,
    ExponentialKernel,
    LinearHawkesModel,
    RandomStream,
    StepKernel,
)
from kalisim.forward import TIME_REACHED, forward_simulate


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

    def test_window_must_cover_the_bin(self):
        m = one_node()
        x = Configuration({1: [-0.3]}, window=(-0.4, 0.0))
        with pytest.raises(CoverageError):
            m.delta(1, AtomND(1, 2), x)


class TestIntensity:
    def test_empty_past(self):
        m = one_node(mu=0.7)
        assert m.intensity(1, Configuration.empty()) == 0.7

    def test_sums_kernel_values(self):
        m = one_node(mu=0.5)
        x = Configuration({1: [-2.0, -0.3]})
        assert m.intensity(1, x) == pytest.approx(0.5 + math.exp(-2.0) + math.exp(-0.3))

    def test_insufficient_window_for_infinite_support(self):
        m = one_node()
        x = Configuration({1: [-0.3]}, window=(-1.0, 0.0))
        with pytest.raises(CoverageError, match="insufficient"):
            m.intensity(1, x)


class TestCylindricity:
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

    def test_mean_field_default_dominates_at_future_shifts(self):
        # exponential self kernels and step cross kernels (compact support,
        # truncated bins), subcritical, so every node takes the mean-field family
        step = StepKernel([0.0, 0.6, 1.3], [0.4, 0.2])
        kernels = {(0, 0): ExponentialKernel(0.4, 1.2), (0, 1): step, (1, 0): step, (1, 1): ExponentialKernel(0.3, 0.8)}
        m = LinearHawkesModel(mu={0: 0.6, 1: 0.3}, kernels=kernels, eps=0.5)
        assert m.weights[0].p_empty != 0.5 and m.weights[1].p_empty != 0.5
        assert m.weights[0].trunc == {0: None, 1: 3}
        rng = np.random.default_rng(12)
        for trial in range(30):
            pts = {j: sorted(rng.uniform(-4.0, -1e-9, size=rng.integers(1, 6))) for j in (0, 1)}
            x = Configuration(pts)
            for i in (0, 1):
                bound = m.local_bound(i, x)
                for shift in [0.0, 0.05, 0.21, 0.4, 1.3, 2.7]:
                    shifted = Configuration({j: [t - shift for t in ts] for j, ts in pts.items()})
                    assert m.component_value(i, EMPTY_ND, shifted) <= bound * (1 + 1e-9)
                    for j in (0, 1):
                        for n in range(1, 20):
                            val = m.component_value(i, AtomND(j, n), shifted)
                            assert val <= bound * (1 + 1e-9), (trial, i, shift, j, n)

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
