import math

import numpy as np
import pytest

from kalisim import AffineRate, ExponentialKernel, NonSummableError, RandomStream, StepKernel
from kalisim.models import age
from kalisim.models.age import AutoGammaLadder
from kalisim.weights import (
    AtomicWeights,
    FiniteWeights,
    GeometricLevels,
    TaylorWeights,
    default_atomic_weights,
)
from kalisim.core import EMPTY_ND, AtomND, NestedND, TaylorND


class TestKernels:
    def test_exponential_functionals(self):
        k = ExponentialKernel(alpha=0.8, beta=2.0)
        assert k(0.0) == pytest.approx(0.8)
        assert k(1.5) == pytest.approx(0.8 * math.exp(-3.0))
        assert k(-0.1) == 0.0
        assert k.l1 == pytest.approx(0.4)
        assert k.at_zero == 0.8
        assert k.support_end == math.inf
        assert k.decay_per(0.5) == pytest.approx(math.exp(-1.0))

    def test_step_kernel(self):
        k = StepKernel(edges=[0.0, 1.0, 3.0], values=[2.0, 0.5])
        assert k(0.0) == 2.0
        assert k(0.999) == 2.0
        assert k(1.0) == 0.5
        assert k(3.0) == 0.0
        assert k.l1 == pytest.approx(2.0 * 1.0 + 0.5 * 2.0)
        assert k.support_end == 3.0

    def test_step_kernel_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            StepKernel(edges=[0.0, 1.0, 2.0], values=[0.5, 2.0])

    def test_affine_rate(self):
        psi = AffineRate(0.5, 0.25)
        assert psi(0.0) == 0.5
        assert psi(2.0) == 1.0
        assert psi.at_zero == 0.5
        assert psi.lipschitz == 0.25


class TestFiniteWeights:
    def test_pmf_and_tail(self):
        fam = FiniteWeights([("a", 0.25), ("b", 0.75)])
        assert fam.pmf("a") == 0.25
        assert fam.pmf("zzz") == 0.0
        assert fam.tail_after(1) == pytest.approx(0.75)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteWeights([("a", 0.4), ("b", 0.4)])

    def test_two_atom_empirical_frequencies(self):
        fam = FiniteWeights([("a", 0.25), ("b", 0.75)])
        rng = RandomStream(5)
        n = 10_000
        hits = sum(1 for _ in range(n) if fam.sample(rng) == "a")
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) < 3 * sigma


class TestAtomicWeights:
    def make(self):
        return AtomicWeights(0.5, {0: 0.25, 1: 0.75}, {0: 0.5, 1: 0.6}, {0: None, 1: 4})

    def test_pmf_normalizes(self):
        fam = self.make()
        total = fam.p_empty
        for n in range(1, 200):
            for d in fam.enumerate_level(n):
                total += fam.pmf(d)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_tail_matches_brute_force(self):
        fam = self.make()
        for lvl in (0, 1, 3, 6):
            brute = sum(
                fam.pmf(AtomND(j, n)) for n in range(lvl + 1, 400) for j in (0, 1)
            )
            assert fam.tail_after_level(lvl) == pytest.approx(brute, abs=1e-12)

    def test_truncation_respected(self):
        fam = self.make()
        assert fam.pmf(AtomND(1, 5)) == 0.0
        assert fam.pmf(AtomND(1, 4)) > 0.0
        rng = RandomStream(11)
        for _ in range(2000):
            d = fam.sample(rng)
            if isinstance(d, AtomND) and d.j == 1:
                assert d.n <= 4

    def test_sampler_matches_pmf(self):
        fam = self.make()
        rng = RandomStream(3)
        n = 40_000
        counts = {}
        for _ in range(n):
            d = fam.sample(rng)
            counts[d] = counts.get(d, 0) + 1
        for d in [EMPTY_ND, AtomND(0, 1), AtomND(1, 1), AtomND(1, 4), AtomND(0, 3)]:
            p = fam.pmf(d)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(d, 0) / n - p) < 4 * sigma + 1e-4, d


def halving_ladder():
    """Gamma_k = 2^{-k}: a two-rung head, then one geometric term; Gamma = 1."""
    return AutoGammaLadder(lambda k: 0.5**k, 2, [(0.5, 0.5)])


class TestLadderAndGeometricLevels:
    def test_ladder_pmf(self):
        fam = halving_ladder()
        assert fam.pmf(NestedND(2)) == pytest.approx(0.25)
        assert fam.tail(3) / fam.total == pytest.approx(0.125)
        rng = RandomStream(23)
        draws = [fam.sample(rng).k for _ in range(20_000)]
        assert abs(np.mean([d == 1 for d in draws]) - 0.5) < 0.015

    @pytest.mark.parametrize(
        "fam",
        [halving_ladder()],
        ids=["ladder"],
    )
    def test_walk_cap_raises_typed_error(self, fam, monkeypatch):
        class TopDraw:
            def uniform(self):
                return 0.999

        monkeypatch.setattr(age, "_WALK_CAP", 3)
        with pytest.raises(NonSummableError, match="walk exceeded its cap"):
            fam.sample(TopDraw())

    def test_geometric_levels(self):
        fam = GeometricLevels(p_empty=0.5, ratio=0.5)
        assert fam.pmf(EMPTY_ND) == 0.5
        assert fam.pmf(NestedND(2)) == pytest.approx(0.5 * 0.25)
        total = fam.p_empty + sum(fam.level_pmf(k) for k in range(1, 70))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTaylorWeights:
    def make(self):
        atoms = AtomicWeights(0.0, {0: 1.0}, {0: 0.5})
        return TaylorWeights(order_ratio=0.5, atoms=atoms)

    def test_empty_and_tuple_pmf(self):
        fam = self.make()
        assert fam.pmf(EMPTY_ND) == 0.5
        d = TaylorND(((0, 1), (0, 2)))
        expect = 0.5 * 0.5**2 * (0.5 * 0.25)  # (1-k)k^2 * q(n=1) q(n=2)
        assert fam.pmf(d) == pytest.approx(expect)

    def test_redundant_descriptors_distinct(self):
        fam = self.make()
        a = TaylorND(((0, 1), (0, 2)))
        b = TaylorND(((0, 2), (0, 1)))
        assert a != b
        assert fam.pmf(a) == fam.pmf(b) > 0.0

    def test_order_mass(self):
        fam = self.make()
        rng = RandomStream(31)
        n = 50_000
        orders = []
        for _ in range(n):
            d = fam.sample(rng)
            orders.append(0 if d is EMPTY_ND or not isinstance(d, TaylorND) else d.order())
        for k in (0, 1, 2, 3):
            p = fam.order_pmf(k)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean([o == k for o in orders]) - p) < 4 * sigma
        assert fam.tail_after_order(2) == pytest.approx(0.125)


class TestDefaultAtomicWeights:
    def test_ratio_strictly_dominates_kernel_decay(self):
        ker = ExponentialKernel(alpha=1.0, beta=3.0)
        fam = default_atomic_weights({0: ker}, eps=0.5)
        assert fam.ratios[0] > ker.decay_per(0.5)

    def test_compact_support_truncates(self):
        ker = StepKernel(edges=[0.0, 1.2], values=[1.0])
        fam = default_atomic_weights({0: ker}, eps=0.5)
        assert fam.trunc[0] == 3

    def test_no_live_kernels_all_mass_on_empty(self):
        fam = default_atomic_weights({0: ExponentialKernel(0.0, 1.0)}, eps=0.5)
        assert fam.p_empty == 1.0
