import math

import numpy as np
import pytest

from kalisim import (
    AffineRate,
    ExponentialKernel,
    LinearHawkesModel,
    NonSummableError,
    RandomStream,
    StepKernel,
    lattice_preset,
    validation,
)
from kalisim.models import age
from kalisim.models.age import AutoGammaLadder
from kalisim.weights import (
    AtomicWeights,
    FiniteWeights,
    GeometricLevels,
    TaylorWeights,
    default_atomic_weights,
    mean_field_atomic_weights,
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
    def test_pmf(self):
        fam = FiniteWeights([("a", 0.25), ("b", 0.75)])
        assert fam.pmf("a") == 0.25
        assert fam.pmf("zzz") == 0.0

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

    def test_levels_and_tail_sum_to_total(self):
        # the first six rungs plus the tail beyond them make up Gamma, for the
        # closed-form power ladder and for a Lipschitz ladder past its head
        for m in (lattice_preset(4.0, 4.0, 0.25), validation.bounded_age_model()):
            ladder = m.ladder(0)
            assert m.global_bound(0) == ladder.total
            listed = sum(ladder.level(k) for k in range(1, 7))
            assert listed + ladder.tail(6) == pytest.approx(ladder.total, rel=1e-12)

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
        kappa = fam.order_ratio
        # P(order = k) = (1 - kappa) kappa^k, so P(order > 2) = kappa^3
        checks = [(np.mean([o == k for o in orders]), (1 - kappa) * kappa**k) for k in (0, 1, 2, 3)]
        checks.append((np.mean([o > 2 for o in orders]), kappa**3))
        for freq, p in checks:
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n)


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


def same_family(a: AtomicWeights, b: AtomicWeights) -> bool:
    return (a.p_empty, a.shares, a.ratios, a.trunc) == (b.p_empty, b.shares, b.ratios, b.trunc)


def ring_with(alpha_self: float, alpha_nb: float, **kw) -> LinearHawkesModel:
    kernels = {}
    for i in range(4):
        for j, a in ((i, alpha_self), ((i - 1) % 4, alpha_nb), ((i + 1) % 4, alpha_nb)):
            kernels[(i, j)] = ExponentialKernel(a, 1.0)
    return LinearHawkesModel(mu={i: 0.5 for i in range(4)}, kernels=kernels, eps=0.5, **kw)


class TestMeanFieldAtomicWeights:
    def test_ring_by_hand(self):
        # m = 0.5 / (1 - 0.3 - 2 * 0.15) = 1.25 on every node; the bin ratio is
        # sqrt(exp(-0.5)) and the exponential kernel peaks at bin 1, where the
        # bin pmf is 1 - ratio
        m = validation.hawkes_ring()
        peak_self = 1.25 * 0.5 * 0.3 / (1.0 - math.exp(-0.25))
        total = 2.0 * peak_self  # the self source plus two half-strength neighbours
        for i, fam in m.weights.items():
            assert fam.p_empty == pytest.approx(0.5 / (0.5 + total), rel=1e-12)
            assert fam.shares == pytest.approx({i: 0.5, (i - 1) % 4: 0.25, (i + 1) % 4: 0.25}, rel=1e-12)
            assert fam.ratios == {j: pytest.approx(math.exp(-0.25), rel=1e-15) for j in fam.nodes}
            assert fam.trunc == {j: None for j in fam.nodes}
            mass = fam.p_empty + sum(fam.pmf(AtomND(j, n)) for j in fam.nodes for n in range(1, 400))
            assert mass == pytest.approx(1.0, abs=1e-12)
            # the balance the rule is built on: the empty set's component equals
            # every source's peak mean-field atom component
            for j in fam.nodes:
                peak = 1.25 * 0.5 * m.kernels[(i, j)](0.0) / fam.bin_weight(j, 1)
                assert peak == pytest.approx(m.mu[i] / fam.p_empty, rel=1e-12)
        assert m.weights[0].p_empty == pytest.approx(0.22775885, abs=1e-8)

    def test_compact_kernel_peaks_at_a_later_bin(self):
        # truncated at 3 bins of ratio 1/2: g = (4, 2, 1) / 7, and eps * h((n-1) eps) / g(n)
        # reads (0.35, 0.7, 0.7), so the peak is 0.7 m, not the first bin's 0.35 m
        ker = StepKernel([0.0, 0.6, 1.3], [0.4, 0.2])
        m = 0.5 / (1.0 - ker.l1)
        (fam,) = mean_field_atomic_weights({0: {0: ker}}, {0: 0.5}, 0.5).values()
        assert fam.p_empty == pytest.approx(0.5 / (0.5 + 0.7 * m), rel=1e-12)
        assert (fam.shares, fam.ratios, fam.trunc) == ({0: 1.0}, {0: 0.5}, {0: 3})

    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(ring_with(0.5, 0.3), id="supercritical"),
            pytest.param(ring_with(0.4, 0.3), id="critical"),
            pytest.param(ring_with(0.3, 0.15, declared_bounds={i: 4.0 for i in range(4)}), id="declared-bounds"),
        ],
    )
    def test_the_default_family_where_the_rule_does_not_apply(self, model):
        for i in range(4):
            assert same_family(model.weights[i], default_atomic_weights(model._incoming[i], 0.5))

    def test_nodes_without_live_sources_or_rates_keep_the_default(self):
        # node 1 reads nothing, node 2 only a zero kernel; node 3 never fires
        # (mu = 0, no source), so node 0, which reads it, keeps the default too,
        # while node 4 reads node 1 alone and takes the rule
        kernels = {
            (0, 3): ExponentialKernel(0.2, 1.0),
            (0, 1): ExponentialKernel(0.2, 1.0),
            (2, 2): ExponentialKernel(0.0, 1.0),
            (4, 1): ExponentialKernel(0.2, 1.0),
        }
        mu = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.0, 4: 0.5}
        m = LinearHawkesModel(mu=mu, kernels=kernels, eps=0.5)
        for i in (0, 1, 2, 3):
            assert same_family(m.weights[i], default_atomic_weights(m._incoming[i], 0.5))
        assert m.weights[1].p_empty == m.weights[2].p_empty == 1.0
        peak = 0.5 * 0.5 * 0.2 / (1.0 - math.exp(-0.25))  # m_1 = mu_1, as node 1 reads nothing
        assert m.weights[4].p_empty == pytest.approx(0.5 / (0.5 + peak), rel=1e-12)

    def test_given_weights_are_kept(self):
        given = {
            i: AtomicWeights(0.3, {i: 0.6, (i - 1) % 4: 0.2, (i + 1) % 4: 0.2}, dict.fromkeys(range(4), 0.8))
            for i in range(4)
        }
        m = ring_with(0.3, 0.15, weights=given)
        assert all(m.weights[i] is given[i] for i in range(4))


def walked_level(ladder, u):
    """The level law's inverse CDF as a plain walk over the rungs, for ``u`` in [0, Gamma)."""
    acc = 0.0
    for k in range(1, 10_000_000):
        acc += ladder.level(k)
        if u < acc or ladder.tail(k) < 1e-15 * ladder.total:
            return k


class TestLadderLevelSampling:
    class Draws:
        def __init__(self, values):
            self.values = list(values)

        def uniform(self):
            return self.values.pop(0)

    @pytest.mark.parametrize(
        "ladder",
        [halving_ladder(), age.PowerGammaLadder(2.5, 4.0)],
        ids=["auto", "power"],
    )
    def test_sample_is_the_walked_level(self, ladder):
        top = 1.0 - 2.0**-53
        sweep = [0.3, 0.0, 0.5, 0.1, 0.74, 0.75, 0.9, 0.999, 1 - 1e-9, 1 - 1e-13, top, 0.2, 0.99999]
        sweep += sweep[::-1]  # the second half draws after the levels were reached once
        draws = self.Draws(sweep)
        got = [ladder.sample(draws).k for _ in sweep]
        assert got == [walked_level(ladder, u * ladder.total) for u in sweep]
        # the top draw lies past every running sum below the stop level
        assert ladder.tail(max(got)) < 1e-15 * ladder.total
