import math

import numpy as np
import pytest

from kalisim import (
    AffineRate,
    ExponentialKernel,
    LinearHawkesModel,
    Neighborhood,
    NonSummableError,
    RandomStream,
    StepKernel,
    TableEntry,
    TableModel,
    validation,
)
from kalisim.models import age
from kalisim.models.age import GammaLadder
from kalisim.models.presets import DiagonalLattice, lattice_gamma_bar
from kalisim.weights import (
    AtomicWeights,
    GeometricLevels,
    TaylorWeights,
    default_atomic_weights,
)
from kalisim.core import EMPTY_ND, AtomND, NestedND, TableND, TaylorND


class TestKernels:
    def test_exponential_functionals(self):
        k = ExponentialKernel(alpha=0.8, beta=2.0)
        assert k(0.0) == pytest.approx(0.8)
        assert k(1.5) == pytest.approx(0.8 * math.exp(-3.0))
        assert k(-0.1) == 0.0
        assert k.support_end == math.inf
        assert k.decay_per(0.5) == pytest.approx(math.exp(-1.0))

    def test_step_kernel(self):
        k = StepKernel(edges=[0.0, 1.0, 3.0], values=[2.0, 0.5])
        assert k(0.0) == 2.0
        assert k(0.999) == 2.0
        assert k(1.0) == 0.5
        assert k(3.0) == 0.0
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
    """A table model's rows are a finite weight family."""

    def make(self):
        empty = Neighborhood.empty()
        return TableModel({0: [TableEntry(0.25, empty, 1.0), TableEntry(0.75, empty, 1.0)]})

    def test_pmf(self):
        m = self.make()
        assert m.pmf(0, TableND(0, 0)) == 0.25
        assert m.pmf(0, TableND(0, 2)) == 0.0
        assert m.pmf(0, TableND(0, -1)) == 0.0

    def test_rejects_bad_total(self):
        empty = Neighborhood.empty()
        with pytest.raises(ValueError, match="sum to 1"):
            TableModel({0: [TableEntry(0.4, empty, 1.0), TableEntry(0.4, empty, 1.0)]})
        with pytest.raises(ValueError, match="nonnegative"):
            TableModel({0: [TableEntry(1.5, empty, 1.0), TableEntry(-0.5, empty, 1.0)]})

    def test_two_atom_empirical_frequencies(self):
        m = self.make()
        rng = RandomStream(5)
        n = 10_000
        hits = sum(1 for _ in range(n) if m.sample_neighborhood(0, rng) == TableND(0, 0))
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

    @pytest.mark.parametrize("trunc", [0, -1, 2.5])
    def test_a_truncation_below_one_bin_is_refused(self, trunc):
        # at 0 the atoms carry no mass although their share is 1, and a bin
        # draw never returns
        with pytest.raises(ValueError, match="integer >= 1"):
            AtomicWeights(0.5, {0: 1.0}, {0: 0.5}, {0: trunc})

    def test_bin_sampler_matches_the_bin_pmf(self):
        # the class draw of the forward simulator: a bin of one source, under
        # the truncated geometric pmf
        fam = self.make()
        rng = RandomStream(4)
        n = 20_000
        bins = [fam.sample_bin(1, rng) for _ in range(n)]
        assert set(bins) == {1, 2, 3, 4}
        for b in (1, 2, 3, 4):
            p = fam.bin_weight(1, b) / ((1.0 - fam.p_empty) * fam.shares[1])
            assert abs(bins.count(b) / n - p) < 4 * math.sqrt(p * (1 - p) / n), b

    def test_atom_draw_reads_the_bin_draw(self):
        fam = self.make()
        a, b = RandomStream(9), RandomStream(9)
        for _ in range(200):
            j, n = fam.sample_atom(a)
            b.uniform()  # the source pick
            assert n == fam.sample_bin(j, b)


def halving_ladder():
    """Gamma_k = 2^{-k}: a two-rung head, then one geometric term; Gamma = 1."""
    return GammaLadder([0.5, 0.25], [(0.5, 0.5)])


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

    @pytest.mark.parametrize(
        "terms, match",
        [({"geometric": [(0.5, 1.0)]}, "ratio"), ({"power": [(2.5, 2.0)]}, "p > 2")],
        ids=["geometric-ratio-1", "power-p-2"],
    )
    def test_divergent_tail_terms_are_refused(self, terms, match):
        with pytest.raises(ValueError, match=match):
            GammaLadder([1.0], **terms)

    def test_levels_and_tail_sum_to_total(self):
        # the first six rungs plus the tail beyond them make up Gamma, for the
        # lattice's Lipschitz ladder and for a geometric tail past a head
        for m in (DiagonalLattice(4.0, 0.25), validation.bounded_age_model()):
            ladder = m.ladder(0)
            assert m.global_bound(0) == ladder.total
            listed = sum(ladder.level(k) for k in range(1, 7))
            assert listed + ladder.tail(6) == pytest.approx(ladder.total, rel=1e-12)

    @pytest.mark.parametrize(
        "ladder, stop",
        [
            (GammaLadder([1.0, 0.6, 0.3], geometric=[(0.2, 0.5), (0.1, 0.9)]), 2000),
            (GammaLadder([1.0, 0.5], power=[(0.3, 5.0)]), 50_000),
            (GammaLadder([1.0], lipschitz=4.0), 50_000),
            (GammaLadder([1.0, 0.7], lipschitz=3.5, power=[(0.1, 6.0)]), 50_000),
        ],
        ids=["geometric", "power", "lipschitz", "lipschitz-head-power"],
    )
    def test_weighted_tails_are_the_sums_of_the_rungs(self, ladder, stop):
        # sum_{k>n} k^r Gamma_k for r = 0, 1, 2, against the rungs summed from
        # the far end; past ``stop`` the tail of a zeta term is left to an integral
        ks = np.arange(stop, 0, -1)
        rungs = np.array([ladder.level(int(k)) for k in ks])
        for r in (0, 1, 2):
            weighted = ks.astype(float) ** r * rungs
            beyond = sum(c * stop ** (r + 1.0 - p) / (p - r - 1.0) for c, p in ladder.power)
            if ladder.lipschitz is not None:
                beyond += stop ** (r + 1.0 - ladder.lipschitz) / (ladder.lipschitz - r - 1.0) / (1.0 - math.exp(-1.0))
            for n in (0, 1, 2, 3, 7, 40, 100):
                brute = float(weighted[: stop - n].sum()) + beyond
                assert ladder.tail(n, r) == pytest.approx(brute, rel=1e-6 if r == 2 else 1e-8)
        assert ladder.total == ladder.tail(0)

    def test_lipschitz_rungs_are_the_lattice_envelope(self):
        ladder = GammaLadder([1.0], lipschitz=4.5)
        for k in range(1, 300):
            assert ladder.level(k) == pytest.approx(lattice_gamma_bar(4.5, k), rel=1e-15)
        assert ladder.tail_err(10, 2) > 0.0 and ladder.tail_err(10, 2) < 1e-12 * ladder.tail(10, 2)

    @pytest.mark.parametrize("head, gamma", [((), 4.0), ((1.0,), 3.0)], ids=["no-head", "gamma-3"])
    def test_a_lipschitz_tail_needs_a_first_rung_and_gamma_above_3(self, head, gamma):
        with pytest.raises(ValueError, match="Lipschitz"):
            GammaLadder(head, lipschitz=gamma)

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


class TestLinearModelWeights:
    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(ring_with(0.3, 0.15), id="subcritical"),
            pytest.param(ring_with(0.5, 0.3), id="supercritical"),
            pytest.param(ring_with(0.3, 0.15, declared_bounds={i: 4.0 for i in range(4)}), id="declared-bounds"),
        ],
    )
    def test_default_family_without_weights(self, model):
        for i in range(4):
            assert same_family(model.weights[i], default_atomic_weights(model._incoming[i], 0.5))

    def test_sourceless_nodes_weigh_only_the_empty_set(self):
        # node 1 reads nothing and node 2 only a zero kernel
        kernels = {(0, 1): ExponentialKernel(0.2, 1.0), (2, 2): ExponentialKernel(0.0, 1.0)}
        m = LinearHawkesModel(mu={0: 0.5, 1: 0.5, 2: 0.5}, kernels=kernels, eps=0.5)
        assert m.weights[1].p_empty == m.weights[2].p_empty == 1.0
        assert m.weights[0].p_empty == 0.5
        # a zero kernel makes no proposal class
        assert [key for key, _, _ in m.proposal_classes(2)] == [EMPTY_ND]

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
        [halving_ladder(), GammaLadder(power=[(2.5, 4.0)]), GammaLadder([1.0], lipschitz=4.0)],
        ids=["auto", "power", "lipschitz"],
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

    def test_every_level_is_the_inverted_level_and_one_object(self):
        # a head, a geometric and a power term; the power tail sets the stop
        # level, about 70
        ladder = GammaLadder([1.0, 0.6, 0.3], geometric=[(0.2, 0.5)], power=[(0.1, 8.0)])
        stop = next(k for k in range(1, 1000) if ladder.tail(k) < 1e-15 * ladder.total)
        sums = [0.0]
        for k in range(1, stop + 1):
            sums.append(sums[-1] + ladder.level(k))
        # the middle of each level's stretch of the CDF, then draws at and past
        # the stop level's running sum
        sweep = [(lo + hi) / 2.0 / ladder.total for lo, hi in zip(sums, sums[1:])]
        sweep += [sums[-1] / ladder.total, 1.0 - 2.0**-53]
        sweep += sweep[::-1]  # the second half draws after every level was grown
        draws = self.Draws(sweep)
        got = [ladder.sample(draws) for _ in sweep]
        assert [d.k for d in got] == [walked_level(ladder, u * ladder.total) for u in sweep]
        # every level the doubles can tell apart is drawn, and nothing past the stop level
        resolved = {k for k in range(1, stop + 1) if ladder.level(k) > 1e-12 * ladder.total}
        assert resolved <= {d.k for d in got} and max(d.k for d in got) == stop
        # one descriptor per level, whichever draw reached it
        first = {}
        for d in got:
            assert first.setdefault(d.k, d) is d
