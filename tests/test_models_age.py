import hashlib
import itertools
import math
from collections import Counter
from functools import cache

import numpy as np
import pytest
from scipy import stats

from kalisim import (
    AffineRate,
    AtomND,
    Configuration,
    ExponentialKernel,
    GuardViolation,
    NestedND,
    PerfectRunStats,
    RandomStream,
    RegionLedger,
    StepKernel,
    evaluate_decomposition,
    lattice_preset,
    perfect_sample,
    perfect_sample_window,
)
from kalisim.errors import NonSummableError
from kalisim.models import AgeHawkesModel, OffspringRow, lattice_c_gamma, lattice_gamma_bar
from kalisim.models.presets import NEAR_MAX, DiagonalLattice, PowerLadderLattice
from kalisim import analysis, series, validation
from kalisim.validation import SuiteReport, law_pair


def finite_model(psi0=0.5, slope=0.5, alpha=0.8, beta=2.0, delta=0.5):
    return AgeHawkesModel(
        psi=AffineRate(psi0, slope),
        kernels={(0, 0): ExponentialKernel(alpha, beta)},
        refractory=delta,
        nodes=[0],
    )


def two_node_model(cls=AgeHawkesModel):
    """Node 1 drives node 0 through an exponential kernel and node 0 drives
    node 1 through a step kernel; node 0 lists three levels, node 1 the default
    two."""
    return cls(
        psi=AffineRate(0.4, 0.4),
        kernels={
            (0, 1): ExponentialKernel(alpha=0.5, beta=3.0),
            (1, 0): StepKernel(edges=[0.0, 0.4, 1.2], values=[0.4, 0.1]),
        },
        refractory=0.25,
        nodes=[0, 1],
        omega={0: [[0], [0, 1], [0, 1]]},
    )


def random_refractory_config(rng, delta=0.5, horizon=8.0, node=0):
    ts = []
    t = -rng.uniform(0, 1)
    while t > -horizon:
        ts.append(t)
        t -= delta + rng.uniform(0.05, 1.5)
    return Configuration({node: sorted(ts)})


class TestGammaBar:
    def test_lattice_values(self):
        assert lattice_gamma_bar(4.0, 1) == 1.0
        # (1 - e^{-k}) / (1 - e^{-1}) = 1 + e^{-1} + ... + e^{-(k-1)}
        assert lattice_gamma_bar(4.0, 2) == pytest.approx(1.0 + 2.0 * math.exp(-1.0))
        expect = (1.0 + math.exp(-1.0) + math.exp(-2.0)) / 16.0 + 2.0 * math.exp(-2.0)
        assert lattice_gamma_bar(4.0, 3) == pytest.approx(expect)

    def test_model_matches_closed_form(self):
        diagonal = DiagonalLattice(4.0, 1.0)
        for k in range(1, 30):
            assert diagonal.gamma_bar(0, k) == pytest.approx(lattice_gamma_bar(4.0, k), rel=1e-12)

    def test_c_gamma_dominates_envelope(self):
        for g in (3.5, 4.0, 5.0):
            c = lattice_c_gamma(g)
            for k in range(1, 400):
                assert c * k**-g >= lattice_gamma_bar(g, k) - 1e-12

    def test_finite_model_head(self):
        m = finite_model()
        assert m.gamma_bar(0, 1) == 0.5  # psi(0)
        # k >= 2: L * h((k-1) delta), no new nodes on a single-node network
        for k in (2, 3, 5):
            assert m.gamma_bar(0, k) == pytest.approx(0.5 * 0.8 * math.exp(-2.0 * 0.5 * (k - 1)))

    def test_gamma_bar_total_bound(self):
        # sum_k bar-Gamma_k <= psi(0) + 2L [sum_j h(0) + delta^{-1} sum_j |h|_1]
        g = 4.0
        total = sum(lattice_gamma_bar(g, k) for k in range(1, 2000))
        kernel_mass = 1.0 + series.zeta(g)  # sum_j beta_ij on the lattice
        bound = 1.0 + 2.0 * (kernel_mass + kernel_mass)  # delta = 1, |h|_1 = beta*delta
        assert total <= bound


class TestDeltaAndIntensity:
    def test_refractory_kills_intensity(self):
        m = finite_model(delta=0.5)
        x = Configuration({0: [-0.25]})
        assert m.intensity(0, x) == 0.0
        assert m.delta(0, NestedND(1), x) == 0.0

    def test_level_one_is_psi0(self):
        m = DiagonalLattice(4.0, 1.0)
        assert m.delta(0, NestedND(1), Configuration.empty()) == 1.0

    def test_nonnegative_and_bounded_by_gamma_bar(self):
        m = finite_model()
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = random_refractory_config(rng)
            for k in range(1, 10):
                d = m.delta(0, NestedND(k), x)
                assert d >= 0.0
                assert d <= m.gamma_bar(0, k) + 1e-12

    def test_telescoping_is_exact(self):
        m = finite_model()
        psi = AffineRate(0.5, 0.5)
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = random_refractory_config(rng)
            alive = x.count_in(0, -0.5, 0.0) == 0
            for n in (1, 2, 4, 8):
                partial = sum(m.delta(0, NestedND(k), x) for k in range(1, n + 1))
                drive = sum(0.8 * math.exp(2.0 * s) for s in x.points_in(0, -n * 0.5, 0.0))
                expect = psi(drive) if alive else 0.0
                assert partial == pytest.approx(expect, abs=1e-12)

    def test_kalikow_identity_within_tail(self):
        m = finite_model()
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = random_refractory_config(rng)
            target = m.intensity(0, x)
            for n in (1, 3, 8):
                part = evaluate_decomposition(m, 0, x, n)
                assert abs(target - part) <= m.ladder(0).tail(n) + 1e-12

    def test_guard_violation(self):
        m = finite_model(delta=0.5)
        bad = Configuration({0: [-0.8, -0.5]})
        with pytest.raises(GuardViolation):
            evaluate_decomposition(m, 0, bad, 3)


class TestWeights:
    def test_level_weights_normalize(self):
        m = finite_model()
        head = sum(m.pmf(0, NestedND(k)) for k in range(1, 60))
        ladder = m.ladder(0)
        assert head + ladder.tail(59) / ladder.total == pytest.approx(1.0, abs=1e-12)
        assert head == pytest.approx(1.0, abs=1e-9)

    def test_lattice_power_law_sampler(self):
        # level 1 carries Gamma_1 / Gamma = 1 / 3.294 of the Lipschitz ladder
        m = DiagonalLattice(4.0, 0.01)
        rng = RandomStream(6)
        p1 = 1.0 / m.global_bound(0)
        n = 100_000
        hits = sum(1 for _ in range(n) if m.sample_neighborhood(0, rng).k == 1)
        assert abs(hits / n - p1) < 3 * math.sqrt(p1 * (1 - p1) / n)

    def test_component_value_zero_over_zero(self):
        m = finite_model()
        # deep levels of an all-step-kernel model can carry zero weight; here
        # weights are positive everywhere, so just check the ratio identity
        x = Configuration({0: [-1.2]})
        k = 3
        lam = m.pmf(0, NestedND(k))
        assert m.component_value(0, NestedND(k), x) == pytest.approx(
            m.delta(0, NestedND(k), x) / lam
        )


class TestBoundsAndExpansion:
    def test_global_bound_closed_form(self):
        m = finite_model()
        expect = 0.5 + 0.4 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert m.global_bound(0) == pytest.approx(expect, rel=1e-12)

    def test_lattice_bound(self):
        # Gamma = 1 + zeta(4) / (1 - e^{-1}) + sum_{m>=1} e^{-m} (1 + H_4(m-1) - m^{-4} / (e - 1)),
        # zeta(4) = pi^4/90
        m = lattice_preset(4.0, 0.005)
        exp_part = sum(math.exp(-j) * (1.0 + sum(r**-4.0 for r in range(1, j)) - j**-4.0 / (math.e - 1.0))
                       for j in range(1, 60))
        zeta_part = math.pi**4 / 90.0 / (1.0 - math.exp(-1.0))
        assert m.global_bound(0) == pytest.approx(1.0 + zeta_part + exp_part, rel=1e-14)
        assert m.global_bound(0) == pytest.approx(3.294, abs=1e-3)

    def test_local_bound_is_global(self):
        m = finite_model()
        assert m.local_bound(0, Configuration({0: [-0.7]})) == m.global_bound(0)

    def test_expansion_geometry(self):
        # level 3 of the diagonal is (R, D) = (2, 3); an atom is its bin and node i's own bin
        diagonal = DiagonalLattice(4.0, 0.25)
        assert list(diagonal.expand(5, NestedND(3)).by_node()) == [(j, ((-0.75, 0.0),)) for j in (3, 4, 5, 6, 7)]
        assert list(diagonal.expand(5, NestedND(16)).by_node()) == [(j, ((-4.0, 0.0),)) for j in range(-10, 21)]
        atoms = lattice_preset(4.0, 0.25)
        assert list(atoms.expand(5, AtomND(5, 1)).by_node()) == [(5, ((-0.25, 0.0),))]
        assert list(atoms.expand(5, AtomND(5, 2)).by_node()) == [(5, ((-0.5, 0.0),))]
        assert list(atoms.expand(5, AtomND(5, 4)).by_node()) == [(5, ((-1.0, -0.75), (-0.25, 0.0)))]
        assert list(atoms.expand(5, AtomND(2, 3)).by_node()) == [(2, ((-0.75, -0.5),)), (5, ((-0.25, 0.0),))]
        assert atoms.expand(5, AtomND(2, 3)) is atoms.expand(5, AtomND(2, 3))

    def test_components_below_global_bound_on_refractory_configs(self):
        m = finite_model()
        gamma = m.global_bound(0)
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = random_refractory_config(rng)
            for k in range(1, 12):
                assert m.component_value(0, NestedND(k), x) <= gamma + 1e-9


LATTICES = {"atoms": lambda delta=0.005: lattice_preset(4.0, delta),
            "diagonal": lambda delta=0.005: DiagonalLattice(4.0, delta)}


class TestLatticeOffspring:
    """The closed-form rows of both lattice decompositions: the preset's atoms
    and the diagonal levels."""

    def test_row_symmetry_and_total(self):
        for m in (make() for make in LATTICES.values()):
            row = m.offspring_row(0, tol=1e-10)
            assert row.err < 1e-10
            for d in (1, 2, 5):
                assert row.near[d] == pytest.approx(row.near[-d])
            total = sum(row.near.values()) + row.far
            assert total == pytest.approx(m.invariant_offspring_mean(), rel=1e-6)

    def test_far_mass_is_exact_at_every_reach(self):
        # near reaches further as tol drops; near + far must not move
        for m in (make() for make in LATTICES.values()):
            rows = [m.offspring_row(0, tol=tol) for tol in (1e-3, 1e-5, 1e-7)]
            assert len(rows[0].near) < len(rows[1].near) < len(rows[2].near)
            for tol, row in zip((1e-3, 1e-5, 1e-7), rows):
                assert min(row.near.values()) >= tol
                total = sum(row.near.values()) + row.far
                assert total == pytest.approx(m.invariant_offspring_mean(), rel=1e-12)

    def test_slowly_decaying_row_stops_listing(self):
        # the diagonal's entries decay like 2 delta d^(2-gamma)/(gamma-2): about 1e6 distances stay above tol
        m = DiagonalLattice(3.0001, 0.005)
        row = m.offspring_row(0)
        assert len(row.near) == 2 * NEAR_MAX + 1
        assert sum(row.near.values()) + row.far == pytest.approx(m.invariant_offspring_mean(), rel=1e-9)
        # the atoms' entries decay like delta d^-gamma / (2 (1 - e^-1)): 73 distances on each side
        atoms = lattice_preset(3.0001, 0.005)
        row = atoms.offspring_row(0)
        assert len(row.near) == 2 * 73 + 1
        assert sum(row.near.values()) + row.far == pytest.approx(atoms.invariant_offspring_mean(), rel=1e-9)

    def test_tol_below_certified_precision_is_refused(self):
        # the atoms' far mass is certified far below the diagonal's
        for make, tol in ((LATTICES["atoms"], 1e-300), (LATTICES["diagonal"], 1e-20)):
            with pytest.raises(NonSummableError):
                make().offspring_row(0, tol=tol)

    def test_branching_matrix_on_a_lattice_sample(self):
        # used to raise "offspring row did not converge" after seconds
        for m in (make() for make in LATTICES.values()):
            near = m.offspring_row(0, tol=analysis.ANALYSIS_TOL).near
            mat = analysis.branching_matrix(m, [-1, 0, 1])
            assert mat[1, 1] == near[0]
            assert mat[1, 0] == near[-1]
            assert mat[1, 2] == near[1]
            assert mat[0, 2] == near[2]

    def test_off_sample_mass_includes_far_mass(self):
        for m in (make() for make in LATTICES.values()):
            row = m.offspring_row(0, tol=analysis.ANALYSIS_TOL)
            mat, off, _ = analysis._matrix_with_offmass(m, [-1, 0, 1])
            listed_off = sum(v for j, v in row.near.items() if j not in (-1, 0, 1))
            assert off[1] == pytest.approx(listed_off + row.far + row.err, rel=1e-12)
            assert mat[1].sum() + off[1] >= m.invariant_offspring_mean() * (1 - 1e-12)

    def test_finite_rows_list_everything(self):
        row = finite_model().offspring_row(0)
        assert isinstance(row, OffspringRow)
        assert set(row.near) == {0}
        assert row.far == 0.0 and row.err == 0.0


@cache
def fresh_clan_mean(kind, delta):
    """Mean and standard error of 4 000 fresh-ledger clan sizes, and E(W)."""
    m = LATTICES[kind](delta)
    sizes = validation._clan_sizes(m, 4_000, 11, validation.BackwardBudget())
    return sizes.mean(), sizes.std(ddof=1) / math.sqrt(len(sizes)), 1.0 / (1.0 - m.invariant_offspring_mean())


class TestNesting:
    """The lattice's nested decompositions on the diagonal levels (R, D) =
    (k - 1, k), against the preset's atoms."""

    def test_levels_are_the_diagonal(self):
        m = DiagonalLattice(4.0, 0.005)
        assert [m.level(k) for k in (1, 2, 16)] == [(0, 1), (1, 2), (15, 16)]
        assert [m.omega(0, k) for k in (1, 2, 16)] == [(0,), (-1, 0, 1), tuple(range(-15, 16))]
        assert [m.depth(0, k) for k in (1, 2, 16)] == [1, 2, 16]

    @pytest.mark.parametrize("make", LATTICES.values(), ids=LATTICES.keys())
    def test_the_rungs_sum_to_the_packed_past_sup(self, make):
        m = make()
        sup = 1.0 + 1.0 / math.expm1(1.0) + series.zeta(4.0) / -math.expm1(-1.0)
        assert m.global_bound(0) == pytest.approx(sup, rel=1e-14)
        if isinstance(m, DiagonalLattice):
            ladder = m.ladder(0)
            assert ladder.level(1) + ladder.tail(1) == pytest.approx(sup, rel=1e-14)

    @pytest.mark.parametrize("make, args", [(DiagonalLattice, (4.0, 0.005)), (PowerLadderLattice, (4.0, 4.0, 0.005))],
                             ids=["diagonal", "power"])
    def test_the_mean_is_the_closed_form_row_total(self, make, args):
        m = make(*args)
        mean = m.invariant_offspring_mean()
        for tol in (1e-3, 1e-6, 1e-10):
            row = m.offspring_row(0, tol=tol)
            assert sum(row.near.values()) + row.far == pytest.approx(mean, rel=1e-12)
        # the volumes summed level by level, and the diagonal remainder
        # sum_{n>N} (2n - 1) n bar-Gamma_n = 2 / (N (1 - e^{-1})) + O(N^-2) beyond level N
        n = 5_000
        volumes = sum((2 * r + 1) * d * m.ladder(0).level(k) for k in range(1, n + 1) for r, d in [m.level(k)])
        c = lattice_c_gamma(4.0) if make is PowerLadderLattice else 1.0 / -math.expm1(-1.0)
        assert m.refractory * (volumes + 2.0 * c / m.level(n)[1]) == pytest.approx(mean, rel=1e-6)

    def test_the_atoms_cut_the_offspring_mean_and_the_nodes_per_draw(self):
        m, diagonal = lattice_preset(4.0, 0.005), DiagonalLattice(4.0, 0.005)
        gam = m.global_bound(0)
        assert m.invariant_offspring_mean() == pytest.approx(0.005 * (2.0 * gam - 1.0), rel=1e-15)
        assert 1.0 / (1.0 - m.invariant_offspring_mean()) == pytest.approx(1.0287, abs=1e-4)
        assert 1.0 / (1.0 - diagonal.invariant_offspring_mean()) == pytest.approx(1.1423, abs=1e-4)
        assert m.nodes_per_neighborhood() == pytest.approx(1.520, abs=1e-3)
        assert diagonal.nodes_per_neighborhood() == pytest.approx(2.924, abs=1e-3)
        # the same Gamma, within rounding
        assert gam == pytest.approx(diagonal.global_bound(0), rel=1e-14)

    @pytest.mark.parametrize("kind, delta", [("atoms", 0.005), ("atoms", 0.05), ("atoms", 0.15), ("diagonal", 0.005)])
    def test_fresh_ledger_clans_stay_below_their_own_expected_size(self, kind, delta):
        # E(W) bounds the clan from above (kalisim.analysis), so the check is
        # one-sided: clans sit measurably below E(W) at 40 000 runs
        mean, se, ew = fresh_clan_mean(kind, delta)
        assert mean <= ew + 4.0 * se

    def test_fresh_ledger_clans_of_the_atoms_are_smaller(self):
        assert fresh_clan_mean("atoms", 0.005)[0] < fresh_clan_mean("diagonal", 0.005)[0]


def packed_atom_past(rng, nodes, delta, target, bins=8):
    """Each node's points just past ages 0, delta, 2 delta, ...: the m-th at
    age m delta + eta_m, eta increasing and below delta/100, so every gap just
    exceeds delta and each bin holds a point near its near edge; a point is
    left out with probability 1/5. The target node starts at age delta + eta_1,
    so it is alive."""
    pts = {}
    for j in nodes:
        eta = np.cumsum(rng.uniform(0.0, 1.0, bins)) * 10.0 ** rng.uniform(-9.0, -3.0) * delta
        pts[j] = sorted(-(m * delta + eta[m]) for m in range(1 if j == target else 0, bins) if rng.uniform() > 0.2)
    return Configuration(pts)


class TestLatticeAtoms:
    """The preset's atoms: the base set {i} x [-delta, 0), and the atom (j, n),
    node j's bin [-n delta, -(n-1) delta) with the base set."""

    def test_the_atoms_sum_to_the_intensity(self):
        # on a refractory past, the base set and the atoms whose bins hold a point make up the intensity
        m = lattice_preset(4.0, 0.005)
        rng = np.random.default_rng(41)
        alive = 0
        for _ in range(60):
            x = random_refractory_past(rng, range(-4, 5), 0.005, 10 * 0.005)
            for i in (-1, 0, 3):
                atoms = [AtomND(i, 1)] + [AtomND(j, n) for j in range(-4, 5) for n in range(1, 12) if (j, n) != (i, 1)]
                total = sum(m.pmf(i, a) * m.component_value(i, a, x) for a in atoms)
                assert total == pytest.approx(m.intensity(i, x), rel=1e-12, abs=1e-15)
                alive += m.intensity(i, x) > 1.0
        assert alive > 20

    def test_packed_pasts_stay_below_the_atom_sups(self):
        # a bin holds at most one point of a refractory past, so an atom's
        # value is at most its sup pmf * Gamma; packed pasts come within 1% of it
        m = lattice_preset(4.0, 0.005)
        gam = m.global_bound(0)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = packed_atom_past(rng, range(-3, 4), 0.005, 0)
            for j in range(-3, 4):
                for n in range(1, 9):
                    a = AtomND(j, n)
                    value = m.component_value(0, a, x)
                    assert value <= gam * (1.0 + 1e-14)
                    if (j, n) != (0, 1):
                        worst = max(worst, value / gam)
        assert worst > 0.99

    def test_the_weights_sum_to_one(self):
        m = lattice_preset(4.0, 0.005)
        listed = sum(m.pmf(0, a) for a in itertools.islice(m.enumerate_descriptors(0), 200_000))
        assert listed == pytest.approx(1.0, abs=1e-4)
        assert m.pmf(0, AtomND(0, 1)) == 1.0 / m.global_bound(0)
        assert m.pmf(0, AtomND(2, 3)) == 0.5 / 2**4 * math.exp(-2.0) / m.global_bound(0)
        assert m.pmf(0, NestedND(1)) == 0.0

    def test_the_draw_has_the_pmf_law(self):
        # chi-square over the base set, the own bins n = 2 and n >= 3, and the
        # bins n = 1, 2 and >= 3 on each side
        m = lattice_preset(4.0, 0.005)
        gam, e1, zeta = m.global_bound(0), math.exp(-1.0), series.zeta(4.0)
        own, side = 1.0 / math.expm1(1.0), 0.5 * zeta / -math.expm1(-1.0)
        probs = [1.0, e1, own - e1] + 2 * [0.5 * zeta, 0.5 * zeta * e1, side - 0.5 * zeta * (1.0 + e1)]
        draws = 200_000
        counts = Counter()
        rng = RandomStream(43)
        for _ in range(draws):
            a = m.sample_neighborhood(0, rng)
            side_of = 0 if a.j == 0 else (1 if a.j < 0 else 2)
            counts[side_of, min(a.n, 3) if side_of == 0 else min(a.n, 3) - 1] += 1
        cells = [(0, 1), (0, 2), (0, 3)] + [(s, n) for s in (1, 2) for n in (0, 1, 2)]
        observed = np.array([counts[c] for c in cells])
        assert observed.sum() == draws
        expected = draws * np.array(probs) / gam
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_the_distance_draw_is_the_zeta_law(self):
        # Devroye's rejection sampler against d^-gamma / zeta(gamma), the tail d > 20 as one cell
        m = lattice_preset(4.0, 0.005)
        rng = RandomStream(44)
        draws = 1_000_000
        counts = Counter(min(m.distance(rng), 21) for _ in range(draws))
        zeta = series.zeta(4.0)
        probs = [d**-4.0 / zeta for d in range(1, 21)] + [series.zeta_tail(4.0, 20) / zeta]
        observed = np.array([counts[d] for d in range(1, 22)])
        expected = draws * np.array(probs)
        assert expected.min() > 5.0
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_the_offspring_row_is_the_sum_over_atoms(self):
        # each atom (j, n) adds lambda Gamma times its volume on each node:
        # delta on node i, whose weights sum to 1, and delta on node j
        m = lattice_preset(4.0, 0.005)
        gam, dlt = m.global_bound(0), 0.005
        brute = Counter({0: gam * dlt})
        for j in range(-30, 31):
            for n in range(1 if j else 2, 60):
                brute[j] += m.pmf(0, AtomND(j, n)) * gam * dlt
        row = m.offspring_row(0, tol=1e-12)
        for j in range(-30, 31):
            assert row.near[j] == pytest.approx(brute[j], rel=1e-12)
        # the closed forms: M_ii = delta (Gamma + 1/(e-1)), M_{i,i+d} = delta beta_d / (1 - e^-1)
        assert row.near[0] == pytest.approx(dlt * (gam + 1.0 / math.expm1(1.0)), rel=1e-15)
        assert row.near[3] == pytest.approx(dlt * 0.5 / 3**4 / -math.expm1(-1.0), rel=1e-15)


class CountingLedger(RegionLedger):
    """A ledger that counts its ``realize_new`` requests root by root: a
    sweep calls ``advance`` once for each root and once past the last."""

    def __init__(self):
        super().__init__()
        self.per_root: list[int] = []
        self._requests, self._mark = 0, None

    def realize_new(self, *args):
        self._requests += 1
        return super().realize_new(*args)

    def advance(self, *args):
        if self._mark is not None:
            self.per_root.append(self._requests - self._mark)
        rec = super().advance(*args)
        self._mark = None if rec is None else self._requests
        return rec


@cache
def requests_per_root(kind):
    """Mean and standard error of the ledger requests per root over 40 sweeps
    of [0, 10), and the bound nodes per neighbourhood times E(W)."""
    m = LATTICES[kind]()
    counts = []
    for seed in range(40):
        ledger, run = CountingLedger(), PerfectRunStats()
        perfect_sample(m, 0, 10.0, RandomStream(seed), ledger=ledger, stats=run)
        assert len(ledger.per_root) == run.roots
        counts += ledger.per_root
    bound = m.nodes_per_neighborhood() / (1.0 - m.invariant_offspring_mean())
    return np.mean(counts), np.std(counts, ddof=1) / math.sqrt(len(counts)), bound


@pytest.mark.parametrize("kind", LATTICES)
def test_ledger_requests_per_root_stay_below_nodes_times_the_clan(kind):
    # a point's own draw does not depend on its being in the clan, and E(W)
    # bounds the mean clan, so requests per root are at most nodes * E(W)
    mean, se, bound = requests_per_root(kind)
    assert mean <= bound + 4.0 * se


def test_the_atoms_request_fewer_regions_per_root():
    assert requests_per_root("atoms")[0] < requests_per_root("diagonal")[0]


def drive_walk(m, i, k, x):
    """The drive truncated to v_k, from a walk of that level alone."""
    total = 0.0
    for j in m.omega(i, k):
        ker = m.kernel(i, j)
        if ker is not None:
            for s in x.points_in(j, -m.depth(i, k) * m.refractory, 0.0):
                total += ker(-s)
    return total


def random_refractory_past(rng, nodes, delta, depth):
    """Points on ``nodes`` over [-depth, 0), each node's gaps in (delta, 2 delta)."""
    pts = {}
    for j in nodes:
        ts, t = [], -rng.uniform(0.0, 2.0 * delta)
        while t > -depth:
            ts.append(t)
            t -= delta * (1.0 + rng.uniform(1e-6, 1.0))
        pts[j] = sorted(ts)
    return Configuration(pts)


class TestDrives:
    """One walk gives both truncated drives, each as its own level's walk
    would sum it, bit for bit."""

    def test_lattice(self):
        # the first diagonal levels; a level of depth 1 may hold no point
        m = DiagonalLattice(4.0, 0.005)
        rng = np.random.default_rng(21)
        for _ in range(40):
            x = random_refractory_past(rng, range(-11, 14), 0.005, 10 * 0.005)
            for i in (-1, 0, 2):
                for k in range(2, 18):
                    prev, cur = m._drives(i, k, x)
                    assert cur > 0.0 or m.depth(i, k) == 1
                    assert (prev, cur) == (drive_walk(m, i, k - 1, x), drive_walk(m, i, k, x))

    def test_two_node_model(self):
        m = two_node_model()
        rng = np.random.default_rng(22)
        for _ in range(40):
            x = random_refractory_past(rng, (0, 1), 0.25, 6 * 0.25)
            for i in (0, 1):
                for k in range(2, 7):
                    assert m._drives(i, k, x) == (drive_walk(m, i, k - 1, x), drive_walk(m, i, k, x))

    def test_lattice_kernels_are_built_once_per_distance(self):
        m = lattice_preset(4.0, 0.005)
        assert m.kernel(0, 3) is m.kernel(5, 2)
        assert m.kernel(4, 4) is m.kernel(-1, -1)
        assert (m.kernel(0, 3).alpha, m.kernel(0, 3).beta) == (0.5 / 3**4.0, 1.0 / 0.005)


def test_a_node_entering_after_a_repeated_level_is_in_the_offspring_row():
    # omega_2 = omega_1, and node 1 enters at level 3
    m = AgeHawkesModel(
        psi=AffineRate(0.4, 0.4),
        kernels={(0, 1): ExponentialKernel(alpha=0.5, beta=3.0)},
        refractory=0.25,
        nodes=[0, 1],
        omega={0: [[0], [0], [0, 1]]},
    )
    lad = m.ladder(0)
    row = m.offspring_row(0).near
    assert row[0] == m.global_bound(0) * 0.25 * (lad.tail(0, 1) / lad.total)
    assert row[1] == m.global_bound(1) * 0.25 * (lad.tail(2, 1) / lad.total)


class TestGoldenTwoNodeAge:
    """Seeded outputs and branching values of the two-node model, bit for bit:
    custom levels, a step-kernel head and drives read across both nodes."""

    @pytest.mark.parametrize(
        "seed, node, count, ends, digest, stats",
        [
            (1, 0, 18, (0.9339424037805668, 28.598895184286263),
             "bdb4917871a31cb11f27d6f14a734699c9b752f1b4c180a8c2b378fa109bfaad",
             {"roots": 30, "accepted": 18,
              "clan_size_histogram": {"1": 26, "2": 4},
              "mean_clan_size": 1.1333333333333333, "max_lookback": 1.0437680506062001,
              "mean_lookback": 0.41312509380198564}),
            (2, 1, 8, (5.097444142086881, 19.157624531536726),
             "ca340bb1599a3147482fbe1c5ddf42c818090ec990aaf4692e173db6f5a5936a",
             {"roots": 22, "accepted": 8,
              "clan_size_histogram": {"1": 18, "2": 3, "4": 1},
              "mean_clan_size": 1.2727272727272727, "max_lookback": 1.5289073781631224,
              "mean_lookback": 0.48155985594713174}),
        ],
        ids=["seed1-node0", "seed2-node1"],
    )
    def test_perfect_sample(self, seed, node, count, ends, digest, stats):
        run = PerfectRunStats()
        pts = perfect_sample(two_node_model(), node, 30.0, RandomStream(seed), stats=run).points(node)
        assert len(pts) == count
        assert (pts[0], pts[-1]) == ends
        assert hashlib.sha256(",".join(map(float.hex, pts)).encode()).hexdigest() == digest
        assert run.to_json() == stats

    def test_offspring_rows_and_gamma(self):
        m = two_node_model()
        rows = {i: m.offspring_row(i) for i in (0, 1)}
        assert {i: {j: v.hex() for j, v in row.near.items()} for i, row in rows.items()} == {
            0: {0: "0x1.51828ed020242p-2", 1: "0x1.fb01f19db7aeep-3"},
            1: {0: "0x1.09ea84787d362p-2", 1: "0x1.851eb851eb853p-2"},
        }
        assert all(row.far == 0.0 and row.err == 0.0 for row in rows.values())
        verdict = analysis.subcriticality_gamma(m)
        assert verdict.gamma.hex() == "0x1.47849e65345dap-1"
        assert {i: g.hex() for i, g in verdict.per_node.items()} == {
            0: "0x1.2781c3cf7dfdcp-1", 1: "0x1.47849e65345dap-1"
        }


def kernel_mass(ker):
    """|h|_1 of an exponential or step kernel."""
    if isinstance(ker, ExponentialKernel):
        return ker.alpha / ker.beta
    return sum(v * (b - a) for v, a, b in zip(ker.values, ker.edges, ker.edges[1:]))


class EntryMassEnvelope(AgeHawkesModel):
    """The age model on a larger envelope: a node entering at level k adds
    h(0) + |h|_1 / delta, which bounds its drive without counting its points.
    A second decomposition of the same intensity."""

    def gamma_bar(self, i, k):
        if k == 1:
            return super().gamma_bar(i, k)
        present = set(self.omega(i, k - 1))
        total = 0.0
        for j in self.omega(i, k):
            ker = self.kernel(i, j)
            if ker is not None:
                total += ker((k - 1) * self.refractory) if j in present else ker(0.0) + kernel_mass(ker) / self.refractory
        return self.psi(i).lipschitz * total


def test_the_refractory_envelope_keeps_the_law_of_the_two_node_model():
    # node-0 and node-1 counts on [0, 10), 1 200 runs an arm (about 2 s)
    sharp, loose = two_node_model(), two_node_model(EntryMassEnvelope)
    assert all(sharp.global_bound(i) < loose.global_bound(i) for i in (0, 1))
    root = RandomStream(5)

    def counts(arm, model):
        runs = (perfect_sample_window(model, [(0, (0.0, 10.0)), (1, (0.0, 10.0))], root.child(arm, r))
                for r in range(1_200))
        return [[len(x.points(0)), len(x.points(1))] for x in runs]

    rep = SuiteReport("finite-age pair", 5)
    law_pair(rep, "two-node age", counts(0, sharp), counts(1, loose))
    assert rep.passed, rep.render()


class TestZetaTailError:
    @pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0, 8.0, 12.0])
    @pytest.mark.parametrize("n", [0, 5, 63, 64, 100, 3078])
    def test_bound_covers_the_error(self, s, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            exact = mpmath.zeta(s, n + 1)
            assert abs(mpmath.mpf(series.zeta_tail(s, n)) - exact) <= series.zeta_tail_err(s, n)


def packed_refractory_past(rng, nodes, delta, target, levels=8):
    """Each node's points just past ages 0, delta, 2 delta, ...: the m-th at
    age m delta + eta_m, eta increasing and below delta/100 (each node draws
    its scale between 1e-9 delta and 1e-3 delta), so every gap just exceeds
    delta; a point is left out with probability 1/5. The target node starts
    at age delta + eta_1, so it is alive."""
    pts = {}
    for j in nodes:
        eta = np.cumsum(rng.uniform(0.0, 1.0, levels)) * 10.0 ** rng.uniform(-9.0, -3.0) * delta
        pts[j] = sorted(-(m * delta + eta[m]) for m in range(1 if j == target else 0, levels) if rng.uniform() > 0.2)
    return Configuration(pts)


@pytest.mark.parametrize(
    "make, nodes, targets",
    [(lambda: DiagonalLattice(4.0, 0.005), range(-12, 13), (0, 3)),
     (two_node_model, (0, 1), (0, 1))],
    ids=["diagonal-lattice", "exp-step"],
)
def test_packed_pasts_stay_below_the_simulated_ladder(make, nodes, targets):
    # bar-Gamma_k bounds the level-k contribution over refractory pasts, and
    # the ladder simulated on is bar-Gamma_k itself, with no slack to spare:
    # packed pasts come within 1% of it, and a step kernel attains it up to
    # the rounding of psi(cur) - psi(prev). Every head level is checked, and
    # at least the first eight.
    m = make()
    rng = np.random.default_rng(31)
    worst = 0.0
    levels = max(8, m.ladder(0).k_head)
    for _ in range(200):
        for i in targets:
            x = packed_refractory_past(rng, nodes, m.refractory, i, levels=m.depth(i, levels))
            for k in range(1, levels + 1):
                value, bound = m.delta(i, NestedND(k), x), m.gamma_bar(i, k)
                assert value <= bound * (1.0 + 1e-12)
                assert m.ladder(i).level(k) == pytest.approx(bound, rel=1e-12)
                if k >= 2 and bound > 0.0:
                    worst = max(worst, value / bound)
    assert worst > 0.9
