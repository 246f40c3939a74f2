import hashlib
import math

import numpy as np
import pytest

from kalisim import (
    AffineRate,
    Configuration,
    ExponentialKernel,
    GuardViolation,
    NestedND,
    PerfectRunStats,
    RandomStream,
    StepKernel,
    evaluate_decomposition,
    lattice_preset,
    perfect_sample,
    perfect_sample_window,
)
from kalisim.errors import NonSummableError
from kalisim.models import AgeHawkesModel, OffspringRow, lattice_c_gamma, lattice_gamma_bar
from kalisim.models.presets import NEAR_MAX, NESTING_GRID, DiagonalLattice, PowerLadderLattice, lattice_envelope
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
        # the diagonal levels' rungs, and every level's rung as the increment of F
        diagonal, m = DiagonalLattice(4.0, 1.0), lattice_preset(4.0, 1.0)
        for k in range(1, 30):
            assert diagonal.gamma_bar(0, k) == pytest.approx(lattice_gamma_bar(4.0, k), rel=1e-12)
            before = lattice_envelope(4.0, *m.level(k - 1)) if k > 1 else 0.0
            assert m.gamma_bar(0, k) == pytest.approx(lattice_envelope(4.0, *m.level(k)) - before, rel=1e-12)

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
        m = lattice_preset(4.0, 1.0)
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
        m = lattice_preset(4.0, 0.01)
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
        # level 3 is (R, D) = (1, 2) on the preset's nesting, (2, 3) on the diagonal
        m = lattice_preset(4.0, 0.25)
        assert list(m.expand(5, NestedND(3)).by_node()) == [(j, ((-0.5, 0.0),)) for j in (4, 5, 6)]
        assert list(m.expand(5, NestedND(16)).by_node()) == [(j, ((-2.25, 0.0),)) for j in range(-3, 14)]
        diagonal = DiagonalLattice(4.0, 0.25)
        assert list(diagonal.expand(5, NestedND(3)).by_node()) == [(j, ((-0.75, 0.0),)) for j in (3, 4, 5, 6, 7)]

    def test_components_below_global_bound_on_refractory_configs(self):
        m = finite_model()
        gamma = m.global_bound(0)
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = random_refractory_config(rng)
            for k in range(1, 12):
                assert m.component_value(0, NestedND(k), x) <= gamma + 1e-9


class TestLatticeOffspring:
    def test_row_symmetry_and_total(self):
        m = lattice_preset(4.0, 0.005)
        row = m.offspring_row(0, tol=1e-10)
        assert row.err < 1e-10
        for d in (1, 2, 5):
            assert row.near[d] == pytest.approx(row.near[-d])
        total = sum(row.near.values()) + row.far
        assert total == pytest.approx(m.invariant_offspring_mean(), rel=1e-6)

    def test_far_mass_is_exact_at_every_reach(self):
        # near reaches further as tol drops; near + far must not move
        m = lattice_preset(4.0, 0.005)
        rows = [m.offspring_row(0, tol=tol) for tol in (1e-3, 1e-5, 1e-7)]
        assert len(rows[0].near) < len(rows[1].near) < len(rows[2].near)
        for tol, row in zip((1e-3, 1e-5, 1e-7), rows):
            assert min(row.near.values()) >= tol
            total = sum(row.near.values()) + row.far
            assert total == pytest.approx(m.invariant_offspring_mean(), rel=1e-12)

    def test_slowly_decaying_row_stops_listing(self):
        # entries decay like 2 delta d^(2-gamma)/(gamma-2): about 1e6 distances stay above tol
        m = lattice_preset(3.0001, 0.005)
        row = m.offspring_row(0)
        assert len(row.near) == 2 * NEAR_MAX + 1
        assert sum(row.near.values()) + row.far == pytest.approx(
            m.invariant_offspring_mean(), rel=1e-9
        )

    def test_tol_below_certified_precision_is_refused(self):
        with pytest.raises(NonSummableError):
            lattice_preset(4.0, 0.005).offspring_row(0, tol=1e-20)

    def test_branching_matrix_on_a_lattice_sample(self):
        # used to raise "offspring row did not converge" after seconds
        m = lattice_preset(4.0, 0.005)
        near = m.offspring_row(0, tol=analysis.ANALYSIS_TOL).near
        mat = analysis.branching_matrix(m, [-1, 0, 1])
        assert mat[1, 1] == near[0]
        assert mat[1, 0] == near[-1]
        assert mat[1, 2] == near[1]
        assert mat[0, 2] == near[2]

    def test_off_sample_mass_includes_far_mass(self):
        m = lattice_preset(4.0, 0.005)
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


class TestNesting:
    """The preset's levels (R, D): a searched head, then the diagonal."""

    def test_levels_are_a_monotone_path_of_unit_steps_that_rejoins_the_diagonal(self):
        m = lattice_preset(4.0, 0.005)
        levels = [m.level(k) for k in range(1, len(m.head) + 30)]
        assert levels[0] == (0, 1)
        steps = [(r1 - r0, d1 - d0) for (r0, d0), (r1, d1) in zip(levels, levels[1:])]
        head = len(m.head)
        assert set(steps[: head - 1]) == {(1, 0), (0, 1)}
        assert levels[head - 1] == (NESTING_GRID - 1, NESTING_GRID)
        assert set(steps[head - 1:]) == {(1, 1)}
        assert m.head == ((0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6),
                          (3, 6), (3, 7), (4, 7), (4, 8), (5, 8), (6, 8), (7, 8))
        assert [m.omega(0, k) for k in (1, 2, 16)] == [(0,), (-1, 0, 1), tuple(range(-8, 9))]
        assert [m.depth(0, k) for k in (1, 2, 16)] == [1, 1, 9]

    @pytest.mark.parametrize("make", [lattice_preset, DiagonalLattice], ids=["searched", "diagonal"])
    def test_the_rungs_sum_to_the_packed_past_sup(self, make):
        m = make(4.0, 0.005)
        ladder = m.ladder(0)
        sup = 1.0 + 1.0 / math.expm1(1.0) + series.zeta(4.0) / -math.expm1(-1.0)
        assert ladder.total == pytest.approx(sup, rel=1e-14)
        head = sum(ladder.level(k) for k in range(1, len(m.head) + 1))
        assert head + ladder.tail(len(m.head)) == pytest.approx(sup, rel=1e-14)

    @pytest.mark.parametrize("make, args", [(lattice_preset, (4.0, 0.005)), (DiagonalLattice, (4.0, 0.005)),
                                            (PowerLadderLattice, (4.0, 4.0, 0.005))],
                             ids=["searched", "diagonal", "power"])
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

    def test_the_search_cuts_the_offspring_mean_and_the_nodes_per_draw(self):
        m, diagonal = lattice_preset(4.0, 0.005), DiagonalLattice(4.0, 0.005)
        assert 1.0 / (1.0 - m.invariant_offspring_mean()) == pytest.approx(1.0991, abs=1e-4)
        assert 1.0 / (1.0 - diagonal.invariant_offspring_mean()) == pytest.approx(1.1423, abs=1e-4)
        assert m.nodes_per_neighborhood() == pytest.approx(2.553, abs=1e-3)
        assert diagonal.nodes_per_neighborhood() == pytest.approx(2.924, abs=1e-3)
        # the same Gamma, within rounding
        assert m.global_bound(0) == pytest.approx(diagonal.global_bound(0), rel=1e-14)

    def test_fresh_ledger_clans_stay_below_their_own_expected_size(self):
        # E(W) bounds the clan from above (kalisim.analysis), so the check is
        # one-sided: clans sit measurably below E(W) at 40 000 runs
        means = {}
        for name, m in (("searched", lattice_preset(4.0, 0.005)), ("diagonal", DiagonalLattice(4.0, 0.005))):
            sizes = validation._clan_sizes(m, 4_000, 11, validation.BackwardBudget())
            mean, se = sizes.mean(), sizes.std(ddof=1) / math.sqrt(len(sizes))
            assert mean <= 1.0 / (1.0 - m.invariant_offspring_mean()) + 4.0 * se
            means[name] = mean
        assert means["searched"] < means["diagonal"]


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
        # every head level and the first diagonal ones; a level of depth 1 may hold no point
        m = lattice_preset(4.0, 0.005)
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
    [(lambda: lattice_preset(4.0, 0.005), range(-12, 13), (0, 3)),
     (lambda: DiagonalLattice(4.0, 0.005), range(-12, 13), (0, 3)),
     (two_node_model, (0, 1), (0, 1))],
    ids=["lattice", "diagonal-lattice", "exp-step"],
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
