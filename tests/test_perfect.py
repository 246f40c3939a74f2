import hashlib
import json
import math
import statistics

import numpy as np
import pytest

from kalisim import (
    AncestorGraph,
    Configuration,
    Neighborhood,
    NestedND,
    NonMonotoneModelError,
    PerfectRunStats,
    RandomStream,
    RegionLedger,
    TableEntry,
    TableModel,
    backward_clan,
    forward_accept,
    lattice_preset,
    perfect_sample,
    perfect_sample_window,
)
from kalisim.core import TableND
from kalisim.models import LatticeAgeModel
from kalisim.validation import bounded_age_model, two_node_clan_model

GAMMA = P = 4.0
DELTA = 0.005


class NoSupLattice(LatticeAgeModel):
    """The lattice preset declaring no supremum: every point is expanded."""

    def component_sup(self, i, desc):
        return None


class UnderstatedSupLattice(LatticeAgeModel):
    """The lattice preset declaring 0.9 times its true supremum."""

    def component_sup(self, i, desc):
        return 0.9 * super().component_sup(i, desc)


def random_lattice_config(rng, nodes, depth):
    """Refractory points on ``nodes`` over [-depth, 0), node 0 alive.

    Gaps exceed delta by at most half of it, so the drives come close to the
    envelope the supremum is built from.
    """
    pts = {}
    for j in nodes:
        ts = []
        t = -DELTA * (1.0 + rng.uniform(1e-6, 0.5)) if j == 0 else -DELTA * rng.uniform(0.0, 1.0)
        while t > -depth:
            ts.append(t)
            t -= DELTA * (1.0 + rng.uniform(1e-6, 0.5))
        pts[j] = sorted(ts)
    return Configuration(pts)


class TestMarkDecision:
    def root(self, mark, t=3.0):
        model = lattice_preset(GAMMA, P, DELTA)
        ledger = RegionLedger()
        rec = ledger.add_proposal_point(0, t, mark=mark)
        rec.neighborhood = NestedND(1)
        graph = backward_clan(model, 0, t, ledger, RandomStream(1), root_record=rec)
        return model, ledger, rec, graph

    def test_mark_above_the_supremum_decides_the_root(self):
        model, ledger, rec, graph = self.root(mark=0.99)
        assert 0.99 >= model.component_sup(0, NestedND(1)) / model.global_bound(0)
        assert rec.decision is False
        assert graph.clan_size() == 1
        assert graph.mark_decided == 1
        assert ledger.coverage(0) == []

    def test_mark_below_the_supremum_expands_the_root(self):
        model, ledger, rec, graph = self.root(mark=0.0)
        assert rec.decision is None
        assert graph.mark_decided == 0
        assert any(a <= 3.0 - DELTA and b >= 3.0 for a, b in ledger.coverage(0))
        forward_accept(graph, model, ledger)
        assert rec.decision is not None

    def test_run_stats_count_mark_decisions(self):
        stats = PerfectRunStats()
        perfect_sample(lattice_preset(GAMMA, P, DELTA), 0, 2.0, RandomStream(3), stats=stats)
        assert 0 < stats.mark_decided
        assert stats.to_json()["mark_decided"] == stats.mark_decided
        assert len(stats.clan_sizes) == stats.roots
        table = PerfectRunStats()
        perfect_sample(TableModel.constant_rate(1.0, bound=2.0), 0, 20.0, RandomStream(3), stats=table)
        assert table.mark_decided == 0


class TestForwardAccept:
    def test_decision_reads_accepted_neighbours_on_their_own_nodes(self):
        seen = []

        def value(x):
            seen.append({j: x.points(j) for j in (0, 1)})
            return 1.0

        pieces = Neighborhood([(0, -1.0, 0.0), (1, -1.0, 0.0)])
        model = TableModel(
            {
                0: [TableEntry(weight=1.0, neighborhood=pieces, bound=1.0, value=value)],
                1: [TableEntry(weight=1.0, neighborhood=Neighborhood.empty(), bound=1.0)],
            }
        )
        ledger = RegionLedger()
        for node, t, decision in ((1, -0.5, True), (0, 0.25, True), (1, 0.5, True), (1, 0.75, False)):
            ledger.add_proposal_point(node, t, mark=0.0).decision = decision
        root = ledger.add_proposal_point(0, 1.0, mark=0.5)
        root.neighborhood = TableND(0, 0)
        graph = AncestorGraph(root=(0, 1.0), root_record=root, pending=[root], terminated=True)
        forward_accept(graph, model, ledger)
        assert seen == [{0: (-0.75,), 1: (-0.5,)}]
        assert root.decision is True


class TestSupremum:
    def test_component_values_stay_below_the_supremum(self):
        model = lattice_preset(GAMMA, P, DELTA)
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = random_lattice_config(rng, range(-8, 9), 9 * DELTA)
            for k in range(1, 9):
                assert model.component_value(0, NestedND(k), x) <= model.component_sup(0, NestedND(k))
            assert model.component_value(0, NestedND(1), x) == model.component_sup(0, NestedND(1))

    def test_translation_invariant_cache_holds_one_entry_per_level(self):
        model = lattice_preset(GAMMA, P, DELTA)
        sups = {model.component_sup(i, NestedND(k)) for i in range(-5, 6) for k in (1, 2, 3)}
        assert len(sups) == 3
        assert len(model._sup_cache) == 3

    def test_understated_supremum_is_caught(self):
        model = UnderstatedSupLattice(GAMMA, P, DELTA)
        with pytest.raises(NonMonotoneModelError, match="supremum"):
            perfect_sample(model, 0, 25.0, RandomStream(1))

    def test_same_law_as_without_the_supremum(self):
        runs, t_max = 200, 5.0
        counts = {}
        for name, model, offset in (
            ("sup", lattice_preset(GAMMA, P, DELTA), 0),
            ("none", NoSupLattice(GAMMA, P, DELTA), 10_000),
        ):
            counts[name] = []
            for r in range(runs):
                pts = perfect_sample(model, 0, t_max, RandomStream(offset + r)).points(0)
                assert all(b - a > DELTA for a, b in zip(pts, pts[1:]))
                counts[name].append(len(pts))
        a, b = counts["sup"], counts["none"]
        se = math.sqrt((statistics.variance(a) + statistics.variance(b)) / runs)
        assert abs(statistics.fmean(a) - statistics.fmean(b)) < 4.0 * se


class TestGoldenWithoutSupremum:
    """Seeded outputs of models that declare no supremum, so that no point is
    decided from its mark. The constant-rate sample never realizes a region;
    the clan sizes read every draw the ledger makes."""

    def test_constant_rate_perfect_sample(self):
        out = perfect_sample(TableModel.constant_rate(1.0, bound=2.0), 0, 50.0, RandomStream(7))
        pts = out.points(0)
        assert len(pts) == 61
        assert (pts[0], pts[-1]) == (0.081749125736161, 49.926891944406826)
        digest = hashlib.sha256(",".join(map(float.hex, pts)).encode()).hexdigest()
        assert digest == "49533dd9b38892072fcc914df26fedafd02a7093b4681d870cf6bc723c124238"

    def test_two_node_clan_sizes(self):
        model = two_node_clan_model()
        sizes = [backward_clan(model, 0, 0.0, RegionLedger(), RandomStream(s)).clan_size() for s in range(20)]
        assert sizes == [1, 4, 2, 9, 3, 1, 1, 1, 3, 2, 1, 6, 3, 6, 1, 1, 1, 1, 3, 1]


def _times_digest(ts):
    return hashlib.sha256(",".join(map(float.hex, ts)).encode()).hexdigest()


def _ledger_digest(ledger):
    return hashlib.sha256(json.dumps(ledger.to_json(), sort_keys=True).encode()).hexdigest()


class TestGoldenLattice:
    """Seeded lattice outputs and the ledgers behind them, bit for bit."""

    @pytest.mark.parametrize(
        "seed, count, ends, digest, n_points, ledger_digest",
        [
            (1, 24, (0.14177314028481805, 19.895962455384684),
             "c1ede971d96744b44f54458eac05a2d48a156b05c12bcafe04d4b0288a11b27a",
             910, "d38c22b653d777490bd780fb0581db5ffb070492fcb81a1f011e0a24a0c79778"),
            (2, 24, (1.2135177787716043, 19.92947672498659),
             "77e82ea35793c6f9f70294b94388ee0b967568c13a1137f23846b81804822746",
             901, "a19ee4c7eb038541d60c681f5f0e5948f2ef43a275fbe3d4371f4fe30ebe192d"),
            (3, 27, (0.5345126562616926, 18.964228918364217),
             "2b83c53b3764b5fd35f7f4a00b9101e806acba5db13da18ff1603694fd87d12b",
             880, "7a7fda8a95722e820c50bc300fd115c15372db29d1edf9033b9e8ef41aec558e"),
            (4, 24, (0.29500155131897404, 19.090934363810167),
             "5ee2be3f6b1f811f6451ab852e3ec2551ac9e4fe93f42d55006e7f6ce45f9ca3",
             935, "934ce658dff47f0588c766cd607cc457c24f78c32adaa19346dd640f08fc7bb9"),
        ],
        ids=["seed1", "seed2", "seed3", "seed4"],
    )
    def test_perfect_sample(self, seed, count, ends, digest, n_points, ledger_digest):
        ledger = RegionLedger()
        pts = perfect_sample(lattice_preset(GAMMA, P, DELTA), 0, 20.0, RandomStream(seed), ledger=ledger).points(0)
        assert len(pts) == count
        assert (pts[0], pts[-1]) == ends
        assert _times_digest(pts) == digest
        assert ledger.n_points() == n_points
        assert _ledger_digest(ledger) == ledger_digest

    def test_perfect_sample_window(self):
        ledger = RegionLedger()
        windows = [(0, (0.0, 8.0)), (1, (4.0, 12.0)), (2, (6.0, 10.0))]
        out = perfect_sample_window(lattice_preset(GAMMA, P, DELTA), windows, RandomStream(5), ledger=ledger)
        expected = {
            0: (11, (1.4952118431158072, 7.944420360471827),
                "bd4d7f04687ee14c6c20243a6cd3bd111a968513d6b960f59d7c85026de2248c"),
            1: (16, (4.1031806786220635, 11.341690492163867),
                "f4f399c2ec5d3fb8f4e0c1a7c2975488325ab14364c862f5bc247be5472cdaf1"),
            2: (5, (6.363350896070474, 9.349073417938957),
                "f88c2d22e9183b97ae56fc3386da1e072befe4100b6416f4b3c3a4e88753ee9d"),
        }
        for node, (count, ends, digest) in expected.items():
            pts = out.points(node)
            assert len(pts) == count
            assert (pts[0], pts[-1]) == ends
            assert _times_digest(pts) == digest
        assert ledger.n_points() == 969
        assert _ledger_digest(ledger) == "edfe91963e95ed8bf95db2a0651430aeabd0a01823a733389490cf0232374ba4"


class TestGoldenBoundedAge:
    """Seeded outputs of the finite age model, whose levels are drawn from an
    ``AutoGammaLadder``; seed 9 realizes a clan before time 0."""

    @pytest.mark.parametrize(
        "seed, count, ends, digest, n_points, ledger_digest, lookbacks",
        [
            (1, 15, (0.5684330385363696, 27.668154447635555),
             "2febb427de944553535af60d46b95cdde956bc37707f9fdfdced4c492c9fa765",
             23, "bbb3ce6664212cf10fe573b4594f42842d1511064abee96a8c0bd1a84cd07802", (2.0, 17.5)),
            (9, 14, (0.257385023186668, 29.508233194515388),
             "b04629109cfc8883daa239c4bab7ca92092c14dc97fec8f457126a58fffbe693",
             20, "5b0100522be2209c11c738447ae0a7507df51c1a3c7ecec52c265ece9c792ef9",
             (2.7750315915117345, 11.775031591511734)),
        ],
        ids=["seed1", "seed9"],
    )
    def test_perfect_sample(self, seed, count, ends, digest, n_points, ledger_digest, lookbacks):
        ledger, stats = RegionLedger(), PerfectRunStats()
        out = perfect_sample(bounded_age_model(), 0, 30.0, RandomStream(seed), ledger=ledger, stats=stats)
        pts = out.points(0)
        assert len(pts) == count
        assert (pts[0], pts[-1]) == ends
        assert _times_digest(pts) == digest
        assert ledger.n_points() == n_points
        assert _ledger_digest(ledger) == ledger_digest
        assert (max(stats.lookbacks), sum(stats.lookbacks)) == lookbacks


def test_window_stats_sum_over_the_windows():
    ledger, stats = RegionLedger(), PerfectRunStats()
    windows = [(0, (0.0, 3.0)), (1, (2.0, 5.0)), (0, (4.0, 6.0))]
    model = lattice_preset(GAMMA, P, DELTA)
    out = perfect_sample_window(model, windows, RandomStream(8), ledger=ledger, stats=stats)
    # every point of a swept window is one root, decided once
    per_window = [len(ledger.points_in(node, a, b)) for node, (a, b) in windows]
    assert stats.roots == sum(per_window) > 0
    assert stats.accepted == len(out.points(0)) + len(out.points(1)) > 0
