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
from kalisim import perfect as perfect_module
from kalisim.core import TableND
from kalisim.models import LatticeAgeModel
from kalisim.validation import two_node_clan_model

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
    """Models that declare no supremum draw exactly as before it existed."""

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
        assert sizes == [2, 2, 6, 1, 1, 1, 1, 1, 3, 1, 2, 1, 1, 2, 4, 2, 4, 2, 5, 1]


def _times_digest(ts):
    return hashlib.sha256(",".join(map(float.hex, ts)).encode()).hexdigest()


def _ledger_digest(ledger):
    return hashlib.sha256(json.dumps(ledger.to_json(), sort_keys=True).encode()).hexdigest()


class TestGoldenLattice:
    """Seeded lattice outputs and the ledgers behind them, bit for bit."""

    @pytest.mark.parametrize(
        "seed, count, ends, digest, n_points, ledger_digest",
        [
            (1, 18, (0.14177314028481805, 19.29829395116727),
             "e7a63908743467eb88028fe86a95e6a32c9cda53387f25367cc289575301659b",
             880, "cf6c244c54077d30a8e9e17ac035c300953c156463fc4a77de2c84a2ef60be57"),
            (2, 23, (1.2211592708043286, 19.782131324088102),
             "40a0924d05110491fc61eecfe6b3514b7f06a793fa95b4c14bac0b3bd55f4177",
             909, "9613d99a293dff881837a06b1003f5ea71c7c7174a7012df1114cb8421d91472"),
            (3, 22, (0.5912764946369546, 19.73890937906604),
             "629f149fccf82e630583d8bcbd2462435798327150e6cd4701a1a8c0a7ed0a40",
             914, "de7c69e37d68bce7862a9d9bb3788e39f2308a2cd49681e5ef12ec0077d5361f"),
            (4, 23, (2.318547954271006, 19.092331431368),
             "c3e313ef51ffc42f3c7df35e1a7fc0b902d7001bf6d2e15ccf90e7c8e1772bc1",
             927, "ebaf9aea1ed8b95d22ba79709969083ada9a93abfbdb074cd940234422ae0f45"),
        ],
    )
    def test_perfect_sample(self, seed, count, ends, digest, n_points, ledger_digest):
        ledger = RegionLedger()
        pts = perfect_sample(lattice_preset(GAMMA, P, DELTA), 0, 20.0, RandomStream(seed), ledger=ledger).points(0)
        assert len(pts) == count
        assert (pts[0], pts[-1]) == ends
        assert _times_digest(pts) == digest
        assert ledger.n_points() == n_points
        assert _ledger_digest(ledger) == ledger_digest

    def test_perfect_sample_window(self, monkeypatch):
        ledgers = []

        class KeptLedger(RegionLedger):
            def __init__(self):
                super().__init__()
                ledgers.append(self)

        monkeypatch.setattr(perfect_module, "RegionLedger", KeptLedger)
        windows = [(0, (0.0, 8.0)), (1, (4.0, 12.0)), (2, (6.0, 10.0))]
        out = perfect_sample_window(lattice_preset(GAMMA, P, DELTA), windows, RandomStream(5))
        expected = {
            0: (16, (0.7267397608600481, 6.627112864478658),
                "e56e7a7ae31de2db79e12e5c28646690c96c5d66ffc96ff29df79bede870504a"),
            1: (9, (4.551907148303828, 9.239695816932464),
                "640bbb03480d476ce4ddf163ad82379429be577690275b4e639a3693b7889935"),
            2: (4, (6.192990967485042, 7.629963130026471),
                "852bc496e11394cbb36a774bce34a576653698594e29e2d8a1954e126df18965"),
        }
        for node, (count, ends, digest) in expected.items():
            pts = out.points(node)
            assert len(pts) == count
            assert (pts[0], pts[-1]) == ends
            assert _times_digest(pts) == digest
        (ledger,) = ledgers
        assert ledger.n_points() == 881
        assert _ledger_digest(ledger) == "7c13196c07c8b6d1664e0ebf78a7e4773f654f30a4110db0c5b74fed90fbd394"
