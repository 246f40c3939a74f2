import hashlib
import math
import statistics

import numpy as np
import pytest

from kalisim import (
    Configuration,
    NestedND,
    NonMonotoneModelError,
    PerfectRunStats,
    RandomStream,
    RegionLedger,
    TableModel,
    backward_clan,
    forward_accept,
    lattice_preset,
    perfect_sample,
)
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
