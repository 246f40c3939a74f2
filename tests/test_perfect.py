import ast
import hashlib
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kalisim
from kalisim import (
    AncestorGraph,
    BackwardBudget,
    BudgetExhausted,
    Configuration,
    ExponentialKernel,
    LedgerError,
    LinearHawkesModel,
    Neighborhood,
    NestedND,
    NonMonotoneModelError,
    NonSummableError,
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
from kalisim.models.age import GammaLadder
from kalisim.models.presets import DiagonalLattice
from kalisim.validation import (
    bounded_age_model,
    exp_hawkes,
    hawkes_ring,
    spread_gate_model,
    two_node_clan_model,
)

GAMMA = 4.0
DELTA = 0.005


class UnderstatedLattice(DiagonalLattice):
    """The lattice on its diagonal nesting, simulated on a ladder whose first
    rung, 0.9, lies below psi(0) = 1: its level-1 component value exceeds
    Gamma."""

    def __init__(self, *args):
        super().__init__(*args)
        self._ladder = GammaLadder([0.9], lipschitz=self.gamma_exponent)


def random_lattice_config(rng, nodes, depth):
    """Refractory points on ``nodes`` over [-depth, 0), node 0 alive.

    Gaps exceed delta by at most half of it, so the drives come close to the
    Lipschitz envelope bar-Gamma_k.
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
    """No point is decided by its mark before the forward pass: every root is
    stored and expanded, whatever its mark."""

    def root(self, mark, t=3.0):
        model = lattice_preset(GAMMA, DELTA)
        ledger = RegionLedger()
        rec = ledger.add_proposal_point(0, t, mark=mark)
        rec.neighborhood = NestedND(1)
        graph = backward_clan(model, 0, t, ledger, RandomStream(1), root_record=rec)
        return model, ledger, rec, graph

    def test_mark_below_the_supremum_expands_the_root(self):
        model, ledger, rec, graph = self.root(mark=0.0)
        assert rec.decision is None and rec.children is not None
        assert all(r.decision is None for r in graph.pending)
        assert any(a <= 3.0 - DELTA and b >= 3.0 for a, b in ledger.coverage(0))
        forward_accept(graph, model, ledger)
        assert rec.decision is not None

    def test_without_a_supremum_every_root_is_expanded(self):
        ledger, stats = RegionLedger(), PerfectRunStats()
        perfect_sample(lattice_preset(GAMMA, DELTA), 0, 20.0, RandomStream(2), ledger=ledger, stats=stats)
        roots = ledger.points_in(0, 0.0, 20.0)
        assert stats.roots == len(roots) == len(stats.clan_sizes) > 50
        assert all(rec.children is not None and rec.decision is not None for rec in roots)


def pieces_table_model(value):
    """Node 0's one row reads [-1, 0) on both nodes through ``value``; node 1
    is a constant rate."""
    pieces = Neighborhood([(0, -1.0, 0.0), (1, -1.0, 0.0)])
    return TableModel(
        {
            0: [TableEntry(weight=1.0, neighborhood=pieces, bound=1.0, value=value)],
            1: [TableEntry(weight=1.0, neighborhood=Neighborhood.empty(), bound=1.0)],
        }
    )


class TestForwardAccept:
    def test_decision_reads_accepted_neighbours_on_their_own_nodes(self):
        seen = []

        def value(x):
            seen.append({j: x.points(j) for j in (0, 1)})
            return 1.0

        model = pieces_table_model(value)
        ledger = RegionLedger()
        for node, t, decision in ((1, -0.5, True), (0, 0.25, True), (1, 0.5, True), (1, 0.75, False)):
            ledger.add_proposal_point(node, t, mark=0.0).decision = decision
        # the root's neighborhood, [0, 1) on both nodes, holds no other point
        for node, a, b in ((0, 0.0, 0.25), (0, 0.25, 1.0), (1, 0.0, 0.5), (1, 0.5, 0.75), (1, 0.75, 1.0)):
            ledger.register_empty(node, a, b)
        root = ledger.add_proposal_point(0, 1.0, mark=0.5)
        root.neighborhood = TableND(0, 0)
        graph = backward_clan(model, 0, 1.0, ledger, RandomStream(0), root_record=root)
        assert [(c.node, c.time) for c in root.children] == [(0, 0.25), (1, 0.5), (1, 0.75)]
        assert len(graph.pending) == 1 and graph.pending[0] is root
        forward_accept(graph, model, ledger)
        assert seen == [{0: (-0.75,), 1: (-0.5,)}]
        assert root.decision is True

    def test_found_and_fresh_children_reach_the_component_in_time_order(self):
        seen = []

        def value(x):
            seen.append(x.points(1))
            return 1.0

        model = TableModel(
            {
                0: [TableEntry(weight=1.0, neighborhood=Neighborhood([(1, -1.0, 0.0)]), bound=1.0, value=value)],
                1: [TableEntry(weight=1.0, neighborhood=Neighborhood.empty(), bound=8.0, value=8.0)],
            }
        )
        ledger, rng = RegionLedger(), RandomStream(2)
        earlier, _ = ledger.realize_new(1, [(0.0, 0.5)], 8.0, rng)
        for rec in earlier:
            rec.decision = True
        graph = backward_clan(model, 0, 1.0, ledger, rng)
        # the root's children on node 1: its own fresh points, then the found ones
        times = [c.time for c in graph.root_record.children]
        assert 0 < len(earlier) < len(times) and times != sorted(times)
        forward_accept(graph, model, ledger)
        assert seen == [tuple(t - 1.0 for t in sorted(times))]

    def test_an_unexpanded_pending_point_is_a_ledger_error(self):
        model = pieces_table_model(1.0)
        root = RegionLedger().add_proposal_point(0, 1.0, mark=0.5)
        root.neighborhood = TableND(0, 0)
        graph = AncestorGraph(root_record=root, pending=[root], terminated=True)
        with pytest.raises(LedgerError, match="never expanded"):
            forward_accept(graph, model, RegionLedger())

    def test_rediscovering_an_unexpanded_point_is_a_ledger_error(self):
        model = pieces_table_model(1.0)
        ledger = RegionLedger()
        ledger.add_proposal_point(1, 0.5, mark=0.0)
        graph = backward_clan(model, 0, 1.0, ledger, RandomStream(0))
        with pytest.raises(LedgerError, match="foreign"):
            forward_accept(graph, model, ledger)

    def test_an_undecided_clan_found_by_a_later_clan_is_a_ledger_error(self):
        model = two_node_clan_model()
        ledger, rng = RegionLedger(), RandomStream(3)
        # an undecided clan inside the root's first piece on node 1: a sampler
        # decides every clan before it builds the next, so this one is foreign
        a, b = dict(model.expand(0, TableND(0, 0)).by_node())[1][0]
        inner = backward_clan(model, 1, (a + b) / 2, ledger, rng)
        graph = backward_clan(model, 0, 0.0, ledger, rng)
        assert inner.root_record in graph.root_record.children
        assert inner.root_record not in graph.pending
        with pytest.raises(LedgerError, match="foreign"):
            forward_accept(graph, model, ledger)

    def test_the_forward_pass_reads_no_ledger(self, monkeypatch):
        model = two_node_clan_model()
        ledger = RegionLedger()
        # a clan with points besides its root, so the forward pass decides more than the root
        graph = backward_clan(model, 0, 0.0, ledger, RandomStream(0))
        assert len(graph.pending) > 1

        def refuse(*args, **kwargs):
            raise AssertionError("the forward pass read the ledger")

        monkeypatch.setattr(RegionLedger, "points_in", refuse)
        monkeypatch.setattr(RegionLedger, "realize_new", refuse)
        forward_accept(graph, model, ledger)
        assert all(rec.decision is not None for rec in graph.pending)

    def test_a_decided_root_is_refused(self):
        model = two_node_clan_model()
        ledger = RegionLedger()
        graph = forward_accept(backward_clan(model, 0, 0.0, ledger, RandomStream(0)), model, ledger)
        with pytest.raises(LedgerError, match="already decided"):
            backward_clan(model, 0, 0.0, ledger, RandomStream(1), root_record=graph.root_record)


def _ledger_records(ledger):
    for node in ledger.to_json():
        yield from ledger.points_in(int(node), -math.inf, math.inf)


def _expanded_records(ledger):
    return (rec for rec in _ledger_records(ledger) if rec.children is not None)


class TestEveryPointDecided:
    """A sampler decides every clan before it proposes the next root, so a
    finished sample leaves no undecided point in its ledger: a clan finds
    only decided points."""

    def assert_all_decided(self, ledger):
        records = list(_ledger_records(ledger))
        assert records and all(rec.decision is not None for rec in records)

    def test_lattice_perfect_sample(self):
        ledger = RegionLedger()
        perfect_sample(lattice_preset(GAMMA, DELTA), 0, 5.0, RandomStream(1), ledger=ledger)
        self.assert_all_decided(ledger)

    def test_bounded_age_perfect_sample(self):
        ledger = RegionLedger()
        perfect_sample(bounded_age_model(), 0, 30.0, RandomStream(7), ledger=ledger)
        self.assert_all_decided(ledger)

    def test_lattice_perfect_sample_window(self):
        ledger = RegionLedger()
        windows = [(0, (0.0, 3.0)), (1, (2.0, 5.0)), (0, (4.0, 6.0))]
        perfect_sample_window(lattice_preset(GAMMA, DELTA), windows, RandomStream(8), ledger=ledger)
        self.assert_all_decided(ledger)


class TestRealizedOnce:
    """An expanded point's neighborhood is realized whole at its expansion, so
    the children stored then are all the points the region ever holds."""

    def assert_children_match_the_ledger(self, model, ledger):
        checked = 0
        for rec in _expanded_records(ledger):
            nb = model.expand(rec.node, rec.neighborhood)
            reference = [
                child
                for j, ivs in nb.by_node()
                for a, b in ivs
                for child in ledger.points_in(j, a + rec.time, b + rec.time)
            ]
            stored = sorted(rec.children, key=lambda r: (r.node, r.time))
            assert [id(c) for c in stored] == [id(c) for c in reference]
            # grouped by node in the neighborhood's order
            assert [c.node for c in rec.children] == [c.node for c in reference]
            checked += 1
        assert checked > 0

    def test_lattice_perfect_sample(self):
        model, ledger = lattice_preset(GAMMA, DELTA), RegionLedger()
        perfect_sample(model, 0, 5.0, RandomStream(1), ledger=ledger)
        self.assert_children_match_the_ledger(model, ledger)

    def test_table_clans_on_one_ledger(self):
        model, ledger, rng = two_node_clan_model(), RegionLedger(), RandomStream(4)
        # roots closer than a piece's length, so later clans find earlier points
        for t in (0.0, 0.02, 0.04, 0.06):
            forward_accept(backward_clan(model, 0, t, ledger, rng), model, ledger)
        self.assert_children_match_the_ledger(model, ledger)


class TestBudgetExhausted:
    """A supercritical clan (offspring mean 5 * 0.25 = 1.25) stops at either
    cap with an error that carries the graph built so far."""

    def exhaust(self, budget, match):
        ledger = RegionLedger()
        with pytest.raises(BudgetExhausted, match=match) as info:
            backward_clan(spread_gate_model(5.0), 0, 0.0, ledger, RandomStream(1), budget=budget)
        graph = info.value.graph
        root = graph.root_record
        assert (root.node, root.time) == (0, 0.0)
        assert not graph.terminated
        # the ledger holds the root and every point the clan simulated
        assert ledger.n_points() == graph.clan_size()
        return graph, [r.generation for r in ledger.points_in(0, -math.inf, math.inf)]

    def test_generation_cap(self):
        graph, generations = self.exhaust(BackwardBudget(max_generations=4), "exceeded 4 generations")
        # every generation up to the cap was simulated, and none beyond it
        assert max(generations) == 4
        assert graph.clan_size() == 18

    def test_point_cap(self):
        graph, generations = self.exhaust(BackwardBudget(max_points=10), "exceeded 10 points")
        # the point past the cap raises as soon as it is simulated
        assert graph.clan_size() == 12
        assert max(generations) == 4

    def test_the_ledger_holds_exactly_an_exhausted_clan(self):
        exhausted = 0
        for seed, max_points in itertools.product(range(6), (1, 7, 50)):
            ledger = RegionLedger()
            try:
                backward_clan(spread_gate_model(5.0), 0, 0.0, ledger, RandomStream(seed),
                              budget=BackwardBudget(max_points=max_points))
            except BudgetExhausted as exc:
                graph, exhausted = exc.graph, exhausted + 1
                assert ledger.n_points() == graph.clan_size() > max_points + 1
                assert all(rec.generation is not None for rec in graph.pending)
        assert exhausted >= 5

    def test_an_exhausted_clan_carries_its_points(self):
        ledger = RegionLedger()
        with pytest.raises(BudgetExhausted, match="exceeded 50 points") as info:
            backward_clan(spread_gate_model(5.0), 0, 0.0, ledger, RandomStream(0), budget=BackwardBudget(max_points=50))
        graph = info.value.graph
        # the root, then the 52 points simulated before the cap raised: the
        # batch that passed the cap is adopted whole
        assert graph.clan_size() == 53 and graph.pending[0] is graph.root_record
        assert graph.root_record.generation == 0
        simulated = graph.pending[1:]
        assert len(simulated) == 52 and all(rec.generation >= 1 for rec in simulated)
        # the ledger holds exactly the clan's points
        assert {id(rec) for rec in graph.pending} == {id(rec) for rec in _ledger_records(ledger)}
        assert ledger.n_points() == graph.clan_size()


class TestRootFirst:
    """The root is expanded before the generation loop; a root that realizes
    no fresh point is its own clan."""

    def test_a_root_on_covered_ground_is_its_own_clan(self):
        model, ledger = lattice_preset(GAMMA, DELTA), RegionLedger()
        k = 3
        depth = model.depth(0, k) * DELTA
        for j in model.omega(0, k):
            ledger.register_empty(j, -depth, 0.0)
        root = ledger.add_proposal_point(0, 0.0, mark=0.5)
        root.neighborhood = NestedND(k)
        rng = RandomStream(1)
        graph = backward_clan(model, 0, 0.0, ledger, rng, root_record=root)
        assert graph.pending == [root] and graph.clan_size() == 1
        assert root.generation == 0 and graph.terminated
        assert root.children == [] and graph.lookback == depth
        # the covered region draws nothing
        assert rng.uniform() == RandomStream(1).uniform()

    def test_a_root_with_no_fresh_point_looks_back_its_neighborhoods_depth(self):
        model, alone = lattice_preset(GAMMA, DELTA), 0
        for seed in range(60):
            graph = backward_clan(model, 0, 0.0, RegionLedger(), RandomStream(seed))
            root = graph.root_record
            if graph.clan_size() > 1:
                continue
            alone += 1
            depth = -min(a for _, a, _ in model.expand(0, root.neighborhood).pieces())
            assert graph.pending == [root] and graph.clan_size() == 1
            assert root.generation == 0 and graph.terminated
            assert graph.lookback == depth
        assert 30 < alone < 60

    @pytest.mark.parametrize("model", [spread_gate_model(5.0), two_node_clan_model()], ids=["supercritical", "table"])
    def test_a_one_generation_budget_raises_iff_the_root_realizes_a_fresh_point(self, model):
        outcomes = set()
        for seed in range(30):
            # the root's own expansion, replayed on a twin ledger and stream
            twin_ledger, twin = RegionLedger(), RandomStream(seed)
            twin_ledger.add_proposal_point(0, 0.0, mark=twin.uniform())
            v = model.expand(0, model.sample_neighborhood(0, twin))
            fresh = sum(
                len(twin_ledger.realize_new(j, list(ivs), model.global_bound(j), twin)[0]) for j, ivs in v.by_node()
            )
            budget = BackwardBudget(max_generations=1)
            if fresh:
                with pytest.raises(BudgetExhausted, match="exceeded 1 generations") as info:
                    backward_clan(model, 0, 0.0, RegionLedger(), RandomStream(seed), budget=budget)
                assert info.value.graph.clan_size() == 1 + fresh
            else:
                graph = backward_clan(model, 0, 0.0, RegionLedger(), RandomStream(seed), budget=budget)
                assert graph.terminated and graph.clan_size() == 1
            outcomes.add(bool(fresh))
        assert outcomes == {True, False}


def linear_with_declared_bounds():
    kernels = {
        (0, 0): ExponentialKernel(0.3, 1.0),
        (0, 1): ExponentialKernel(0.2, 2.0),
        (1, 0): ExponentialKernel(0.1, 1.0),
    }
    return LinearHawkesModel({0: 0.5, 1: 0.25}, kernels, eps=0.5, declared_bounds={0: 4.0, 1: 3.0})


class CountingBoundLattice(LatticeAgeModel):
    """The lattice preset, counting its ``global_bound`` calls per node."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bound_calls = Counter()

    def global_bound(self, i):
        self.bound_calls[i] += 1
        return super().global_bound(i)


class TestBoundedRegime:
    """Perfect simulation needs a dominating rate Gamma_j at every node it
    reaches; a node without one is refused with the family and the node."""

    def test_a_root_without_a_bound_is_refused(self):
        with pytest.raises(NonSummableError, match="LinearHawkesModel exposes no global bound for node 0"):
            perfect_sample(hawkes_ring(), 0, 1.0, RandomStream(0))

    def test_a_neighbourhood_without_a_bound_is_refused(self):
        # seed 2's root draws a nonempty neighbourhood; the empty set reads no Gamma
        with pytest.raises(NonSummableError, match="AnalyticHawkesModel exposes no global bound for node 0"):
            backward_clan(exp_hawkes(1), 0, 0.0, RegionLedger(), RandomStream(2))

    def test_the_expansion_names_the_node_it_reaches(self):
        # node 0 is bounded, but every atom it draws lies on node 1
        kernels = {(0, 1): ExponentialKernel(0.2, 2.0), (1, 0): ExponentialKernel(0.1, 1.0)}
        model = LinearHawkesModel({0: 0.5, 1: 0.25}, kernels, eps=0.5, declared_bounds={0: 4.0})
        with pytest.raises(NonSummableError, match="LinearHawkesModel exposes no global bound for node 1"):
            backward_clan(model, 0, 0.0, RegionLedger(), RandomStream(2))

    def test_each_bound_is_read_once_per_node(self):
        model, plain = CountingBoundLattice(GAMMA, DELTA), lattice_preset(GAMMA, DELTA)
        for seed in range(20):
            out = perfect_sample(model, 0, 2.0, RandomStream(seed))
            assert out.points(0) == perfect_sample(plain, 0, 2.0, RandomStream(seed)).points(0)
        assert len(model.bound_calls) > 3 and set(model.bound_calls.values()) == {1}


def test_the_sampler_and_the_analysis_read_gamma_only_through_require_bound():
    # Gamma_j is checked and kept in one place, KalikowModel.require_bound
    package = Path(kalisim.__file__).parent
    for name in ("perfect.py", "analysis.py"):
        tree = ast.parse((package / name).read_text(), name)
        attrs = [(node.attr, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        assert [f"{name}:{line}" for attr, line in attrs if attr == "global_bound"] == []
        assert any(attr == "require_bound" for attr, _ in attrs), name


class TestEmptyPastMemo:
    """A point that keeps no accepted child is decided on the empty past, whose
    value the model computes once per (node, descriptor) and keeps."""

    @pytest.mark.parametrize(
        "make, descriptors",
        [
            pytest.param(lambda: lattice_preset(GAMMA, DELTA), 6, id="lattice"),
            pytest.param(bounded_age_model, 6, id="bounded-age"),
            pytest.param(two_node_clan_model, 1, id="two-node-table"),
            pytest.param(linear_with_declared_bounds, 8, id="linear-declared-bounds"),
        ],
    )
    def test_the_memo_is_the_component_on_the_empty_past(self, make, descriptors):
        model = make()
        for i in model.node_set() or (0, 5):
            for desc in itertools.islice(model.enumerate_descriptors(i), descriptors):
                expected = model.component_value(i, desc, Configuration.empty())
                assert model.empty_past_value(i, desc) == expected
                assert model.empty_past_value(i, desc) == expected  # a memo hit

    def test_lattice_runs_evaluate_each_empty_past_once(self):
        model = lattice_preset(GAMMA, DELTA)
        value_of, empty, kept = model.component_value, Counter(), 0

        def counting(i, desc, x):
            nonlocal kept
            if x.is_empty():
                empty[i, desc.k] += 1
            else:
                kept += 1
            return value_of(i, desc, x)

        model.component_value = counting
        for seed in range(20):
            perfect_sample(model, 0, 5.0, RandomStream(seed))
        assert len(empty) > 10 and set(empty.values()) == {1}
        assert kept > 0

    def test_an_understated_bound_raises_on_a_memo_hit_too(self):
        model = TableModel({0: [TableEntry(1.0, Neighborhood.empty(), 1.0, 1.0)]}, bounds={0: 0.5})
        calls = []
        value_of = model.component_value
        model.component_value = lambda *args: calls.append(args) or value_of(*args)
        ledger, rng = RegionLedger(), RandomStream(3)
        for t in (1.0, 2.0):
            graph = backward_clan(model, 0, t, ledger, rng)
            with pytest.raises(NonMonotoneModelError, match="dominating bound 0.5"):
                forward_accept(graph, model, ledger)
        # the first decision computed the value, the second read the memo
        assert len(calls) == 1


class TestSupremum:
    """The lattice simulates on bar-Gamma_k, the supremum of its level-k
    contributions over refractory pasts; Gamma is their sum."""

    def test_component_values_stay_below_the_supremum(self):
        model = lattice_preset(GAMMA, DELTA)
        ladder, gam = model.ladder(0), model.global_bound(0)
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = random_lattice_config(rng, range(-8, 9), 9 * DELTA)
            for k in range(1, 9):
                assert model.delta(0, NestedND(k), x) <= model.gamma_bar(0, k) == pytest.approx(ladder.level(k), rel=1e-14)
                assert model.component_value(0, NestedND(k), x) <= gam * (1.0 + 1e-14)
            assert model.delta(0, NestedND(1), x) == model.gamma_bar(0, 1) == ladder.level(1)

    def test_understated_supremum_is_caught(self):
        with pytest.raises(NonMonotoneModelError, match="dominating bound"):
            perfect_sample(UnderstatedLattice(GAMMA, DELTA), 0, 25.0, RandomStream(1))

    def test_roots_per_point_are_gamma_over_the_rate(self):
        # the roots are the dominating process on [0, t): Poisson(Gamma t)
        gam, t_max, roots, accepted = lattice_preset(GAMMA, DELTA).global_bound(0), 400.0, 0, 0
        for seed in range(3):
            stats = PerfectRunStats()
            perfect_sample(lattice_preset(GAMMA, DELTA), 0, t_max, RandomStream(seed), stats=stats)
            roots, accepted = roots + stats.roots, accepted + stats.accepted
        span = 3 * t_max
        predicted = gam / (accepted / span)
        assert abs(roots / accepted - predicted) < 4.0 * math.sqrt(gam * span) / accepted
        assert gam == pytest.approx(3.294, abs=1e-3)


class TestGoldenWithoutSupremum:
    """Seeded outputs of table models. The constant-rate sample never realizes
    a region; the clan sizes read every draw the ledger makes."""

    def test_constant_rate_perfect_sample(self):
        out = perfect_sample(TableModel.constant_rate(1.0, bound=2.0), 0, 50.0, RandomStream(7))
        pts = out.points(0)
        assert len(pts) == 65
        assert (pts[0], pts[-1]) == (0.07941635414451365, 49.999687536469274)
        digest = hashlib.sha256(",".join(map(float.hex, pts)).encode()).hexdigest()
        assert digest == "af76b03e1f75b5ffcec736da02aa2761b79e2b81a76d98b2eac654d0cfeed477"

    def test_two_node_clan_sizes(self):
        model = two_node_clan_model()
        sizes = [backward_clan(model, 0, 0.0, RegionLedger(), RandomStream(s)).clan_size() for s in range(20)]
        assert sizes == [7, 2, 1, 1, 1, 2, 1, 6, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 1]


def _times_digest(ts):
    return hashlib.sha256(",".join(map(float.hex, ts)).encode()).hexdigest()


def _ledger_digest(ledger):
    return hashlib.sha256(json.dumps(ledger.to_json(), sort_keys=True).encode()).hexdigest()


class TestGoldenLattice:
    """Seeded lattice outputs and the ledgers behind them, bit for bit."""

    @pytest.mark.parametrize(
        "seed, count, ends, digest, n_points, ledger_digest",
        [
            (1, 24, (1.2117884948237547, 19.898339040121623),
             "58396b65b306d4429540d93b84d74b3fc8ad1462a1412bb2afe2dd19d25a397b",
             80, "17e0bf7d21b3209c8039dfc0311348fb49e22a2c8d773ff0627ada4577307721"),
            (2, 14, (1.6897419258450874, 18.83179701232326),
             "c0615fc61265f2b68df95442e6825d894d4b856fa36ab0739ec3d2fd25b60529",
             69, "54b5cb44584379100c4f9f1fb55e98a508055f1954ba402243733c4c1335c0bc"),
            (3, 25, (0.18997970353854213, 19.29796048492093),
             "38599a6731857abcb03d208309ef95bc4328c089e1bd381d7c72c00c7931c615",
             69, "d78b656e4257b13d020a42d946865d2103b25dde7e89c75900a4fe64f55a8e53"),
            (4, 21, (0.8607201262380707, 17.93755205106212),
             "1dbbcc606492ea1f1a9a4c06120865dc9b5e2f06d9ab97fbadc112065c88a080",
             71, "8d9313fdceb78c9817852bfe772ad215fc6802b612014eb328ef0373bc955991"),
        ],
        ids=["seed1", "seed2", "seed3", "seed4"],
    )
    def test_perfect_sample(self, seed, count, ends, digest, n_points, ledger_digest):
        ledger = RegionLedger()
        pts = perfect_sample(lattice_preset(GAMMA, DELTA), 0, 20.0, RandomStream(seed), ledger=ledger).points(0)
        assert len(pts) == count
        assert (pts[0], pts[-1]) == ends
        assert _times_digest(pts) == digest
        assert ledger.n_points() == n_points
        assert _ledger_digest(ledger) == ledger_digest

    def test_perfect_sample_window(self):
        ledger = RegionLedger()
        windows = [(0, (0.0, 8.0)), (1, (4.0, 12.0)), (2, (6.0, 10.0))]
        out = perfect_sample_window(lattice_preset(GAMMA, DELTA), windows, RandomStream(5), ledger=ledger)
        expected = {
            0: (6, (1.579256642255967, 6.907096696710209),
                "b153d6c868343c110f834ba578d5e9f6f4e8daaabffdfd0bb9e2174c5ec5b10d"),
            1: (8, (4.886211711835936, 11.59213333408843),
                "6e0f7a4a076db3b9ff9e55b90e11f9eed1417ae6890f33cf7e09b75e6e2de4b2"),
            2: (6, (6.367264806825535, 9.96000021781953),
                "9a304de3484543074231f530f0336ae8ac12b903114e348e437f680c9aa074b4"),
        }
        for node, (count, ends, digest) in expected.items():
            pts = out.points(node)
            assert len(pts) == count
            assert (pts[0], pts[-1]) == ends
            assert _times_digest(pts) == digest
        assert ledger.n_points() == 61
        assert _ledger_digest(ledger) == "0c58a8c17034de1cbbc1c5f201201fd002905d0d5d6eba9c37ef291c1dfe18e8"

    @pytest.mark.parametrize(
        "seed, roots, accepted, histogram, max_lookback",
        [
            (1, 76, 24, {1: 72, 2: 4}, 0.03500000000000014),
            (2, 64, 14, {1: 61, 2: 2, 4: 1}, 0.02923745676416445),
            (3, 64, 25, {1: 59, 2: 5}, 0.030000000000001137),
            (4, 67, 21, {1: 63, 2: 4}, 0.030000000000001137),
        ],
        ids=["seed1", "seed2", "seed3", "seed4"],
    )
    def test_run_stats(self, seed, roots, accepted, histogram, max_lookback):
        # every root, decision and clan of the run
        stats = PerfectRunStats()
        perfect_sample(lattice_preset(GAMMA, DELTA), 0, 20.0, RandomStream(seed), stats=stats)
        report = stats.to_json()
        assert (report["roots"], report["accepted"]) == (roots, accepted)
        assert report["clan_size_histogram"] == {str(k): v for k, v in histogram.items()}
        assert report["max_lookback"] == max_lookback


class TestGoldenBoundedAge:
    """Seeded outputs of the finite age model, whose levels are drawn from an
    ``GammaLadder`` with a geometric tail; seed 7 realizes a clan before time 0."""

    @pytest.mark.parametrize(
        "seed, count, ends, digest, n_points, ledger_digest, lookbacks",
        [
            (1, 20, (0.3253574228089419, 28.570023228189367),
             "e46f689de28c8943dc0c0ba27628c57a22d96c9f83f570ab7cf496a93842bb2a",
             30, "36ef2496f6e043f136279cb5a510ee2f07ffe336ea0d155ffa437f168aba1a98", (2.0, 22.0)),
            (7, 15, (0.06766313488900126, 29.020763106190795),
             "0c9985174ef3e9eee9728225c2381dd88922eb3b218410bd0d8bbddab993b993",
             25, "6ff26cb68fac1493778bf7473b9eabed3807835941a99b9d55d3292da6c066a4",
             (1.5, 16.85091268755327)),
        ],
        ids=["seed1", "seed7"],
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


class TestWindowMerge:
    """Windows of one node are merged before the sweep, so overlapping or
    abutting windows sample their union once."""

    @pytest.mark.parametrize(
        "windows", [((0.0, 3.0), (2.0, 5.0)), ((0.0, 2.5), (2.5, 5.0))], ids=["overlapping", "abutting"]
    )
    def test_windows_sample_their_union(self, windows):
        model = lattice_preset(GAMMA, DELTA)
        whole = perfect_sample(model, 0, 5.0, RandomStream(3)).points(0)
        out = perfect_sample_window(model, [(0, w) for w in windows], RandomStream(3))
        assert len(whole) == 7
        assert out.points(0) == whole

    @pytest.mark.parametrize("window", [(2.0, 2.0), (3.0, 1.0)], ids=["empty", "reversed"])
    def test_an_empty_window_is_refused(self, window):
        with pytest.raises(ValueError, match="empty window"):
            perfect_sample_window(lattice_preset(GAMMA, DELTA), [(0, (0.0, 1.0)), (0, window)], RandomStream(3))


class RefusingTable(TableModel):
    def sample_neighborhood(self, i, rng, cls=None):
        raise AssertionError("a root was drawn")


@pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 1.0)], ids=["endless", "beginningless"])
def test_a_non_finite_window_is_refused_before_any_root(window):
    # a sweep over an unbounded window would never end
    model = RefusingTable.constant_rate(1.0, bound=2.0)
    with pytest.raises(ValueError, match="not finite"):
        perfect_sample_window(model, [(0, window)], RandomStream(1))
    with pytest.raises(ValueError, match="not finite"):
        perfect_sample(model, 0, math.inf, RandomStream(1))


def test_window_stats_sum_over_the_windows():
    ledger, stats = RegionLedger(), PerfectRunStats()
    windows = [(0, (0.0, 3.0)), (1, (2.0, 5.0)), (0, (4.0, 6.0))]
    model = lattice_preset(GAMMA, DELTA)
    out = perfect_sample_window(model, windows, RandomStream(8), ledger=ledger, stats=stats)
    # the walk draws every root of a ledger that stores them all
    assert stats.roots == 24
    # every root is stored and decided once
    stored = [rec for node, (a, b) in windows for rec in ledger.points_in(node, a, b)]
    assert all(rec.decision is not None for rec in stored)
    assert stats.roots == len(stored) == len(stats.clan_sizes)
    assert stats.accepted == len(out.points(0)) + len(out.points(1)) > 0


def _put_run(put, model, t_max, seed):
    ledger, stats = RegionLedger(), PerfectRunStats()
    pts = perfect_sample(model, 0, t_max, RandomStream(seed), ledger=ledger, stats=stats).points(0)
    put([list(map(float.hex, pts)), stats.to_json(), stats.clan_sizes,
         list(map(float.hex, stats.lookbacks)), ledger.to_json()])


def _digest_lattice_runs(put):
    for seed in range(6):
        _put_run(put, lattice_preset(GAMMA, DELTA), 8.0, seed)


def _digest_diagonal_lattice_runs(put):
    for seed in range(6):
        _put_run(put, DiagonalLattice(GAMMA, DELTA), 8.0, seed)


def _digest_bounded_age_runs(put):
    for seed in range(6):
        _put_run(put, bounded_age_model(), 20.0, seed)


def _digest_lattice_window(put):
    ledger, stats = RegionLedger(), PerfectRunStats()
    windows = [(0, (0.0, 3.0)), (1, (2.0, 5.0)), (-3, (1.0, 4.0))]
    out = perfect_sample_window(lattice_preset(GAMMA, DELTA), windows, RandomStream(9), ledger=ledger, stats=stats)
    put([{str(j): list(map(float.hex, out.points(j))) for j in out.nodes()}, stats.to_json(), ledger.to_json()])


def _digest_table_clans(put):
    model = two_node_clan_model()
    for seed in range(150):
        ledger = RegionLedger()
        graph = forward_accept(backward_clan(model, seed % 2, 0.0, ledger, RandomStream(seed)), model, ledger)
        put([graph.clan_size(), graph.lookback.hex(),
             [(r.node, r.time.hex(), r.decision, r.generation) for r in graph.pending], ledger.to_json()])


_OUTPUT_FAMILIES = {
    "lattice runs": _digest_lattice_runs,
    "diagonal lattice runs": _digest_diagonal_lattice_runs,
    "bounded age runs": _digest_bounded_age_runs,
    "lattice window": _digest_lattice_window,
    "table clans": _digest_table_clans,
}


def _perfect_outputs_digests():
    """One sha256 per family of seeded perfect-sampling outputs: points, run
    stats, clan sizes, lookbacks and ledgers of the lattice and of the
    one-node age model, one lattice window, and ``two_node_clan_model()``
    clans, each built and decided on a fresh ledger. The lattice on its
    diagonal nesting draws what the preset drew before it searched its
    nesting, so its pin is the preset's old one."""
    out = {}
    for name, family in _OUTPUT_FAMILIES.items():
        h = hashlib.sha256()
        family(lambda obj: h.update(json.dumps(obj, sort_keys=True).encode()))
        out[name] = h.hexdigest()
    return out


def test_perfect_outputs_digest():
    # one pin per family of seeded outputs; a change that claims the draws and
    # decisions of a family unchanged must leave its pin as it is
    assert _perfect_outputs_digests() == {
        "lattice runs": "5b0fd5bc89a5b95c7086e9b9bc3e0aafb7de6ef5a1c36b19920069f7313795a9",
        "diagonal lattice runs": "74d7d195c0d43c6c7d20da9b5397ddc9189b12565198d25e204373977701ce42",
        "bounded age runs": "2ae9c4c84b645afb77d0a19b2bb88f18a617e9a710fea3df97b9ec02687e5ab2",
        "lattice window": "5e274eb7ad6532dc5953590a302b4d97251c7f1b060868da6a83bc50ed07944b",
        "table clans": "128de1efec474a5a0cf94e122450c50779790efb86e4df664cd3af45d260ef42",
    }
