import math
from itertools import islice

import numpy as np
import pytest

from kalisim import (
    AtomicWeights,
    ConfigError,
    LinearHawkesModel,
    Neighborhood,
    NonSummableError,
    TableEntry,
    TableModel,
    analysis,
    lattice_preset,
)
from kalisim.validation import (
    atomic_gate_model,
    bounded_age_model,
    hawkes_ring,
    spread_gate_model,
    two_node_clan_model,
)


@pytest.mark.parametrize(
    "reduce",
    [
        lambda m: analysis.branching_summary(m, [0, 1]),
        lambda m: analysis.OffspringModel.from_model(m, [0]),
    ],
    ids=["branching-summary", "offspring-model"],
)
def test_a_model_without_bounds_is_refused_naming_the_family_and_the_node(reduce):
    with pytest.raises(NonSummableError, match="LinearHawkesModel exposes no global bound for node 0"):
        reduce(hawkes_ring())


def test_summary_names_the_off_sample_mass_it_omits_e_w_for():
    summary = analysis.branching_summary(two_node_clan_model(), [0])
    assert summary.expected_w == {}
    assert summary.off_mass == {0: pytest.approx(0.3)}
    assert "off-sample mass 0.3 of node 0" in summary.expected_w_note


def test_summary_of_a_closed_sample_gives_e_w():
    summary = analysis.branching_summary(two_node_clan_model(), [0, 1])
    assert summary.expected_w[0] == pytest.approx(2.0)
    assert summary.expected_w_note is None


def test_summary_of_a_supercritical_model_says_why_e_w_is_missing():
    summary = analysis.branching_summary(spread_gate_model(8.0), [0])
    assert summary.expected_w == {}
    assert summary.expected_w_note.startswith("supercritical")


def _age_row_total():
    row = bounded_age_model().offspring_row(0, tol=analysis.ANALYSIS_TOL)
    return {0: sum(row.near.values()) + row.far}


def _lattice_means():
    mean = lattice_preset(4.0, 0.005).invariant_offspring_mean()
    return {-1: mean, 0: mean, 1: mean}


@pytest.mark.parametrize(
    "model, nodes, expected",
    [
        (lambda: atomic_gate_model(1.0), [0], lambda: {0: 0.25}),
        (lambda: atomic_gate_model(5.0), [0], lambda: {0: 1.25}),
        (lambda: spread_gate_model(1.0), [0], lambda: {0: 0.25}),
        (lambda: spread_gate_model(5.0), [0], lambda: {0: 1.25}),
        (two_node_clan_model, [0, 1], lambda: {0: 0.5, 1: 0.5}),
        (bounded_age_model, [0], _age_row_total),
        (lambda: lattice_preset(4.0, 0.005), [-1, 0, 1], _lattice_means),
    ],
    ids=["atomic-1", "atomic-5", "spread-1", "spread-5", "clan", "bounded-age", "lattice"],
)
def test_gamma_of_a_node_sample_is_its_row_total(model, nodes, expected):
    m = model()
    verdict = analysis.subcriticality_gamma(m, nodes)
    want = expected()
    assert verdict.per_node.keys() == want.keys()
    for j, g in want.items():
        assert verdict.per_node[j] == pytest.approx(g, abs=1e-9)
    assert verdict.gamma == max(verdict.per_node.values())
    assert analysis.branching_summary(m, nodes).gamma == verdict.gamma


def linear_pair(ratio):
    """Two linear nodes on geometric bins of the given ratio, declared bound 1."""
    fam = AtomicWeights(0.5, {0: 0.5, 1: 0.5}, {0: ratio, 1: ratio})
    bounds = {0: 1.0, 1: 1.0}
    return LinearHawkesModel({0: 0.3, 1: 0.3}, {}, eps=0.5, weights={0: fam, 1: fam}, declared_bounds=bounds)


def tail_walk_offspring(model, nodes, tol=1e-10):
    """``OffspringModel.from_model`` on its former stop rule: before each
    descriptor, the weight beyond the ones read so far is found by walking
    the listed weights again from the first (a table model summed the rows
    after them instead). The walk reads cached pmfs, in the same order."""
    index = {j: k for k, j in enumerate(nodes)}
    weights, means = [], []
    for i in nodes:
        ws, ms, read = [], [], []
        for desc in model.enumerate_descriptors(i):
            if isinstance(model, TableModel):
                tail = sum(model.pmf(i, d) for d in islice(model.enumerate_descriptors(i), len(read), None))
            else:
                acc = 0.0
                for lam in read:
                    acc += lam
                tail = max(0.0, 1.0 - acc)
            if tail < tol:
                break
            lam = model.pmf(i, desc)
            read.append(lam)
            if lam <= 0.0:
                continue
            row = np.zeros(len(nodes))
            for j, a, b in model.expand(i, desc).pieces():
                row[index[j]] += model.global_bound(j) * (b - a)
            ws.append(lam)
            ms.append(row)
        weights.append(np.asarray(ws) / sum(ws))
        means.append(np.vstack(ms))
    return weights, means


@pytest.mark.parametrize(
    "model, nodes",
    [
        (lambda: linear_pair(0.5), [0, 1]),
        (lambda: linear_pair(0.9), [0, 1]),
        (lambda: linear_pair(0.97), [0, 1]),
        (bounded_age_model, [0]),
        (two_node_clan_model, [0, 1]),
        (lambda: spread_gate_model(1.0), [0]),
        (lambda: atomic_gate_model(1.0), [0]),
    ],
    ids=["linear-0.5", "linear-0.9", "linear-0.97", "bounded-age", "clan", "spread", "atomic"],
)
def test_offspring_model_stops_where_the_tail_walk_did(model, nodes):
    m = model()
    got = analysis.OffspringModel.from_model(m, nodes)
    weights, means = tail_walk_offspring(m, nodes)
    assert len(got.weights) == len(weights)
    for a, b in zip(got.weights + got.means, weights + means):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_offspring_model_reads_each_weight_once():
    m = linear_pair(0.97)
    calls = 0
    pmf = m.pmf

    def counted_pmf(i, desc):
        nonlocal calls
        calls += 1
        return pmf(i, desc)

    m.pmf = counted_pmf
    off = analysis.OffspringModel.from_model(m, [0, 1])
    # every weight here is positive, so each descriptor read is listed
    read = sum(len(w) for w in off.weights)
    assert read > 1000
    # one pmf per descriptor read, plus at most one per node where it stops
    assert calls <= read + 2


def test_log_laplace_draws_one_neighborhood_for_every_child_type():
    # node 0: with weight 1/2 a neighborhood of length 1/2 on both nodes, else none
    both = Neighborhood([(0, -1.0, -0.5), (1, -1.0, -0.5)])
    m = TableModel(
        {
            0: [TableEntry(0.5, both, 1.0, 0.0), TableEntry(0.5, Neighborhood.empty(), 1.0, 0.0)],
            1: [TableEntry(1.0, Neighborhood.empty(), 1.0, 0.0)],
        },
        bounds={0: 1.0, 1: 1.0},
    )
    off = analysis.OffspringModel.from_model(m, [0, 1])
    f = math.expm1(0.7)
    # E exp(0.7 (N0 + N1)) where N0, N1 ~ Poisson(1/2) share the one draw of v
    want = math.log(0.5 * math.exp(0.5 * f + 0.5 * f) + 0.5)
    got = off.log_laplace(np.array([0.7, 0.7]))
    assert got[0] == pytest.approx(want, rel=1e-12)
    assert got[1] == 0.0


def test_the_scalar_reduction_refuses_a_node_sample():
    lattice = lattice_preset(4, 0.005)
    for reduce in (analysis.branching_summary, analysis.subcriticality_gamma):
        with pytest.raises(ConfigError, match="no node sample"):
            reduce(lattice, [-1, 0, 1], invariant=True)
    # the sample itself is taken without the flag, and the scalar with neither
    assert not analysis.branching_summary(lattice, [-1, 0, 1]).invariant
    assert analysis.branching_summary(lattice).invariant
