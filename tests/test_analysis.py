import pytest

from kalisim import analysis, lattice_preset
from kalisim.validation import (
    atomic_gate_model,
    bounded_age_model,
    spread_gate_model,
    two_node_clan_model,
)


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
    mean = lattice_preset(4.0, 4.0, 0.005).invariant_offspring_mean()
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
        (lambda: lattice_preset(4.0, 4.0, 0.005), [-1, 0, 1], _lattice_means),
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
