import pytest

from kalisim import analysis
from kalisim.validation import spread_gate_model, two_node_clan_model


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
