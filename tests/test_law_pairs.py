"""Two decompositions of one intensity give one law, at small sizes.

The ``decomposition-equivalence`` suite runs the same pairs at full size.
"""

import numpy as np
import pytest

from kalisim import RandomStream, lattice_preset, perfect_sample
from kalisim.models.presets import DiagonalLattice, PowerLadderLattice
from kalisim.validation import (
    LATTICE_DELTA,
    SuiteReport,
    law_pair,
    suite_decomposition_equivalence,
)


def pair_report(a, b):
    rep = SuiteReport("pair", 0)
    law_pair(rep, "pair", a, b)
    return rep


class TestLawPair:
    def test_same_law_passes_and_a_shift_fails(self):
        rng = np.random.default_rng(3)
        a, b = rng.poisson([5.0, 8.0], (400, 2)), rng.poisson([5.0, 8.0], (300, 2))
        rep = pair_report(a, b)
        assert rep.passed
        # two nodes, then the total: a mean line each, and KS and TV on the total
        assert [c.label for c in rep.checks] == [
            "pair: node 0 mean difference", "pair: node 1 mean difference", "pair: total mean difference",
            "pair: KS p-value of the totals", "pair: TV of the totals",
        ]
        shifted = pair_report(a, rng.poisson([5.0, 11.0], (300, 2)))
        assert [c.passed for c in shifted.checks] == [True, False, False, False, False]

    def test_one_node_has_no_separate_total(self):
        rng = np.random.default_rng(4)
        rep = pair_report(rng.poisson(5.0, (200, 1)), rng.poisson(5.0, (200, 1)))
        assert [c.label for c in rep.checks] == [
            "pair: node 0 mean difference", "pair: KS p-value of the totals", "pair: TV of the totals",
        ]


def test_the_power_ladder_is_a_second_decomposition_of_the_lattice():
    # both on the diagonal levels, where the power ladder dominates the envelope
    power, lipschitz = PowerLadderLattice(4.0, 4.0, LATTICE_DELTA), DiagonalLattice(4.0, LATTICE_DELTA)
    assert power.global_bound(0) == pytest.approx(33.764, abs=1e-3)
    assert lipschitz.global_bound(0) == pytest.approx(3.294, abs=1e-3)
    for k in range(1, 200):
        assert power.level(k) == lipschitz.level(k) == (k - 1, k)
        assert power.ladder(0).level(k) >= lipschitz.ladder(0).level(k)


def test_the_diagonal_and_the_searched_nesting_give_one_law():
    # node-0 counts on [0, 10), 1 000 runs an arm (about 1.5 s)
    root = RandomStream(17)
    arms = (lattice_preset(4.0, LATTICE_DELTA), DiagonalLattice(4.0, LATTICE_DELTA))
    counts = ([[len(perfect_sample(m, 0, 10.0, root.child(arm, r)).points(0))] for r in range(1_000)]
              for arm, m in enumerate(arms))
    rep = pair_report(*counts)
    assert rep.passed, rep.render()


def test_lattice_ladders_and_ring_bin_widths_give_one_law():
    rep = suite_decomposition_equivalence(seed=7, lattice_runs=150, ring_runs=300)
    assert rep.passed, rep.render()
    assert [c.label for c in rep.checks if "mean" in c.label] == [
        "lattice: node 0 mean difference", "nesting: node 0 mean difference", "ring: node 0 mean difference",
        "ring: node 1 mean difference", "ring: node 2 mean difference", "ring: node 3 mean difference",
        "ring: total mean difference",
    ]
