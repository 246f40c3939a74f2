import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kalisim import LedgerError, RandomStream, RegionLedger, sample_poisson_region
from kalisim.validation import poisson_chisquare_pvalue


class TestRandomStream:
    def test_identity_replays(self):
        a = RandomStream(42, (1, 2))
        b = RandomStream(42, (1, 2))
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_children_differ_from_parent(self):
        root = RandomStream(42)
        child = root.child(0)
        assert [root.uniform() for _ in range(3)] != [child.uniform() for _ in range(3)]

    def test_child_path(self):
        assert RandomStream(1).child(3, 4).path == (3, 4)


class TestSampleExponential:
    def test_moments(self):
        rng = RandomStream(100)
        n = 100_000
        draws = np.array([rng.exponential(2.0) for _ in range(n)])
        mean_sigma = 0.5 / math.sqrt(n)
        assert abs(draws.mean() - 0.5) < 3 * mean_sigma
        # Var(S^2) for the exponential: (mu4 - sigma^4)/n = (9 - 1) sigma^4 / n
        var_sigma = math.sqrt(8 * 0.25**2 / n)
        assert abs(draws.var() - 0.25) < 3 * var_sigma

    def test_determinism(self):
        x = RandomStream(7, (1,)).exponential(3.0)
        y = RandomStream(7, (1,)).exponential(3.0)
        assert x == y

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            RandomStream(1).exponential(0.0)


class TestSamplePoissonRegion:
    def test_empty_region(self):
        assert sample_poisson_region(RandomStream(1), 3.0, []) == []

    def test_count_moments(self):
        root = RandomStream(8)
        n = 10_000
        counts = np.array(
            [len(sample_poisson_region(root.child(r), 3.0, [(0.0, 2.0)])) for r in range(n)]
        )
        mean_sigma = math.sqrt(6.0 / n)
        assert abs(counts.mean() - 6.0) < 3 * mean_sigma
        var_sigma = math.sqrt((6.0 + 3 * 36.0 - 36.0) / n)  # (mu4 - sigma^4)/n for Poisson
        assert abs(counts.var() - 6.0) < 3 * var_sigma

    def test_split_region_membership_and_independence(self):
        root = RandomStream(9)
        n = 10_000
        region = [(0.0, 1.0), (5.0, 6.0)]
        first, second = [], []
        for r in range(n):
            pts = sample_poisson_region(root.child(r), 3.0, region)
            assert all((0.0 <= t < 1.0) or (5.0 <= t < 6.0) for t in pts)
            assert pts == sorted(pts)
            first.append(sum(1 for t in pts if t < 1.0))
            second.append(sum(1 for t in pts if t >= 5.0))
        assert poisson_chisquare_pvalue(first, 3.0) > 0.01
        assert poisson_chisquare_pvalue(second, 3.0) > 0.01
        # independence of the two component counts: contingency chi-square
        cap = 6
        a = np.minimum(first, cap)
        b = np.minimum(second, cap)
        table = np.zeros((cap + 1, cap + 1))
        for i, j in zip(a, b):
            table[i, j] += 1
        keep_r = table.sum(axis=1) >= 20
        keep_c = table.sum(axis=0) >= 20
        p = stats.chi2_contingency(table[np.ix_(keep_r, keep_c)]).pvalue
        assert p > 0.01

    def test_one_count_for_the_whole_region(self):
        for seed in range(20):
            pts = sample_poisson_region(RandomStream(seed), 3.0, [(5.0, 6.0), (0.0, 1.5)])
            assert len(pts) == RandomStream(seed).generator.poisson(3.0 * 2.5)

    def test_rejects_overlap_and_infinite(self):
        with pytest.raises(ValueError, match="disjoint"):
            sample_poisson_region(RandomStream(1), 1.0, [(0.0, 1.0), (0.5, 2.0)])
        with pytest.raises(ValueError, match="finite"):
            sample_poisson_region(RandomStream(1), 1.0, [(0.0, math.inf)])


class TestRegionLedger:
    def test_fresh_realization_covers(self):
        led = RegionLedger()
        new, old = led.realize_new(0, [(-1.0, 0.0)], 2.0, RandomStream(5))
        assert old == []
        assert led.coverage(0) == [(-1.0, 0.0)]
        assert all(-1.0 <= r.time < 0.0 for r in new)

    def test_second_identical_request_is_idempotent(self):
        led = RegionLedger()
        rng = RandomStream(5)
        new, _ = led.realize_new(0, [(-1.0, 0.0)], 2.0, rng)
        again_new, again_old = led.realize_new(0, [(-1.0, 0.0)], 2.0, rng)
        assert again_new == []
        assert [r.time for r in again_old] == [r.time for r in new]

    def test_growing_request_fills_only_the_gap(self):
        led = RegionLedger()
        rng = RandomStream(5)
        new1, _ = led.realize_new(0, [(-1.0, 0.0)], 2.0, rng)
        new2, old2 = led.realize_new(0, [(-2.0, 0.0)], 2.0, rng)
        assert all(-2.0 <= r.time < -1.0 for r in new2)
        assert [r.time for r in old2] == [r.time for r in new1]
        assert led.coverage(0) == [(-2.0, 0.0)]

    def test_fresh_request_draws_from_the_callers_stream(self):
        region = [(-4.0, -3.0), (0.5, 2.0), (-1.0, 0.0)]
        for seed in range(10):
            rng = RandomStream(seed, (3,))
            new, old = RegionLedger().realize_new(2, region, 2.5, rng)
            twin = RandomStream(seed, (3,))
            times = sample_poisson_region(twin, 2.5, region)
            assert old == []
            assert [r.time for r in new] == times
            assert [r.mark for r in new] == twin.generator.random(len(times)).tolist()
            # the request consumed exactly those draws of the caller's stream
            assert rng.uniform() == twin.uniform()

    def test_straddling_request_counts_are_independent_poisson(self):
        # [1, 2) is covered first, so [0, 3) u [4, 5) leaves three gaps of length 1
        rate, runs = 2.0, 10_000
        root = RandomStream(31)
        counts = np.zeros((runs, 3), dtype=int)
        for r in range(runs):
            led = RegionLedger()
            rng = root.child(r)
            led.realize_new(0, [(1.0, 2.0)], rate, rng)
            new, old = led.realize_new(0, [(0.0, 3.0), (4.0, 5.0)], rate, rng)
            assert [p.time for p in old] == [p.time for p in led.points_in(0, 1.0, 2.0)]
            assert all(not (1.0 <= p.time < 2.0) for p in new)
            for p in new:
                counts[r, 0 if p.time < 1.0 else 1 if p.time < 3.0 else 2] += 1
        for k in range(3):
            assert poisson_chisquare_pvalue(counts[:, k], rate) > 0.01
        cap = 5
        for a, b in ((0, 1), (0, 2), (1, 2)):
            table = np.zeros((cap + 1, cap + 1))
            for i, j in zip(np.minimum(counts[:, a], cap), np.minimum(counts[:, b], cap)):
                table[i, j] += 1
            keep_r = table.sum(axis=1) >= 20
            keep_c = table.sum(axis=0) >= 20
            assert stats.chi2_contingency(table[np.ix_(keep_r, keep_c)]).pvalue > 0.01

    def test_equal_streams_replay_equal_ledgers(self):
        def build(seed):
            led = RegionLedger()
            rng = RandomStream(seed, (1, 2))
            led.realize_new(0, [(0.0, 2.0)], 3.0, rng)
            led.realize_new(1, [(-1.0, 1.0), (2.0, 3.0)], 1.5, rng)
            led.realize_new(0, [(-1.0, 0.5), (1.5, 4.0)], 3.0, rng)
            return led.to_json()

        assert build(7) == build(7)
        assert build(7) != build(8)

    def test_rate_mismatch_rejected(self):
        led = RegionLedger()
        led.realize_new(0, [(-1.0, 0.0)], 2.0, RandomStream(5))
        with pytest.raises(LedgerError, match="rate"):
            led.realize_new(0, [(-3.0, -2.0)], 3.0, RandomStream(5))

    def test_register_empty_rejects_overlap(self):
        led = RegionLedger()
        led.register_empty(0, 0.0, 1.0)
        with pytest.raises(LedgerError):
            led.register_empty(0, 0.5, 1.5)

    @given(
        st.lists(
            st.tuples(st.floats(-8.0, 7.0), st.floats(0.05, 3.0)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_coverage_equals_union_and_idempotence(self, raw):
        regions = [(a, a + w) for a, w in raw]
        led = RegionLedger()
        rng = RandomStream(13)
        seen: dict[float, int] = {}
        for a, b in regions:
            new, old = led.realize_new(4, [(a, b)], 1.5, rng)
            for r in new:
                assert r.time not in seen
                seen[r.time] = 1
        # coverage equals the union of requests
        def union(ivs):
            out = []
            for a, b in sorted(ivs):
                if out and a <= out[-1][1]:
                    out[-1] = (out[-1][0], max(out[-1][1], b))
                else:
                    out.append((a, b))
            return out

        assert led.coverage(4) == union(regions)
        # re-request everything: nothing new, all old replayed bit-for-bit
        total_old = []
        for a, b in regions:
            new, old = led.realize_new(4, [(a, b)], 1.5, rng)
            assert new == []
            total_old.extend(r.time for r in old)
        assert set(total_old) == set(seen)

    def test_marginal_law_one_shot_vs_incremental(self):
        # counts on the probe interval [0,1) must be Poisson(rate) however the
        # region was assembled
        rate = 2.0
        runs = 10_000
        one, inc = [], []
        for r in range(runs):
            led = RegionLedger()
            led.realize_new(0, [(0.0, 1.0)], rate, RandomStream(1000 + r))
            one.append(len(led.points_in(0, 0.0, 1.0)))
            led2 = RegionLedger()
            s = RandomStream(5000 + r)
            led2.realize_new(0, [(0.0, 0.3)], rate, s)
            led2.realize_new(0, [(0.2, 0.7)], rate, s)
            led2.realize_new(0, [(0.5, 1.0)], rate, s)
            inc.append(len(led2.points_in(0, 0.0, 1.0)))
        assert poisson_chisquare_pvalue(one, rate) > 0.01
        assert poisson_chisquare_pvalue(inc, rate) > 0.01

    def test_advance_replays_and_extends(self):
        led = RegionLedger()
        rng = RandomStream(21)
        new, _ = led.realize_new(0, [(2.0, 4.0)], 1.0, rng)
        walked = []
        cursor = 0.0
        while True:
            rec = led.advance(0, cursor, 10.0, 1.0, rng)
            if rec is None:
                break
            walked.append(rec.time)
            cursor = rec.time
        # every pre-realized point of [2,4) appears in the walk, in order
        pre = [r.time for r in new]
        assert [t for t in walked if 2.0 <= t < 4.0] == pre
        assert walked == sorted(walked)
        # the whole stretch [0, 10) is covered afterwards
        assert led.coverage(0) == [(0.0, 10.0)]

    def test_advance_is_deterministic(self):
        def walk(seed):
            led = RegionLedger()
            rng = RandomStream(seed)
            out = []
            cursor = 0.0
            while True:
                rec = led.advance(0, cursor, 5.0, 2.0, rng)
                if rec is None:
                    return out
                out.append(rec.time)
                cursor = rec.time

        assert walk(99) == walk(99)

    def test_dump_roundtrip(self, tmp_path):
        led = RegionLedger()
        led.realize_new(1, [(-1.0, 0.0)], 2.0, RandomStream(5))
        path = tmp_path / "ledger.json"
        led.dump(str(path))
        import json

        data = json.loads(path.read_text())
        assert data["1"]["rate"] == 2.0
        assert data["1"]["intervals"] == [[-1.0, 0.0]]

    def test_record_is_per_node(self):
        led = RegionLedger()
        rec = led.add_proposal_point(0, 1.5, mark=0.25)
        assert led.record(0, 1.5) is rec
        assert led.record(1, 1.5) is None
        assert led.record(0, 1.25) is None

    def test_same_node_duplicate_proposal_rejected(self):
        led = RegionLedger()
        led.add_proposal_point(3, 0.5, mark=0.1)
        with pytest.raises(LedgerError, match="already realized"):
            led.add_proposal_point(3, 0.5, mark=0.9)
        assert led.n_points() == 1

    def test_n_points_counts_every_node(self):
        led = RegionLedger()
        rng = RandomStream(17)
        led.realize_new(0, [(-2.0, 0.0)], 3.0, rng)
        led.realize_new(1, [(-1.0, 1.0), (2.0, 3.0)], 2.0, rng)
        led.realize_new(0, [(-3.0, -1.0)], 3.0, rng)
        cursor = 0.0
        while (rec := led.advance(2, cursor, 4.0, 1.5, rng)) is not None:
            cursor = rec.time
        per_node = sum(len(led.points_in(j, -10.0, 10.0)) for j in (0, 1, 2))
        assert per_node == led.n_points() > 0
