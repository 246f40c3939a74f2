import ast
import math
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import kalisim
from kalisim import LedgerError, RandomStream, RegionLedger, sample_poisson_region
from kalisim import sampling
from kalisim.validation import poisson_chisquare_pvalue


class ScriptedStream(RandomStream):
    """A stream whose uniforms are the given ones, in order."""

    __slots__ = ()

    def __init__(self, uniforms):
        super().__init__(0)
        self._buf = iter(uniforms)

    def _refill(self):
        raise AssertionError("the scripted uniforms ran out")


def step_uniform(step, rate):
    """The uniform whose exponential draw at ``rate`` is ``step``."""
    return -math.expm1(-rate * step)


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

    def test_uniforms_are_the_generators_doubles_in_order(self):
        # single draws and runs of every length, across many refills of the buffer
        rng = RandomStream(42, (5,))
        got = []
        for k in range(60):
            got += rng.uniforms(k * 7) if k % 3 else [rng.uniform()]
        assert len(got) > 4 * 1024
        assert got == RandomStream(42, (5,)).generator.random(len(got)).tolist()

    def test_every_draw_inverts_the_next_uniform(self):
        rng, twin = RandomStream(11), RandomStream(11)
        for _ in range(200):
            assert rng.exponential(2.5) == -math.log1p(-twin.uniform()) / 2.5
            assert rng.geometric(0.3) == 1 + int(math.log1p(-twin.uniform()) / math.log1p(-0.3))
        assert rng.uniforms(3) == twin.uniforms(3)

    def test_edge_uniforms(self):
        assert ScriptedStream([0.0]).exponential(2.0) == 0.0
        largest = math.nextafter(1.0, 0.0)
        assert ScriptedStream([largest]).exponential(1.0) == -math.log1p(-largest) < 37.0
        for u in (0.0, 0.5, largest):
            for p in (1e-9, 0.3, 0.999999, 1.0):
                assert ScriptedStream([u]).geometric(p) >= 1
            assert ScriptedStream([u]).geometric(1.0) == 1
        assert ScriptedStream([0.0]).geometric(1e-9) == 1


class TestSampleGeometric:
    @pytest.mark.parametrize("p", [0.5, 0.1])
    def test_moments(self, p):
        rng = RandomStream(101)
        n = 100_000
        draws = np.array([rng.geometric(p) for _ in range(n)], dtype=float)
        mean, var = 1.0 / p, (1.0 - p) / p**2
        assert abs(draws.mean() - mean) < 4 * math.sqrt(var / n)
        # Var(S^2) ~ (mu4 - sigma^4)/n, with the geometric's excess kurtosis 6 + p^2/(1 - p)
        var_sigma = var * math.sqrt((8.0 + p * p / (1.0 - p)) / n)
        assert abs(draws.var() - var) < 4 * var_sigma

    def test_pmf(self):
        rng = RandomStream(102)
        n, p = 100_000, 0.4
        counts = np.bincount([min(rng.geometric(p), 9) for _ in range(n)], minlength=10)[1:]
        expected = [n * p * (1 - p) ** (k - 1) for k in range(1, 9)] + [n * (1 - p) ** 8]
        assert stats.chisquare(counts, expected).pvalue > 0.01


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

    def test_points_are_one_exponential_walk_across_the_gaps(self):
        # the gaps laid end to end, [0, 1.5) then [5, 6), walked by exponential
        # steps; one draw per point and one for the final overshoot
        for seed in range(20):
            rng, twin = RandomStream(seed), RandomStream(seed)
            pts = sample_poisson_region(rng, 3.0, [(5.0, 6.0), (0.0, 1.5)])
            expected, pos = [], twin.exponential(3.0)
            while pos < 2.5:
                expected.append(pos if pos < 1.5 else 5.0 + (pos - 1.5))
                pos += twin.exponential(3.0)
            assert pts == pytest.approx(expected, rel=0.0, abs=1e-12)
            assert rng.uniform() == twin.uniform()

    @pytest.mark.parametrize(
        "region", [[(0.0, 2.0)], [(-3.0, -2.5), (0.0, 1.5), (4.0, 4.25)]], ids=["one-gap", "three-gaps"]
    )
    def test_walk_takes_the_streams_exponential_steps_bit_for_bit(self, region):
        # the gaps laid end to end and walked by ``exponential`` steps; a step
        # that overshoots a gap's end carries its overshoot into the next gap
        drawn = 0
        for seed in range(30):
            rng, twin = RandomStream(seed, (4,)), RandomStream(seed, (4,))
            expected, over = [], twin.exponential(3.0)
            for a, b in region:
                t = a + over
                while t < b:
                    expected.append(t)
                    t += twin.exponential(3.0)
                over = t - b
            pts = sample_poisson_region(rng, 3.0, region)
            assert pts == expected
            assert rng.uniform() == twin.uniform()
            drawn += len(pts)
        assert drawn > 60

    def test_walk_points_are_sorted_inside_their_own_gaps(self):
        root = RandomStream(10)
        for r in range(300):
            rng = root.child(r)
            # gaps from a thousandth to ten times the mean spacing, some abutting
            gaps, a = [], -20.0 * rng.uniform()
            for _ in range(1 + int(8 * rng.uniform())):
                b = a + 10.0 ** (3.0 * rng.uniform() - 2.0)
                gaps.append((a, b))
                a = b + (0.0 if rng.uniform() < 0.3 else rng.exponential(1.0))
            pts = sample_poisson_region(rng, 2.0, gaps)
            assert pts == sorted(pts)
            for t in pts:
                a, b = gaps[bisect_right(gaps, (t, math.inf)) - 1]
                assert a <= t < b

    def test_rejects_overlap_and_infinite(self):
        with pytest.raises(ValueError, match="disjoint"):
            sample_poisson_region(RandomStream(1), 1.0, [(0.0, 1.0), (0.5, 2.0)])
        with pytest.raises(ValueError, match="finite"):
            sample_poisson_region(RandomStream(1), 1.0, [(0.0, math.inf)])

    @pytest.mark.parametrize("region", [[(1.0, 0.0)], [(0.0, 1.0), (3.0, 2.0)]])
    def test_rejects_a_reversed_interval_before_any_draw(self, region):
        rng = RandomStream(1)
        with pytest.raises(ValueError, match="reversed"):
            sample_poisson_region(rng, 1.0, region)
        assert rng.uniform() == RandomStream(1).uniform()


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
            assert [r.mark for r in new] == twin.uniforms(len(times))
            # the request consumed exactly those draws of the caller's stream
            assert rng.uniform() == twin.uniform()

    def test_request_order_and_number_types_do_not_matter(self):
        region = [(-4.0, -3.0), (-1.0, 0.0), (0.5, 2.0)]
        expected = RegionLedger()
        expected.realize_new(0, region, 2.5, RandomStream(6))
        for request in ([(0.5, 2), (-4, -3.0), (-1.0, 0)], iter(region), tuple(region)):
            led = RegionLedger()
            led.realize_new(0, request, 2.5, RandomStream(6))
            assert led.to_json() == expected.to_json()

    @pytest.mark.parametrize(
        "region",
        [
            [(0.0, 0.0)],
            [(1.0, 0.0)],
            [(-math.inf, 0.0)],
            [(0.0, math.inf)],
            [(math.nan, 0.0)],
            [(-2.0, -1.0), (0.0, math.nan)],
            [(0.0, 2.0), (1.0, 3.0)],
            [(1.0, 3.0), (0.0, 2.0)],
        ],
    )
    def test_invalid_request_is_rejected(self, region):
        with pytest.raises(LedgerError):
            RegionLedger().realize_new(0, region, 1.0, RandomStream(1))

    def test_collision_resample_keeps_fresh_points_sorted(self):
        region = [(-1.0, 0.0), (0.5, 2.0)]
        # two steps of 0.25 put two points in [-1, 0) and a long one ends the
        # walk; then the two marks, and the uniform a resample in [-1, 0) reads
        script = [step_uniform(s, 2.0) for s in (0.25, 0.25, 10.0)] + [0.1, 0.2, 0.9]
        times = sample_poisson_region(ScriptedStream(script), 2.0, region)
        assert len(times) == 2
        led = RegionLedger()
        # another node's point takes the first time the request will draw
        led.add_proposal_point(9, times[0], mark=0.5)
        new, _ = led.realize_new(2, region, 2.0, ScriptedStream(script))
        # the resampled time lands behind the later draw, and the output is still sorted
        moved = -1.0 + (0.0 - -1.0) * 0.9
        assert times[1] < moved
        assert [(r.time, r.mark) for r in new] == [(times[1], 0.2), (moved, 0.1)]

    def test_a_request_of_list_pairs_resamples_a_collision_in_its_own_gap(self):
        # the request is its own gap list, so the collision rule reads lists
        script = [step_uniform(s, 2.0) for s in (0.25, 0.25, 10.0)] + [0.1, 0.2, 0.9]
        times = sample_poisson_region(ScriptedStream(script), 2.0, [(-1.0, 0.0), (0.5, 2.0)])
        out = []
        for region in ([(-1.0, 0.0), (0.5, 2.0)], [[-1.0, 0.0], [0.5, 2.0]]):
            led = RegionLedger()
            led.add_proposal_point(9, times[0], mark=0.5)
            new, _ = led.realize_new(2, region, 2.0, ScriptedStream(script))
            out.append([(r.time, r.mark) for r in new])
        assert out[0] == out[1] == [(times[1], 0.2), (-1.0 + 0.9, 0.1)]

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
        # node 0 is realized at rate 2 and node 2 holds a proposal point only;
        # a request at another rate, or a first one at rate 0, raises the
        # reference ledger's message before drawing
        requests = [
            lambda led, rng: led.advance(0, 2.0, 3.0, 3.0, rng),
            lambda led, rng: led.advance(0, 2.0, 3.0, 0.0, rng),
            lambda led, rng: led.realize_new(1, [(0.0, 1.0)], 0.0, rng),
            lambda led, rng: led.advance(1, 0.0, 1.0, 0.0, rng),
            lambda led, rng: led.realize_new(2, [(0.0, 1.0)], 0.0, rng),
        ]
        for request in requests:
            messages = []
            for led in (RegionLedger(), ReferenceLedger()):
                led.realize_new(0, [(-1.0, 0.0)], 2.0, RandomStream(5))
                led.add_proposal_point(2, 0.5, mark=0.5)
                rng = RandomStream(6)
                with pytest.raises(LedgerError) as info:
                    request(led, rng)
                messages.append(str(info.value))
                assert rng.uniform() == RandomStream(6).uniform()
            assert messages[0] == messages[1]
            assert ("realized at rate 2.0" in messages[0]) != ("must be positive, got 0.0" in messages[0])

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

    def test_a_stored_point_in_a_gap_raises_before_the_step_past_it_draws_a_mark(self):
        # both walks store every point up to the stray one at 1.5 and raise at
        # the step past it, before its mark: the next uniform is the same
        def walk(led):
            rng = RandomStream(8)
            led.add_proposal_point(0, 1.5, mark=0.0)
            cursor = 0.0
            with pytest.raises(LedgerError, match="stored points"):
                while (rec := led.advance(0, cursor, 6.0, 4.0, rng)) is not None:
                    cursor = rec[0] if isinstance(rec, tuple) else rec.time
            return rng.uniform(), led.n_points()

        ledger, reference = RegionLedger(), ReferenceLedger()
        assert walk(ledger) == walk(reference)
        assert ledger.n_points() > 1
        # the coverage ends at the last point stored before the stray one
        (start, end), = ledger.coverage(0)
        assert start == 0.0 and end < 1.5

    def test_a_lone_piece_off_the_coverage_is_its_own_gap(self, monkeypatch):
        # a request that touches and abuts no coverage interval, on a new node
        # or between intervals and of any number of pieces, draws on the
        # request itself: no walk builds a list of gaps for it
        drawn_on = []
        poisson = sampling._poisson_on_sorted
        monkeypatch.setattr(sampling, "_poisson_on_sorted", lambda *a: drawn_on.append(a[2]) or poisson(*a))
        led, rng = RegionLedger(), RandomStream(17)
        stray = led.add_proposal_point(0, 2.5, mark=0.0)
        lone = [[(0.0, 1.0)], [(4.0, 5.0)], [(2.0, 3.0)], [(7.0, 8.0), (9.0, 10.0)]]
        found = [led.realize_new(0, region, 3.0, rng)[1] for region in lone]
        assert len(drawn_on) == 4
        assert all(gaps is region for gaps, region in zip(drawn_on, lone))
        # a stored point outside the coverage is returned as found
        assert found == [[], [], [stray], []]
        assert led.coverage(0) == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (7.0, 8.0), (9.0, 10.0)]
        # a request inside one covered interval has no gap and reaches no draw
        new, old = led.realize_new(0, [(2.25, 2.75)], 3.0, rng)
        assert new == [] and stray in old and old == led.points_in(0, 2.25, 2.75)
        assert len(drawn_on) == 4
        # touching or abutting requests take the walk
        walked = [[(0.5, 1.5)], [(5.0, 6.0)], [(8.0, 9.0), (10.0, 11.0)]]
        for region in walked:
            led.realize_new(0, region, 3.0, rng)
        assert drawn_on[4:] == [[(1.0, 1.5)], [(5.0, 6.0)], [(8.0, 9.0), (10.0, 11.0)]]
        assert not any(gaps is region for gaps, region in zip(drawn_on[4:], walked))

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


class ReferenceLedger:
    """Per-piece ledger logic: the reference ``RegionLedger`` is checked against.

    Each piece of a request reads its stored points, finds its uncovered gaps
    and merges itself into the coverage on its own, and ``advance`` registers
    every stretch it walks through ``register_empty``. Draws, collision rule
    and error messages are those of ``RegionLedger``. Points are ``(time,
    mark)`` pairs.
    """

    def __init__(self):
        self.starts, self.ends, self.times, self.marks = {}, {}, {}, {}
        self.rates = {}
        self.used = set()
        self.count = 0

    def _node(self, node):
        for lists in (self.starts, self.ends, self.times, self.marks):
            lists.setdefault(node, [])

    def _check_rate(self, node, rate):
        if rate <= 0:
            raise LedgerError(f"dominating rate must be positive, got {rate} for node {node}")
        self._node(node)
        if node not in self.rates:
            self.rates[node] = rate
        elif self.rates[node] != rate:
            raise LedgerError(
                f"node {node} was realized at rate {self.rates[node]} but is now requested at {rate};"
                " dominating bounds must be constant within a run"
            )

    def coverage(self, node):
        return list(zip(self.starts.get(node, []), self.ends.get(node, [])))

    def n_points(self):
        return self.count

    def points_in(self, node, a, b):
        if node not in self.times:
            return []
        times = self.times[node]
        lo, hi = bisect_left(times, a), bisect_left(times, b)
        return list(zip(times[lo:hi], self.marks[node][lo:hi]))

    def _uncovered(self, node, a, b):
        starts, ends = self.starts[node], self.ends[node]
        out, pos = [], a
        k = max(bisect_right(starts, a) - 1, 0)
        while pos < b and k < len(starts) and starts[k] < b:
            if starts[k] > pos:
                out.append((pos, starts[k]))
            pos = max(pos, ends[k])
            k += 1
        if pos < b:
            out.append((pos, b))
        return out

    def _cover(self, node, a, b):
        starts, ends = self.starts[node], self.ends[node]
        lo = bisect_left(ends, a)
        hi = bisect_right(starts, b)
        if lo < hi:
            a = min(a, starts[lo])
            b = max(b, ends[hi - 1])
            del starts[lo:hi]
            del ends[lo:hi]
        starts.insert(lo, a)
        ends.insert(lo, b)

    def _store(self, node, t, mark):
        k = bisect_right(self.times[node], t)
        self.times[node].insert(k, t)
        self.marks[node].insert(k, mark)
        self.used.add(t)
        self.count += 1
        return t, mark

    def realize_new(self, node, region, rate, rng):
        self._check_rate(node, rate)
        pieces = sorted((float(a), float(b)) for a, b in region)
        for k, (a, b) in enumerate(pieces):
            if not (a < b) or not (math.isfinite(a) and math.isfinite(b)):
                raise LedgerError(f"invalid region piece [{a}, {b})")
            if k and pieces[k - 1][1] > a:
                raise LedgerError("requested region must be a disjoint interval union")
        old, gaps = [], []
        for a, b in pieces:
            old.extend(self.points_in(node, a, b))
            gaps.extend(self._uncovered(node, a, b))
            self._cover(node, a, b)
        times = sample_poisson_region(rng, rate, gaps) if gaps else []
        if not times:
            return [], old
        marks = rng.uniforms(len(times))
        fresh = []
        for t, mark in zip(times, marks):
            if t in self.used:
                a, b = gaps[bisect_right(gaps, (t, math.inf)) - 1]
                while t in self.used:
                    t = a + (b - a) * rng.uniform()
            fresh.append(self._store(node, t, mark))
        return sorted(fresh), old

    def register_empty(self, node, a, b):
        if a >= b:
            return
        self._node(node)
        if self._uncovered(node, a, b) != [(a, b)]:
            raise LedgerError(f"register_empty would overlap realized coverage on node {node}: [{a}, {b})")
        if any(t != a for t, _ in self.points_in(node, a, b)):
            raise LedgerError(f"register_empty over stored points on node {node}: [{a}, {b})")
        self._cover(node, a, b)

    def add_proposal_point(self, node, t, mark):
        self._node(node)
        if t in self.times[node]:
            raise LedgerError(f"point ({node}, {t}) already realized")
        return self._store(node, t, mark)

    def advance(self, node, cursor, limit, rate, rng):
        self._check_rate(node, rate)
        starts, ends, times = self.starts[node], self.ends[node], self.times[node]
        pos = cursor
        while pos < limit:
            k = bisect_right(starts, pos) - 1
            if k >= 0 and pos < ends[k]:
                end = ends[k]
                lo = bisect_right(times, pos)
                if lo < len(times) and times[lo] < min(end, limit):
                    return times[lo], self.marks[node][lo]
                pos = end
                continue
            gap_end = starts[k + 1] if k + 1 < len(starts) else math.inf
            cand = pos + rng.exponential(rate)
            while cand in self.used:
                cand = pos + rng.exponential(rate)
            if cand < min(gap_end, limit):
                self.register_empty(node, pos, cand)
                return self._store(node, cand, rng.uniform())
            if gap_end <= limit:
                self.register_empty(node, pos, gap_end)
                pos = gap_end
            else:
                self.register_empty(node, pos, limit)
                return None
        return None


_quarter = st.integers(-24, 24).map(lambda i: i / 4)
_width = st.integers(0, 12).map(lambda i: i / 4)


def _chosen_segments(cuts_and_mask):
    """Disjoint pieces, abutting where neighbouring segments are both chosen."""
    cuts, mask = sorted(cuts_and_mask[0]), cuts_and_mask[1] + [True] * 10
    return [seg for seg, keep in zip(zip(cuts, cuts[1:]), mask) if keep]


_segments = st.tuples(st.lists(_quarter, min_size=2, max_size=10, unique=True), st.lists(st.booleans())).map(
    _chosen_segments
)
_any_pieces = st.lists(st.tuples(_quarter, _width).map(lambda p: (p[0], p[0] + p[1])), min_size=1, max_size=5)
# pieces at widely separated depths below an anchor, as two_node_clan_model
# parks a neighbourhood's pieces: most such requests meet no coverage on a
# node that holds some
_spread_pieces = st.tuples(_quarter, st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True)).map(
    lambda p: [(p[0] - d - 0.5, p[0] - d) for d in (2.0 + 9.0 * k + 0.37 * k * k for k in p[1])]
)


def _realize(pieces):
    return st.tuples(st.just("realize"), st.sampled_from([0, 1]), pieces, st.sampled_from([2.0, 2.0, 2.0, 3.0]))


_realize_op = _realize(st.one_of(_segments.filter(bool), _any_pieces))
_ledger_op = st.one_of(
    _realize_op,
    _realize_op,
    _realize(_spread_pieces),
    st.tuples(st.just("advance"), st.sampled_from([0, 1]), _quarter, _width),
    st.tuples(st.just("empty"), st.sampled_from([0, 1]), _quarter, _width),
    st.tuples(st.just("empty_from_point"), st.sampled_from([0, 1]), st.integers(0, 60), _width),
    st.tuples(st.just("propose"), st.sampled_from([0, 1]), st.integers(-48, 48).map(lambda i: i / 8), st.just(0.5)),
)


def _pairs(points):
    """``(time, mark)`` pairs of ledger records; the reference's points already are."""
    return [p if isinstance(p, tuple) else (p.time, p.mark) for p in points]


def _all_points(led, node):
    return _pairs(led.points_in(node, -math.inf, math.inf))


class TestLedgerAgainstReference:
    @staticmethod
    def _apply(led, op, rng):
        kind, node, x, y = op
        if kind == "realize":
            new, old = led.realize_new(node, x, y, rng)
            return _pairs(new), _pairs(old)
        if kind == "advance":
            walked, cursor = [], x
            while len(walked) < 4:
                rec = led.advance(node, cursor, x + y, 2.0, rng)
                if rec is None:
                    break
                walked += _pairs([rec])
                cursor = walked[-1][0]
            return walked
        if kind == "empty":
            return led.register_empty(node, x, x + y)
        if kind == "propose":
            return _pairs([led.add_proposal_point(node, x, mark=y)])
        times = [t for t, _ in _all_points(led, node)]
        if times:
            t = times[x % len(times)]
            return led.register_empty(node, t, t + y)
        return None

    def _replay(self, ops, led, ref, rng, ref_rng):
        """Apply ``ops`` to the ledger and the reference, each on its stream,
        checking after each that both gave the same outcome, coverage and
        points; returns the outcomes."""
        out = []
        for op in ops:
            outcomes = []
            for ledger, stream in ((led, rng), (ref, ref_rng)):
                try:
                    outcomes.append(("ok", self._apply(ledger, op, stream)))
                except LedgerError as exc:
                    outcomes.append(("error", str(exc)))
            assert outcomes[0] == outcomes[1], op
            for node in (0, 1):
                assert led.coverage(node) == ref.coverage(node)
                assert _all_points(led, node) == _all_points(ref, node)
            assert led.n_points() == ref.n_points()
            out.append(outcomes[0])
        return out

    @given(st.lists(_ledger_op, min_size=5, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_multi_piece_requests_and_walks_match_the_per_piece_reference(self, ops):
        rng, ref_rng = RandomStream(29), RandomStream(29)
        self._replay(ops, RegionLedger(), ReferenceLedger(), rng, ref_rng)
        assert rng.uniform() == ref_rng.uniform()

    def test_abutting_pieces_that_meet_no_coverage_merge_into_one_interval(self):
        rng, ref_rng = RandomStream(3), RandomStream(3)
        led = RegionLedger()
        ops = [
            ("realize", 0, [(0.0, 1.0)], 2.0),
            # abutting pieces past the coverage of a covered node, then on a new node
            ("realize", 0, [(3.0, 4.0), (4.0, 5.0), (6.0, 7.0)], 2.0),
            ("realize", 1, [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], 2.0),
        ]
        outs = self._replay(ops, led, ReferenceLedger(), rng, ref_rng)
        assert led.coverage(0) == [(0.0, 1.0), (3.0, 5.0), (6.0, 7.0)]
        assert led.coverage(1) == [(0.0, 3.0)]
        assert all(old == [] and new for _, (new, old) in outs)
        assert rng.uniform() == ref_rng.uniform()

    def test_a_stored_point_between_pieces_that_meet_no_coverage_is_not_found(self):
        rng, ref_rng = RandomStream(4), RandomStream(4)
        ops = [
            ("realize", 0, [(0.0, 1.0)], 2.0),
            ("propose", 0, 5.0, 0.25),
            ("propose", 0, 6.5, 0.75),
            ("realize", 0, [(3.0, 4.0), (6.0, 7.0)], 2.0),
            # a node that holds only stored points, no coverage
            ("propose", 1, 1.5, 0.25),
            ("propose", 1, 2.5, 0.75),
            ("realize", 1, [(0.0, 1.0), (2.0, 3.0)], 2.0),
        ]
        outs = self._replay(ops, RegionLedger(), ReferenceLedger(), rng, ref_rng)
        assert outs[3][1][1] == [(6.5, 0.75)]
        assert outs[6][1][1] == [(2.5, 0.75)]
        assert rng.uniform() == ref_rng.uniform()

    def test_a_request_inside_one_interval_draws_nothing_and_stops_before_its_end(self):
        rng, ref_rng = RandomStream(5), RandomStream(5)
        led, ref = RegionLedger(), ReferenceLedger()
        ops = [
            ("propose", 0, 2.0, 0.25),
            ("realize", 0, [(2.0, 3.0)], 2.0),
            # a point stored at the interval's end, outside it
            ("propose", 0, 3.0, 0.75),
        ]
        self._replay(ops, led, ref, rng, ref_rng)
        assert led.coverage(0) == [(2.0, 3.0)]
        # the whole interval and a piece at each of its edges, on streams that
        # have no uniform to give
        inside = [("realize", 0, region, 2.0) for region in ([(2.0, 3.0)], [(2.0, 2.5)], [(2.5, 3.0)])]
        outs = self._replay(inside, led, ref, ScriptedStream([]), ScriptedStream([]))
        assert [new for _, (new, _) in outs] == [[], [], []]
        whole, left, right = (old for _, (_, old) in outs)
        assert whole == left + right == _pairs(led.points_in(0, 2.0, 3.0))
        assert whole[0] == (2.0, 0.25) and (3.0, 0.75) not in whole
        assert rng.uniform() == ref_rng.uniform()


def test_only_the_stream_reads_its_generator():
    # every draw goes through RandomStream's buffered uniforms, so no module
    # but sampling.py may reach the generator behind them
    package = Path(kalisim.__file__).parent
    readers = sorted(
        f"{path.relative_to(package)}:{node.lineno}"
        for path in package.rglob("*.py")
        if path.name != "sampling.py" or path.parent != package
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("generator", "_gen")
    )
    assert readers == []
