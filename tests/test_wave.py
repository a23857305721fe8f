import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapedit import gap_match
from gapedit.greedy import GapVerdict, GreedyTrace, greedy_match
from gapedit.hashing import HashConfig, ViewStack
from gapedit.instances import gen_large_side, gen_planted
from gapedit.no_prep import NoPrepOracle
from gapedit.one_sided import OneSidedIndex, OneSidedOracle
from gapedit.strings import (ByteString, has_approximate_alignment,
                             max_shift_alignment_bruteforce)
from gapedit.two_sided import (SymbolShiftOracle, TwoSidedIndex,
                               TwoSidedOracle, TwoSidedShiftOracle)
from gapedit.wave import (BruteForceShiftOracle, IndexedShiftOracle,
                          NoPrepShiftOracle, OneSidedWaveIndex, WaveTable,
                          gap_wave, greedy_wave, wave_jump_violations)

CFG = HashConfig.from_seed(55)


class TestGreedyWaveExact:
    def test_close_pairs_small(self):
        for t in range(15):
            inst = gen_planted(200, 4, 9, seed=t)
            v, _ = gap_wave(inst.a, inst.b, 9, 3, "exact")
            assert v == GapVerdict.SMALL

    def test_far_pairs_large(self):
        for t in range(8):
            # 10kl = 270 < n = 400
            inst = gen_large_side(400, 64, 270, seed=t)
            v, _ = gap_wave(inst.a, inst.b, 9, 3, "exact")
            assert v == GapVerdict.LARGE

    def test_identical_pair_finishes_on_row_zero(self):
        inst = gen_planted(128, 4, 0, seed=0)
        tab = WaveTable()
        v, _ = gap_wave(inst.a, inst.b, 9, 3, "exact", table=tab)
        assert v == GapVerdict.SMALL
        assert tab.rows[0][0] >= 128 and len(tab.rows) == 1

    def test_parameter_validation(self):
        inst = gen_planted(64, 4, 0, seed=1)
        with pytest.raises(ValueError):
            greedy_wave(inst.a, inst.b, 4, 5, lambda ia, ib: 0)
        with pytest.raises(ValueError):
            greedy_wave(inst.a, inst.b, 0, 1, lambda ia, ib: 0)

    def test_index_built_for_another_k_or_l_refused(self):
        inst = gen_planted(64, 4, 1, seed=4)
        # the two-sided index holds no l: its oracle is built for one
        for orc in (IndexedShiftOracle(
                        OneSidedWaveIndex.preprocess(inst.a, 6, 3, CFG),
                        inst.b),
                    TwoSidedShiftOracle(
                        TwoSidedIndex.preprocess(inst.a, 6, CFG), inst.b, 3)):
            with pytest.raises(ValueError, match="built for k = 6"):
                greedy_wave(inst.a, inst.b, 9, 3, orc)
            with pytest.raises(ValueError, match="built for l = 3"):
                greedy_wave(inst.a, inst.b, 6, 2, orc)
            assert greedy_wave(inst.a, inst.b, 6, 3, orc) is GapVerdict.SMALL
        # below sampling rate 1 (32 > 4 ln 2000) the noprep oracle holds
        # views of a sample, and is refused all the same
        inst = gen_planted(2000, 4, 0, seed=4)
        orc = NoPrepShiftOracle(inst.a, inst.b, 64, 32, CFG)
        assert orc.views is not None
        with pytest.raises(ValueError, match="built for l = 32"):
            greedy_wave(inst.a, inst.b, 64, 16, orc)
        with pytest.raises(ValueError, match="built for k = 64"):
            greedy_wave(inst.a, inst.b, 128, 32, orc)

    def test_index_without_every_diagonals_bucket_refused(self):
        # below sampling rate 1 (64 > 4 ln 2000) greedy's index keeps shift
        # bucket 0 only, where the wave at l = k probes buckets -1 .. 1
        inst = gen_planted(2000, 4, 40, seed=1)
        orc = IndexedShiftOracle(OneSidedIndex.preprocess(inst.a, 64, CFG),
                                 inst.b)
        with pytest.raises(ValueError, match=r"shift buckets \[0, 1\)"):
            greedy_wave(inst.a, inst.b, 64, 64, orc)
        # the wave index at l = k keeps them, and serves greedy as well
        wave_index = OneSidedWaveIndex.preprocess(inst.a, 64, 64, CFG)
        tab = WaveTable()
        assert greedy_wave(inst.a, inst.b, 64, 64,
                           IndexedShiftOracle(wave_index, inst.b),
                           table=tab) is GapVerdict.SMALL
        assert len(set(tab.rows[1].values())) == 1  # every diagonal reached
        assert greedy_match(inst.a, inst.b, 64, OneSidedOracle(
            wave_index, inst.b)) is GapVerdict.SMALL
        # at rate 1 the symbol search serves every shift: greedy's index
        # answers the wave at l = k, as exact mode does
        inst = gen_planted(64, 4, 1, seed=4)
        orc = IndexedShiftOracle(OneSidedIndex.preprocess(inst.a, 6, CFG),
                                 inst.b)
        assert orc.buckets is None
        tab, ref = WaveTable(), WaveTable()
        verdict = greedy_wave(inst.a, inst.b, 6, 6, orc, table=tab)
        assert (verdict, tab.rows) == (
            gap_wave(inst.a, inst.b, 6, 6, "exact", table=ref)[0], ref.rows)


class TestJumpProperty:
    def test_no_violations_on_filled_tables(self):
        for t in range(6):
            inst = gen_planted(200, 4, 9, seed=t)
            tab = WaveTable()
            gap_wave(inst.a, inst.b, 9, 3, "exact", table=tab)
            assert wave_jump_violations(tab, 3, 200) == []


class TestNoPrepShiftOracle:
    def test_never_undershoots_bruteforce(self):
        for t in range(5):
            n, k, ell = 220, 9, 3
            inst = gen_planted(n, 4, 5, seed=t)
            orc = NoPrepShiftOracle(inst.a, inst.b, k, ell,
                                    HashConfig.from_seed(t))
            for i_b in range(1, n + 1, 4):
                for i_a in (max(1, i_b - 2), i_b, min(n, i_b + 2)):
                    d = orc(i_a, i_b)
                    bf = max_shift_alignment_bruteforce(
                        inst.a, inst.b, i_a, i_b, ell, k)
                    assert d >= bf

    def test_output_is_approximate_shift_alignment(self):
        for t in range(4):
            n, k, ell = 220, 9, 3
            inst = gen_planted(n, 4, 5, seed=50 + t)
            orc = NoPrepShiftOracle(inst.a, inst.b, k, ell,
                                    HashConfig.from_seed(t))
            for i_b in range(1, n + 1, 6):
                d = orc(i_b, i_b)
                hint = orc.last_hint
                assert has_approximate_alignment(inst.a, inst.b, i_b, d,
                                                 3 * ell, 3 * ell, hint=hint)

    @pytest.mark.parametrize("greedy", [False, True])
    @given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_search_matches_bisection(self, greedy, seed, sigma, data):
        """Below sampling rate 1, the galloping, pruning search against
        plain bisection over the full column range, both read through
        `first_collision`: the same d and hint for every (i_a, i_b), and
        hint 0 after a call without a hit. The greedy case is
        `NoPrepOracle`, the same search at l = k and i_a = i_b. Each probe
        scans a tail of the full range and finds there the hit a full scan
        finds, at no more retrievals; a call makes at most 2 b + 1 probes,
        b the bit length of d above the floor 2l. Per call the search can
        still take more retrievals than bisection when d lies far above the
        floor, where it makes up to twice as many probes."""
        n = data.draw(st.integers(2, 120))
        # l above 4 ln n subsamples
        ell = data.draw(st.integers(int(4 * math.log(n)) + 1, 48))
        inst = gen_planted(n, sigma, data.draw(st.integers(0, min(n, 6))),
                           seed=seed)
        cfg = HashConfig.from_seed(seed)
        if greedy:
            k = ell
            orc = NoPrepOracle(inst.a, inst.b, k, cfg)
            calls = [(i_b, i_b) for i_b in range(1, n + 1)]
        else:
            k = data.draw(st.integers(ell, min(ell * ell, 64)))
            orc = NoPrepShiftOracle(inst.a, inst.b, k, ell, cfg)
            calls = [(i_a, i_b) for i_b in range(1, n + 1)
                     for i_a in range(max(1, i_b - k), min(n, i_b + k) + 1)]
        assert isinstance(orc.views, ViewStack)
        ctr, r, q = orc.counters, orc.r, orc.q
        a_views = range(orc.b_cols.start)  # column v reads A at (v - q) r
        first = orc.views.first_collision
        probes = []

        def recorded(i, j, a_cols, b_cols):
            before = ctr.retrievals
            hit = first(i, j, a_cols, b_cols)
            probes.append((i, j, a_cols, b_cols, hit,
                           ctr.retrievals - before))
            return hit

        orc.views.first_collision = recorded
        for i_a, i_b in calls:
            delta = i_a - i_b
            cols = range(math.floor((delta - ell) / r) + q,
                         math.ceil((delta + ell) / r) + q + 1)
            # the oracle holds every A view a call within reach can scan
            assert a_views.start <= cols.start and cols.stop <= a_views.stop
            floor, hi = min(2 * ell, n - i_b + 1), n - i_b + 1
            lo, hint = floor, 0
            while lo < hi:
                mid = (lo + hi + 1) // 2
                got = first(i_b + ell, i_b + mid - ell - 1, cols,
                            orc.b_cols)
                if got is None:
                    hi = mid - 1
                else:
                    lo = mid
                    hint = ((got[0] - q) * r + got[1] - orc.b_cols.start
                            - delta)
            probes.clear()
            before = ctr.retrievals
            assert orc(i_a, i_b) == lo
            assert orc.last_hint == hint
            assert ctr.retrievals - before == sum(p[5] for p in probes)
            assert len(probes) <= 2 * (lo - floor).bit_length() + 1
            for i, j, a_cols, b_cols, hit, taken in probes:
                assert a_cols.stop == cols.stop
                assert a_cols.start >= cols.start
                before = ctr.retrievals
                assert first(i, j, cols, b_cols) == hit
                assert ctr.retrievals - before >= taken

    @pytest.mark.parametrize("greedy", [False, True])
    def test_call_without_hit_leaves_hint_zero(self, greedy):
        # B is A shifted by 2 up to position 100, then symbols A never has;
        # l = 25 > 4 ln 200 subsamples, and at l = 9 the rate is 1
        rng = np.random.default_rng(3)
        a_data = rng.integers(1, 5, 200)
        b_data = np.concatenate([a_data[2:102], rng.integers(5, 9, 100)])
        a, b = ByteString(a_data, 8), ByteString(b_data, 8)
        for k, ell in ((25, 25), (9, 9)):
            orc = (NoPrepOracle(a, b, k, CFG) if greedy
                   else NoPrepShiftOracle(a, b, k, ell, CFG))
            subsampled = orc.views is not None
            assert subsampled == (ell == 25)
            # below rate 1 nothing under the floor 2l is probed
            floor = 2 * ell if subsampled else 0
            assert orc(1, 1) > floor and orc.last_hint == 2
            assert orc(120, 120) == floor and orc.last_hint == 0

    def test_granularity_precondition(self):
        # only the birthday split below rate 1 needs l >= ceil(sqrt(k)):
        # 4 ln 2000 < 31 < 32 = ceil(sqrt(1024))
        inst = gen_planted(2000, 4, 0, seed=2)
        with pytest.raises(ValueError, match="below sampling rate 1"):
            NoPrepShiftOracle(inst.a, inst.b, 1024, 31, CFG)

    @pytest.mark.parametrize("seed", range(4))
    def test_rate_one_serves_granularity_below_sqrt_k(self, seed):
        # l = 2 < 3 = ceil(sqrt(9)), at rate 1: the exact shift search
        inst = gen_planted(100, 4, seed + 1, seed=seed)
        got, want = WaveTable(), WaveTable()
        v, _ = gap_wave(inst.a, inst.b, 9, 2, "noprep", seed=seed, table=got)
        assert v == gap_wave(inst.a, inst.b, 9, 2, "exact", table=want)[0]
        assert got.rows == want.rows


class TestOneSidedWaveIndex:
    def test_rate_one_is_the_symbol_search(self):
        """At rate 1 the wave index's oracle is `SymbolShiftOracle` over A
        and B: its answers, hints and counters. Twosided hashes, so only its
        answers and hints agree."""
        for t in range(3):
            n, k, ell = 160, 9, 3
            inst = gen_planted(n, 4, 4, seed=t)
            index = OneSidedWaveIndex.preprocess(inst.a, k, ell, CFG)
            assert index.a is not None
            one = IndexedShiftOracle(index, inst.b)
            sym = SymbolShiftOracle(inst.a, inst.b, k, ell)
            two = TwoSidedShiftOracle(TwoSidedIndex.preprocess(inst.a, k, CFG),
                                      inst.b, ell)
            for i_b in range(1, n + 1, 2):
                for i_a in (max(1, i_b - 3), i_b, min(n, i_b + 3)):
                    got = (one(i_a, i_b), one.last_hint)
                    assert got == (sym(i_a, i_b), sym.last_hint)
                    assert got == (two(i_a, i_b), two.last_hint)
            assert one.counters == sym.counters

    def test_no_hint_below_rate_one(self):
        inst = gen_planted(200, 4, 4, seed=5)
        orc = IndexedShiftOracle(
            OneSidedWaveIndex.preprocess(inst.a, 30, 24, CFG), inst.b)
        assert orc.buckets is not None
        assert orc(1, 1) > 0 and orc.last_hint is None

    def test_identical_strings_reach_end(self):
        inst = gen_planted(256, 4, 0, seed=3)
        idx = OneSidedWaveIndex.preprocess(inst.a, 8, 4, CFG)
        orc = IndexedShiftOracle(idx, inst.a)
        for i_b in (1, 77, 200):
            assert orc(i_b, i_b) == 256 - i_b + 1


def rate_one_cell(data) -> tuple[int, int, int]:
    """(n, l, k) with 1 <= l <= k <= min(l^2, 20) and sampling rate 1 at
    l, which holds for l <= 4 ln n."""
    n = data.draw(st.integers(1, 200))
    ell_max = int(4 * math.log(n)) if n > 1 else 20
    ell = data.draw(st.integers(1, min(ell_max, 20)))
    return n, ell, data.draw(st.integers(ell, min(ell * ell, 20)))


class TestExactHints:
    @pytest.mark.parametrize("mode", ["noprep", "onesided", "twosided",
                                      "exact"])
    @given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.booleans(),
           st.data())
    @settings(max_examples=25, deadline=None)
    def test_hint_is_a_shift_that_matches(self, mode, seed, sigma, greedy,
                                          data):
        """Every exact-answer oracle (noprep and onesided at rate 1,
        twosided, and exact mode's, in both deciders) sets `last_hint` to a
        c with B[i_b .. i_b+d-1] equal to A[i_a+c .. i_a+c+d-1] symbol for
        symbol, |c| <= l and |i_a + c - i_b| <= k; after a call with d = 0
        it is 0."""
        n, ell, k = rate_one_cell(data)
        if greedy:
            k = ell
        inst = gen_planted(n, sigma, data.draw(st.integers(0, min(n, 2 * k))),
                           seed=seed)
        a, b = inst.a, inst.b
        cfg = HashConfig.from_seed(seed)
        if mode == "noprep":
            orc = (NoPrepOracle(a, b, k, cfg) if greedy
                   else NoPrepShiftOracle(a, b, k, ell, cfg))
            assert orc.views is None  # noprep at rate 1 searches exactly
        elif mode == "exact":
            orc = SymbolShiftOracle(a, b, k, ell)
        elif mode == "onesided":
            orc = (OneSidedOracle(OneSidedIndex.preprocess(a, k, cfg), b)
                   if greedy else IndexedShiftOracle(
                       OneSidedWaveIndex.preprocess(a, k, ell, cfg), b))
            assert orc.buckets is None  # onesided at rate 1, too
        else:
            index = TwoSidedIndex.preprocess(a, k, cfg)
            orc = (TwoSidedOracle(index, b) if greedy
                   else TwoSidedShiftOracle(index, b, ell))
        for i_b in range(1, n + 1):
            for i_a in ([i_b] if greedy
                        else range(max(1, i_b - k), min(n, i_b + k) + 1)):
                d = orc(i_a, i_b)
                c = orc.last_hint
                if d == 0:
                    assert c == 0
                    continue
                assert abs(c) <= ell and abs(i_a + c - i_b) <= k
                assert 1 <= i_a + c and i_a + c + d - 1 <= n
                assert np.array_equal(a.window(i_a + c, i_a + c + d - 1),
                                      b.window(i_b, i_b + d - 1))


class TestGapWaveModes:
    @pytest.mark.parametrize("mode", ["noprep", "onesided", "twosided"])
    def test_small_side(self, mode):
        for t in range(8):
            inst = gen_planted(300, 4, 9, seed=t)
            v, _ = gap_wave(inst.a, inst.b, 9, 3, mode, seed=t)
            assert v == GapVerdict.SMALL

    @pytest.mark.parametrize("mode", ["noprep", "onesided", "twosided"])
    def test_large_side(self, mode):
        for t in range(5):
            inst = gen_large_side(400, 64, 270, seed=t)
            v, _ = gap_wave(inst.a, inst.b, 9, 3, mode, seed=t)
            assert v == GapVerdict.LARGE

    @pytest.mark.parametrize("decider", ["gap_match", "gap_wave"])
    def test_twosided_queries_hash_b_once(self, decider):
        # both deciders book B's one full hash pass on the query counters,
        # and A's index build on none of them
        inst = gen_planted(256, 4, 5, seed=4)
        if decider == "gap_match":
            v, counters = gap_match(inst.a, inst.b, 9, "twosided", seed=4)
        else:
            v, counters = gap_wave(inst.a, inst.b, 9, 3, "twosided", seed=4)
        assert v == GapVerdict.SMALL
        assert counters.init_steps == 256

    @given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_twosided_equals_exact(self, seed, sigma, data):
        """The two-sided wave oracle answers from the exact index, so its
        verdict and every `WaveTable` row equal the brute-force referee's,
        hash collisions aside."""
        n = data.draw(st.integers(1, 200))
        k = data.draw(st.integers(1, 20))
        ell = data.draw(st.integers(1, k))
        inst = gen_planted(n, sigma, data.draw(st.integers(0, min(n, 2 * k))),
                           seed=seed)
        got, want = WaveTable(), WaveTable()
        v, _ = gap_wave(inst.a, inst.b, k, ell, "twosided", seed=seed,
                        table=got)
        assert v == gap_wave(inst.a, inst.b, k, ell, "exact", table=want)[0]
        assert got.rows == want.rows

    @given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_noprep_at_rate_one_equals_exact(self, seed, sigma, data):
        """At sampling rate 1 (l <= 4 ln n) the noprep oracles ask the exact
        shift search, so the wave's verdict and `WaveTable` rows, and the
        greedy decider's verdict and jumps at k = l, equal the brute-force
        referee's, hash collisions aside."""
        n, ell, k = rate_one_cell(data)
        inst = gen_planted(n, sigma, data.draw(st.integers(0, min(n, 2 * k))),
                           seed=seed)
        got, want = WaveTable(), WaveTable()
        v, _ = gap_wave(inst.a, inst.b, k, ell, "noprep", seed=seed,
                        table=got)
        assert v == gap_wave(inst.a, inst.b, k, ell, "exact", table=want)[0]
        assert got.rows == want.rows
        got, want = GreedyTrace(), GreedyTrace()
        v, _ = gap_match(inst.a, inst.b, ell, "noprep", seed=seed, trace=got)
        assert v == gap_match(inst.a, inst.b, ell, "exact", trace=want)[0]
        assert (got.starts, got.jumps) == (want.starts, want.jumps)

    def test_unknown_mode(self):
        inst = gen_planted(64, 4, 0, seed=5)
        with pytest.raises(ValueError):
            gap_wave(inst.a, inst.b, 4, 2, "bogus")


class TestSeeds:
    # n = 2000, l = 32 samples at rate 4 ln n / l < 1: the draw sets the work
    INST = gen_planted(2000, 4, 64, seed=3)

    def test_integer_seed_replays_the_sample_draw(self):
        a, b = self.INST.a, self.INST.b
        runs = [gap_wave(a, b, 64, 32, "noprep", seed=s)
                for s in (7, 7, np.int64(7))]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("seed", [[1, 2], 1.5, "abc"])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            gap_wave(self.INST.a, self.INST.b, 64, 32, "noprep", seed=seed)
