import numpy as np
import pytest

from gapedit import GapVerdict, gap_match
from gapedit.hashing import HashConfig, OpCounters
from gapedit.instances import gen_large_side, gen_planted
from gapedit.no_prep import NoPrepOracle
from gapedit.strings import (ByteString, has_approximate_alignment,
                             max_shift_alignment_bruteforce)


class TestNoPrepOracle:
    def test_never_undershoots_bruteforce(self):
        for t in range(8):
            n, k = 250, 9
            inst = gen_planted(n, 4, 5, seed=t)
            orc = NoPrepOracle(inst.a, inst.b, k, HashConfig.from_seed(t))
            for i_b in range(1, n + 1, 3):
                d = orc(i_b, i_b)
                assert d >= max_shift_alignment_bruteforce(
                    inst.a, inst.b, i_b, i_b, k, k)

    def test_output_is_approximate_alignment(self):
        for t in range(6):
            n, k = 250, 9
            inst = gen_planted(n, 4, 5, seed=100 + t)
            orc = NoPrepOracle(inst.a, inst.b, k, HashConfig.from_seed(t))
            for i_b in range(1, n + 1, 5):
                d = orc(i_b, i_b)
                assert has_approximate_alignment(inst.a, inst.b, i_b, d,
                                                 3 * k, 3 * k,
                                                 hint=orc.last_hint)

    def test_floor_is_two_k(self):
        # below rate 1 (k = 20 > 4 ln 100) probes are shaved by k on both
        # ends, and fully shaved probes are empty, so anything up to 2k
        # passes
        inst = gen_planted(100, 4, 0, seed=0)
        b = inst.b
        b.data[10:90] = (b.data[10:90] % 4) + 1  # heavy damage mid-string
        orc = NoPrepOracle(inst.a, b, 20, HashConfig.from_seed(5))
        assert orc.views is not None  # below rate 1
        assert orc(20, 20) >= 40

    def test_state_count_is_birthday_split(self):
        # n = 2000, k = 64 samples at rate 4 ln n / k < 1
        inst = gen_planted(2000, 4, 0, seed=1)
        k = 64
        orc = NoPrepOracle(inst.a, inst.b, k, HashConfig.from_seed(6))
        r = 8
        assert orc.views is not None  # below rate 1
        # rows: 2q + 1 A views (q = ceil(k / r) = r here), then r B views
        assert orc.views.prefix.shape[0] == 3 * r + 1
        # every view folds each sampled position once: the work AC06 fits
        assert orc.counters.init_steps == (3 * r + 1) * len(orc.samples)

    def test_rate_one_folds_nothing(self):
        # n = 120, k = 10 samples at rate 1: the search compares A's and
        # B's symbols, with no views and no fold, and each symbol of A it
        # compares is one retrieval: the work AC06 fits in its saturated
        # column
        a = ByteString(np.arange(1, 121), 120)  # no symbol repeats
        orc = NoPrepOracle(a, a, 10, HashConfig.from_seed(6))
        assert orc.views is None and orc.counters == OpCounters()
        assert orc(1, 1) == 120 and orc.last_hint == 0
        # d = 1 tests the 11 in-range copies, shifts 0 .. 10, one symbol
        # each; only shift 0 survives, and d = 2, 4, .., 64, 120 compare
        # its next 1, 2, .., 32, 56 symbols: 8 probes, 11 + 119 symbols
        assert orc.counters == OpCounters(init_steps=0, retrievals=130,
                                          table_lookups=8, oracle_queries=1)

    def test_rejects_unequal_lengths(self):
        a = gen_planted(50, 4, 0, seed=2).a
        b = gen_planted(40, 4, 0, seed=3).a
        with pytest.raises(ValueError):
            NoPrepOracle(a, b, 3, HashConfig.from_seed(7))


class TestNoPrepGap:
    def test_small_side(self):
        for t in range(15):
            k = 4
            inst = gen_planted(400, 8, k, seed=t)
            v, _ = gap_match(inst.a, inst.b, k, mode="noprep", seed=t)
            assert v == GapVerdict.SMALL

    def test_large_side(self):
        for t in range(10):
            # 40k^2 = 160 at k = 2
            inst = gen_large_side(256, 64, 160, seed=t)
            v, _ = gap_match(inst.a, inst.b, 2, mode="noprep", seed=t)
            assert v == GapVerdict.LARGE

    def test_deterministic_given_seed(self):
        inst = gen_planted(300, 4, 3, seed=5)
        r1 = gap_match(inst.a, inst.b, 3, mode="noprep", seed=42)
        r2 = gap_match(inst.a, inst.b, 3, mode="noprep", seed=42)
        assert r1[0] == r2[0] and r1[1] == r2[1]
