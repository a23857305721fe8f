import numpy as np
import pytest

from gapedit import edit_distance_at_most, gap_match
from gapedit.greedy import GapVerdict, GreedyTrace, greedy_match
from gapedit.hashing import HashConfig, OpCounters, sample_rate
from gapedit.instances import gen_large_side, gen_planted
from gapedit.no_prep import NoPrepOracle
from gapedit.one_sided import (IndexedShiftOracle, OneSidedIndex,
                               OneSidedOracle, OneSidedWaveIndex)
from gapedit.two_sided import (SymbolShiftOracle, TwoSidedIndex,
                               TwoSidedOracle, TwoSidedShiftOracle)
from gapedit.strings import ByteString, max_shift_alignment_bruteforce
from gapedit.wave import BruteForceShiftOracle, NoPrepShiftOracle


def exact_oracle(a, b, k):
    return lambda i_a, i_b: max_shift_alignment_bruteforce(a, b, i_a, i_b,
                                                            k, k)


class TestGreedyMatch:
    def test_close_pairs_are_small(self):
        for t in range(25):
            k = 4
            inst = gen_planted(200, 4, k, seed=t)
            v = greedy_match(inst.a, inst.b, k,
                             exact_oracle(inst.a, inst.b, k))
            assert v == GapVerdict.SMALL

    def test_identical_pair_small_in_one_round(self):
        a = ByteString(np.arange(1, 51) % 4 + 1, 4)
        trace = GreedyTrace()
        v = greedy_match(a, a, 2, exact_oracle(a, a, 2), trace=trace)
        assert v == GapVerdict.SMALL
        assert trace.starts == [1] and trace.jumps == [50]

    def test_far_pairs_are_large(self):
        # threshold 40k^2 = 160 < n
        for t in range(10):
            inst = gen_large_side(256, 64, 160, seed=t)
            v = greedy_match(inst.a, inst.b, 2,
                             exact_oracle(inst.a, inst.b, 2))
            assert v == GapVerdict.LARGE

    def test_round_budget_is_2k_plus_1(self):
        a = ByteString(np.full(30, 1), 2)
        b = ByteString(np.full(30, 2), 2)
        trace = GreedyTrace()
        greedy_match(a, b, 3, exact_oracle(a, b, 3), trace=trace)
        assert len(trace.starts) == 7

    def test_zero_jumps_still_advance(self):
        a = ByteString(np.full(5, 1), 2)
        b = ByteString(np.full(5, 2), 2)
        trace = GreedyTrace()
        greedy_match(a, b, 1, lambda i_a, i_b: 0, trace=trace)
        assert trace.starts == [1, 2, 3]

    def test_parameter_validation(self):
        a = ByteString(np.array([1, 2]), 2)
        with pytest.raises(ValueError):
            greedy_match(a, a, 0, lambda i_a, i_b: 0)
        with pytest.raises(ValueError):
            greedy_match(a, ByteString(np.array([1]), 2), 1,
                         lambda i_a, i_b: 0)

    def test_index_built_for_another_k_refused(self):
        inst = gen_planted(64, 4, 1, seed=4)
        cfg = HashConfig.from_seed(4)
        for index, oracle in (
                (OneSidedIndex.preprocess(inst.a, 3, cfg), OneSidedOracle),
                (TwoSidedIndex.preprocess(inst.a, 3, cfg), TwoSidedOracle)):
            orc = oracle(index, inst.b)
            with pytest.raises(ValueError, match="built for k = 3"):
                greedy_match(inst.a, inst.b, 4, orc)
            assert greedy_match(inst.a, inst.b, 3, orc) is GapVerdict.SMALL
        # below sampling rate 1 (64 > 4 ln 2000) the noprep oracle holds
        # views of a sample, and is refused all the same
        inst = gen_planted(2000, 4, 0, seed=4)
        orc = NoPrepOracle(inst.a, inst.b, 64, cfg)
        assert orc.views is not None
        with pytest.raises(ValueError, match="built for k = 64"):
            greedy_match(inst.a, inst.b, 16, orc)


class TestZigZag:
    @pytest.mark.parametrize("k,pieces", [(4, 8), (8, 6), (8, 16)])
    def test_pieces_at_alternating_shifts_are_crossed(self, k, pieces):
        """B made of an even number of pieces, at most 2k + 1, of A at
        shifts +k, -k, +k, .., -k (an odd count would end on +k, past A):
        greedy crosses it piece by piece, each jump reaching at least
        the end of the piece it starts in, so exact mode and noprep at
        sampling rate 1 (k <= 4 ln n) say SMALL with one trace, hints
        included, on a pair whose edit distance is far above k."""
        n = 480
        assert k <= 4 * np.log(n) and pieces <= 2 * k + 1
        a = ByteString(np.random.default_rng(k).integers(1, 5, n), 4)
        bounds = np.linspace(0, n, pieces + 1).astype(int)
        b_data = a.data.copy()
        for t in range(pieces):
            lo, hi = bounds[t], bounds[t + 1]
            shift = k if t % 2 == 0 else -k
            b_data[lo:hi] = a.data[lo + shift:hi + shift]
        b = ByteString(b_data, 4)
        runs = {}
        for mode in ("exact", "noprep"):
            trace = GreedyTrace()
            verdict, _ = gap_match(a, b, k, mode, seed=k, trace=trace)
            assert verdict is GapVerdict.SMALL
            runs[mode] = (trace.starts, trace.jumps, trace.hints)
        assert runs["exact"] == runs["noprep"]
        assert len(runs["exact"][0]) <= pieces
        assert set(runs["exact"][2]) <= {-k, k}
        assert not edit_distance_at_most(a, b, 4 * k)


def decide(a, b, k, oracle, counters):
    """greedy_match's verdict, trace and counters over `oracle`."""
    trace = GreedyTrace()
    verdict = greedy_match(a, b, k, oracle, trace=trace)
    return verdict, (trace.starts, trace.jumps, trace.hints), counters


def indexed(a, b, k, cfg, build, oracle):
    """greedy_match over oracle(index, b, counters), with A's index built
    and its work booked as `gap_match` books it."""
    counters = OpCounters()
    index = build(a, k, cfg)
    index.counters = counters
    return decide(a, b, k, oracle(index, b, counters), counters)


class TestOneProtocol:
    """greedy_match asks every oracle at (i_b, i_b), so each backend's shift
    oracle built at l = k decides as its greedy class does: the same
    verdict, starts, jumps, hints and counters."""

    @pytest.mark.parametrize("edits", [2, 60])
    @pytest.mark.parametrize("backend,k", [
        ("twosided", 4), ("twosided", 25), ("onesided", 4), ("onesided", 25),
        ("noprep", 4),
        ("exact", 4)])
    def test_shift_oracle_at_l_equals_k_decides_as_greedy_class(
            self, backend, k, edits):
        assert (sample_rate(300, k) < 1) == (k == 25)  # 25 > 4 ln 300
        inst = gen_planted(300, 4, edits, seed=edits + k)
        a, b, cfg = inst.a, inst.b, HashConfig.from_seed(k)
        if backend == "twosided":
            shift = indexed(a, b, k, cfg, TwoSidedIndex.preprocess,
                            lambda ix, b, c: TwoSidedShiftOracle(ix, b, k, c))
            greedy = indexed(a, b, k, cfg, TwoSidedIndex.preprocess,
                             TwoSidedOracle)
        elif backend == "onesided":
            shift = indexed(a, b, k, cfg, OneSidedIndex.preprocess,
                            IndexedShiftOracle)
            greedy = indexed(a, b, k, cfg, OneSidedIndex.preprocess,
                             OneSidedOracle)
        elif backend == "noprep":
            # below rate 1 the greedy class builds only the views of
            # i_a = i_b, so the two agree at rate 1 only, where both compare
            # symbols as exact mode does
            ctr = OpCounters()
            orc = NoPrepShiftOracle(a, b, k, k, cfg, ctr)
            assert orc.views is None
            shift = decide(a, b, k, orc, ctr)
            ctr = OpCounters()
            greedy = decide(a, b, k, NoPrepOracle(a, b, k, cfg, ctr), ctr)
            trace = GreedyTrace()
            exact = gap_match(a, b, k, "exact", trace=trace)
            assert greedy == (exact[0], (trace.starts, trace.jumps,
                                         trace.hints), exact[1])
        else:
            ctr = OpCounters()
            shift = decide(a, b, k, SymbolShiftOracle(a, b, k, k, ctr), ctr)
            trace = GreedyTrace()
            verdict, ctr = gap_match(a, b, k, "exact", trace=trace)
            greedy = verdict, (trace.starts, trace.jumps, trace.hints), ctr
            # the jumps are the brute-force referee's
            ref = decide(a, b, k, BruteForceShiftOracle(a, b, k, k), None)
            assert shift[1][:2] == ref[1][:2]
        assert shift == greedy
        assert len(shift[1][0]) > 1  # more than one round was asked

    @pytest.mark.parametrize("backend", ["noprep", "onesided", "twosided",
                                         "exact"])
    def test_wave_oracle_for_l_below_k_refused(self, backend):
        inst = gen_planted(200, 4, 2, seed=7)
        a, b, cfg = inst.a, inst.b, HashConfig.from_seed(7)
        k, ell = 8, 4
        orc = {
            "noprep": lambda: NoPrepShiftOracle(a, b, k, ell, cfg),
            "onesided": lambda: IndexedShiftOracle(
                OneSidedWaveIndex.preprocess(a, k, ell, cfg), b),
            "twosided": lambda: TwoSidedShiftOracle(
                TwoSidedIndex.preprocess(a, k, cfg), b, ell),
            "exact": lambda: SymbolShiftOracle(a, b, k, ell),
        }[backend]()
        with pytest.raises(ValueError, match="built for l = 4"):
            greedy_match(a, b, k, orc)


class TestSeeds:
    """An integer seed fixes x and the sample draw, so a run replays; any
    other seed is refused rather than drawing fresh entropy."""

    # n = 2000, k = 64 samples at rate 4 ln n / k < 1: the draw sets the work
    INST = gen_planted(2000, 4, 64, seed=3)

    def test_integer_seed_replays_the_sample_draw(self):
        a, b = self.INST.a, self.INST.b
        runs = [gap_match(a, b, 64, mode="noprep", seed=s)
                for s in (7, 7, np.int64(7))]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("seed", [[1, 2], 1.5, "abc"])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            gap_match(self.INST.a, self.INST.b, 64, mode="noprep", seed=seed)
