import numpy as np
import pytest

from gapedit.greedy import GapVerdict, GreedyTrace, greedy_match
from gapedit.hashing import HashConfig
from gapedit.instances import gen_large_side, gen_planted
from gapedit.one_sided import OneSidedIndex, OneSidedOracle
from gapedit.two_sided import TwoSidedIndex, TwoSidedOracle
from gapedit.strings import ByteString, max_shift_alignment_bruteforce


def exact_oracle(a, b, k):
    return lambda i_b: max_shift_alignment_bruteforce(a, b, i_b, i_b, k, k)


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
        greedy_match(a, b, 1, lambda i: 0, trace=trace)
        assert trace.starts == [1, 2, 3]

    def test_parameter_validation(self):
        a = ByteString(np.array([1, 2]), 2)
        with pytest.raises(ValueError):
            greedy_match(a, a, 0, lambda i: 0)
        with pytest.raises(ValueError):
            greedy_match(a, ByteString(np.array([1]), 2), 1, lambda i: 0)

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
