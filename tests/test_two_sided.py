import numpy as np

from gapedit.greedy import GapVerdict, greedy_match
from gapedit.hashing import HashConfig, OpCounters, RollingHashState
from gapedit.instances import gen_planted
from gapedit.strings import ByteString, max_k_alignment_bruteforce
from gapedit.two_sided import (TwoSidedIndex, TwoSidedOracle, full_sample,
                               two_sided_max_align)

CFG = HashConfig.from_seed(1234)


def b_state(b, cfg=CFG):
    return RollingHashState(b, full_sample(len(b)), cfg)


class TestTwoSidedAlign:
    def test_equals_bruteforce_everywhere(self):
        for t in range(8):
            n, k = 100, 5
            inst = gen_planted(n, 3, 4, seed=t)
            idx = TwoSidedIndex.preprocess(inst.a, k, CFG)
            st = b_state(inst.b)
            for i_b in range(1, n + 1):
                assert (two_sided_max_align(idx, st, i_b)
                        == max_k_alignment_bruteforce(inst.a, inst.b, i_b, k))

    def test_membership_monotone_in_length(self):
        inst = gen_planted(80, 4, 2, seed=3)
        idx = TwoSidedIndex.preprocess(inst.a, 3, CFG)
        st = b_state(inst.b)
        for i_b in (1, 20, 41):
            d = two_sided_max_align(idx, st, i_b)
            for dd in range(0, d + 1):
                h = st.retrieve(i_b, i_b + dd - 1)
                assert idx.member(i_b, i_b + dd - 1, h)

    def test_oracle_counter_accounting(self):
        inst = gen_planted(64, 4, 2, seed=4)
        idx = TwoSidedIndex.preprocess(inst.a, 3, CFG)
        orc = TwoSidedOracle(idx, inst.b)
        before = idx.counters.table_lookups
        orc(1)
        assert orc.counters.oracle_queries == 1
        assert idx.counters.table_lookups > before

    def test_query_counts_a_rows_of_member(self, monkeypatch):
        # query retrievals = B-side retrieves + A-side rows member computed;
        # none of them lands on the build counters
        inst = gen_planted(512, 8, 4, seed=6)
        idx = TwoSidedIndex.preprocess(inst.a, 4, CFG)
        build = idx.counters
        built = (build.init_steps, build.retrievals)
        query = idx.counters = OpCounters()
        orc = TwoSidedOracle(idx, inst.b, query)
        rows, b_retrieves = [], []
        a_rows = idx.a_state.retrieve_many
        b_retrieve = orc.b_state.retrieve

        def counted_rows(i_arr, j_arr):
            rows.append(len(i_arr))
            return a_rows(i_arr, j_arr)

        def counted_retrieve(i, j):
            b_retrieves.append((i, j))
            return b_retrieve(i, j)

        monkeypatch.setattr(idx.a_state, "retrieve_many", counted_rows)
        monkeypatch.setattr(orc.b_state, "retrieve", counted_retrieve)
        assert greedy_match(inst.a, inst.b, 4, orc) == GapVerdict.SMALL
        assert sum(rows) > 0
        assert query.retrievals == len(b_retrieves) + sum(rows)
        assert (build.init_steps, build.retrievals) == built

