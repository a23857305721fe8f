import numpy as np
import pytest

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

    def test_lazy_and_materialized_agree(self):
        inst = gen_planted(90, 4, 3, seed=9)
        lazy = TwoSidedIndex.preprocess(inst.a, 4, CFG)
        mat = TwoSidedIndex.preprocess(inst.a, 4, CFG, materialize=True)
        st = b_state(inst.b)
        for i_b in range(1, 91):
            assert (two_sided_max_align(lazy, st, i_b)
                    == two_sided_max_align(mat, st, i_b))

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


class TestMaterialization:
    def test_limit_refused(self):
        inst = gen_planted(64, 4, 1, seed=5)
        with pytest.raises(ValueError):
            TwoSidedIndex.preprocess(inst.a, 2, CFG, materialize=True,
                                     limit=32)

    def test_limit_override(self):
        inst = gen_planted(40, 4, 1, seed=6)
        idx = TwoSidedIndex.preprocess(inst.a, 2, CFG, materialize=True,
                                       limit=40)
        assert idx.cells is not None


class TestSerialization:
    def test_roundtrip_preserves_answers(self, tmp_path):
        inst = gen_planted(70, 4, 2, seed=7)
        idx = TwoSidedIndex.preprocess(inst.a, 3, CFG, materialize=True)
        path = tmp_path / "a.gedt2s"
        idx.save(path)
        idx2 = TwoSidedIndex.load(path)
        assert idx2.k == 3 and idx2.n == 70 and idx2.cfg.x == CFG.x
        st = b_state(inst.b)
        for i_b in range(1, 71):
            assert (two_sided_max_align(idx, st, i_b)
                    == two_sided_max_align(idx2, st, i_b))

    def test_lazy_index_not_serializable(self, tmp_path):
        inst = gen_planted(50, 4, 1, seed=8)
        idx = TwoSidedIndex.preprocess(inst.a, 2, CFG)
        with pytest.raises(ValueError):
            idx.save(tmp_path / "x")

    def test_corrupt_magic_rejected(self, tmp_path):
        inst = gen_planted(50, 4, 1, seed=9)
        idx = TwoSidedIndex.preprocess(inst.a, 2, CFG, materialize=True)
        path = tmp_path / "a.gedt2s"
        idx.save(path)
        raw = bytearray(path.read_bytes())
        raw[2] ^= 0x55
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            TwoSidedIndex.load(path)

    def test_unknown_version_rejected(self, tmp_path):
        inst = gen_planted(50, 4, 1, seed=10)
        idx = TwoSidedIndex.preprocess(inst.a, 2, CFG, materialize=True)
        path = tmp_path / "a.gedt2s"
        idx.save(path)
        raw = bytearray(path.read_bytes())
        raw[6] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            TwoSidedIndex.load(path)
