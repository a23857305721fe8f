import struct

import numpy as np
import pytest

from gapedit import GapVerdict, gap_match
from gapedit.hashing import HashConfig
from gapedit.instances import gen_large_side, gen_planted
from gapedit.one_sided import (OneSidedIndex, OneSidedOracle,
                               anchor_positions, one_sided_max_align,
                               one_sided_process_b)

CFG = HashConfig.from_seed(77)


class TestIndexStructure:
    def test_anchors(self):
        a = anchor_positions(100, 16)
        assert set(a) == {16, 32, 48, 64, 80, 96, 99}

    def test_sample_contains_anchors(self):
        inst = gen_planted(300, 4, 0, seed=0)
        idx = OneSidedIndex.preprocess(inst.a, 7, CFG)
        for pos in anchor_positions(300, 7):
            assert pos in idx.samples.indices

    def test_dense_strategy_when_rate_saturates(self):
        inst = gen_planted(200, 4, 0, seed=1)
        idx = OneSidedIndex.preprocess(inst.a, 4, CFG)
        assert idx.dense is not None and idx.tables is None

    def test_general_strategy_when_forced(self):
        inst = gen_planted(200, 4, 0, seed=2)
        idx = OneSidedIndex.preprocess(inst.a, 4, CFG, force_general=True)
        assert idx.tables is not None and idx.dense is None


class TestStrategyEquivalence:
    def test_dense_equals_general(self):
        for t in range(4):
            n, k = 180, 5
            inst = gen_planted(n, 4, 3, seed=t)
            dense = OneSidedIndex.preprocess(inst.a, k, CFG)
            gen = OneSidedIndex.preprocess(inst.a, k, CFG,
                                           force_general=True)
            od = OneSidedOracle(dense, inst.b)
            og = OneSidedOracle(gen, inst.b)
            for i_b in range(1, n + 1):
                assert od(i_b) == og(i_b)


class TestQuery:
    def test_identical_strings_reach_the_end(self):
        inst = gen_planted(256, 4, 0, seed=3)
        idx = OneSidedIndex.preprocess(inst.a, 8, CFG)
        st = one_sided_process_b(idx, inst.a)
        # binary expansion must cover the whole remaining suffix
        for i_b in (1, 100, 256):
            assert one_sided_max_align(idx, st, i_b) == 256 - i_b + 1

    def test_retrieval_budget_per_call(self):
        inst = gen_planted(300, 4, 4, seed=4)
        idx = OneSidedIndex.preprocess(inst.a, 8, CFG)
        orc = OneSidedOracle(idx, inst.b)
        import math
        budget = math.ceil(math.log2(300)) + 1
        for i_b in range(1, 301, 7):
            before = orc.counters.retrievals
            orc(i_b)
            assert orc.counters.retrievals - before <= budget

    def test_half_correctness_at_saturated_rate(self):
        # rate 1 makes every window of a true alignment hit, so the
        # binary expansion reaches at least the brute-force length
        from gapedit.strings import max_k_alignment_bruteforce
        for t in range(4):
            n, k = 256, 8
            inst = gen_planted(n, 4, 4, seed=20 + t)
            idx = OneSidedIndex.preprocess(inst.a, k, CFG)
            assert idx.dense is not None
            orc = OneSidedOracle(idx, inst.b)
            for i_b in range(1, n + 1):
                bf = max_k_alignment_bruteforce(inst.a, inst.b, i_b, k)
                assert orc(i_b) >= bf


class TestOneSidedGap:
    def test_small_side(self):
        for t in range(10):
            inst = gen_planted(256, 4, 8, seed=t)
            v, _ = gap_match(inst.a, inst.b, 8, mode="onesided", seed=t)
            assert v == GapVerdict.SMALL

    def test_large_side(self):
        for t in range(10):
            inst = gen_large_side(256, 64, 160, seed=t)
            v, _ = gap_match(inst.a, inst.b, 2, mode="onesided", seed=t)
            assert v == GapVerdict.LARGE


class TestSerialization:
    def test_general_roundtrip(self, tmp_path):
        inst = gen_planted(150, 4, 2, seed=5)
        idx = OneSidedIndex.preprocess(inst.a, 4, CFG, force_general=True)
        path = tmp_path / "a.gedt1s"
        idx.save(path)
        idx2 = OneSidedIndex.load(path)
        assert idx2.k == 4 and idx2.n == 150 and idx2.cfg.x == CFG.x
        assert list(idx2.samples.indices) == list(idx.samples.indices)
        o1, o2 = OneSidedOracle(idx, inst.b), OneSidedOracle(idx2, inst.b)
        for i_b in range(1, 151):
            assert o1(i_b) == o2(i_b)

    def test_dense_saves_as_equivalent_cells(self, tmp_path):
        inst = gen_planted(150, 4, 2, seed=6)
        idx = OneSidedIndex.preprocess(inst.a, 4, CFG)
        assert idx.dense is not None
        path = tmp_path / "a.gedt1s"
        idx.save(path)
        idx2 = OneSidedIndex.load(path)
        o1, o2 = OneSidedOracle(idx, inst.b), OneSidedOracle(idx2, inst.b)
        for i_b in range(1, 151):
            assert o1(i_b) == o2(i_b)

    def test_corrupt_rejected(self, tmp_path):
        inst = gen_planted(100, 4, 1, seed=7)
        idx = OneSidedIndex.preprocess(inst.a, 4, CFG)
        path = tmp_path / "a.gedt1s"
        idx.save(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            OneSidedIndex.load(path)

    def test_truncated_or_overlong_file_rejected(self, tmp_path):
        inst = gen_planted(12, 4, 1, seed=8)
        idx = OneSidedIndex.preprocess(inst.a, 3, CFG, force_general=True)
        path = tmp_path / "a.gedt1s"
        idx.save(path)
        raw = path.read_bytes()
        # walk the saved layout to find where each cell header starts: the
        # sample count follows magic (6), version (1), p, x (8 each) and
        # k, n (4 each)
        ns = struct.unpack_from("<Q", raw, 31)[0]
        off = 39 + 8 * ns
        ncells = struct.unpack_from("<Q", raw, off)[0]
        off += 8
        boundaries = []
        for _ in range(ncells):
            boundaries.append(off)
            off += 12 + 8 * struct.unpack_from("<III", raw, off)[2]
        assert off == len(raw) and len(boundaries) == len(idx.tables) > 1
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=rf"^truncated index file: "
                                                 rf".* file has {cut}$"):
                OneSidedIndex.load(path)
        for cut in boundaries:
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"needs {cut + 12} bytes, "
                                                 f"file has {cut}"):
                OneSidedIndex.load(path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match=f"has {len(raw) + 1} bytes, "
                                             f"expected {len(raw)}"):
            OneSidedIndex.load(path)
        path.write_bytes(raw)
        assert OneSidedIndex.load(path).tables.keys() == idx.tables.keys()
