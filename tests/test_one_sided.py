import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from gapedit import GapVerdict, gap_match
from gapedit.hashing import HashConfig
from gapedit.instances import gen_large_side, gen_planted
from gapedit.one_sided import (_HEAD, MAGIC_1S, IndexedShiftOracle,
                               OneSidedIndex, OneSidedOracle,
                               OneSidedWaveIndex, anchor_positions)
from gapedit.two_sided import TwoSidedIndex, TwoSidedOracle

CFG = HashConfig.from_seed(77)

# magic (6 bytes), then version, layout and ten 8-byte fields
HEAD_END = 88


def both_indexes(a, force_general):
    """The greedy decider's and the wave decider's index of one A."""
    return [OneSidedIndex.preprocess(a, 4, CFG, force_general=force_general),
            OneSidedWaveIndex.preprocess(a, 6, 3, CFG,
                                         force_general=force_general)]


def answers(index, b):
    """Shift-oracle answers at every i_b, for offsets 0 and +-l."""
    orc = IndexedShiftOracle(index, b)
    n, ell = index.n, index.ell
    return [orc(i_b + d, i_b) for i_b in range(1, n + 1)
            for d in (-ell, 0, ell) if 1 <= i_b + d <= n]


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Bytes of small saved indexes: greedy and wave, in both layouts."""
    inst = gen_planted(40, 4, 1, seed=11)
    path = tmp_path_factory.mktemp("saved") / "a.gedt1s"
    out = []
    for force_general in (False, True):
        for idx in both_indexes(inst.a, force_general):
            idx.save(path)
            out.append(path.read_bytes())
    return out


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


class TestBadIndexParameters:
    A = gen_planted(32, 4, 2, seed=1).a

    def test_greedy_index_k_below_one(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            OneSidedIndex.preprocess(self.A, 0, CFG)

    def test_wave_index_l_zero(self):
        with pytest.raises(ValueError, match="1 <= l <= k"):
            OneSidedWaveIndex.preprocess(self.A, 4, 0, CFG)

    def test_wave_index_l_above_k(self):
        with pytest.raises(ValueError, match="1 <= l <= k"):
            OneSidedWaveIndex.preprocess(self.A, 4, 8, CFG)


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
        orc = OneSidedOracle(idx, inst.a)
        # binary expansion must cover the whole remaining suffix
        for i_b in (1, 100, 256):
            assert orc(i_b) == 256 - i_b + 1

    def test_b_of_wrong_length_rejected(self):
        a = gen_planted(256, 4, 0, seed=9).a
        b = gen_planted(200, 4, 0, seed=9).b
        for oracle, index in [
                (OneSidedOracle, OneSidedIndex.preprocess(a, 8, CFG)),
                (IndexedShiftOracle,
                 OneSidedWaveIndex.preprocess(a, 8, 4, CFG)),
                (TwoSidedOracle, TwoSidedIndex.preprocess(a, 8, CFG))]:
            with pytest.raises(ValueError, match="length 200.* n = 256"):
                oracle(index, b)

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
        from gapedit.strings import max_shift_alignment_bruteforce
        for t in range(4):
            n, k = 256, 8
            inst = gen_planted(n, 4, 4, seed=20 + t)
            idx = OneSidedIndex.preprocess(inst.a, k, CFG)
            assert idx.dense is not None
            orc = OneSidedOracle(idx, inst.b)
            for i_b in range(1, n + 1):
                bf = max_shift_alignment_bruteforce(inst.a, inst.b, i_b, i_b,
                                                    k, k)
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
        path = tmp_path / "a.gedt1s"
        for idx in both_indexes(inst.a, force_general=True):
            idx.save(path)
            idx2 = type(idx).load(path)
            assert (idx2.n, idx2.k, idx2.ell, idx2.buckets) == (
                idx.n, idx.k, idx.ell, idx.buckets)
            assert (idx2.cfg.x, idx2.cfg.p) == (CFG.x, CFG.p)
            assert list(idx2.samples.indices) == list(idx.samples.indices)
            assert idx2.dense is None
            assert idx2.tables.keys() == idx.tables.keys()
            # cells are views of the file's bytes
            assert not any(c.flags.owndata for c in idx2.tables.values())
            assert answers(idx2, inst.b) == answers(idx, inst.b)

    def test_dense_roundtrip(self, tmp_path):
        inst = gen_planted(150, 4, 2, seed=6)
        path = tmp_path / "a.gedt1s"
        for idx in both_indexes(inst.a, force_general=False):
            assert idx.dense is not None
            idx.save(path)
            idx2 = type(idx).load(path)
            assert idx2.tables is None and len(idx2.dense) == len(idx.dense)
            for (h2, u2), (h, u) in zip(idx2.dense, idx.dense):
                assert list(h2) == list(h) and list(u2) == list(u)
            assert answers(idx2, inst.b) == answers(idx, inst.b)

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_rejected(self, saved_files, tmp_path_factory,
                                       data):
        raw = bytearray(data.draw(st.sampled_from(saved_files)))
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] ^= data.draw(st.integers(1, 255))
        path = tmp_path_factory.getbasetemp() / "flipped.gedt1s"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            OneSidedIndex.load(path)

    # header fields after the magic: version, layout, p, x, n, k, l, first
    # and one-past-last shift bucket, sample, key and hash counts
    @pytest.mark.parametrize("field,change,match", [
        (1, lambda h: 2, "unknown index layout 2"),
        (1, lambda h: 255, "unknown index layout 255"),
        (5, lambda h: 0, "k must be at least 1"),
        (6, lambda h: 0, "need 1 <= l <= k"),
        (6, lambda h: h[5] + 1, "need 1 <= l <= k"),
        (5, lambda h: 2 * h[5], "fit neither index"),
        (7, lambda h: h[7] - 1, "fit neither index"),
        (8, lambda h: h[8] + 1, "fit neither index"),
        (2, lambda h: 2**31 - 1, "only the Mersenne prime"),
        (2, lambda h: 0, "only the Mersenne prime"),
        (3, lambda h: 0, "hash base must be nonzero"),
    ])
    def test_bad_header_rejected_under_a_good_checksum(
            self, saved_files, tmp_path, field, change, match):
        path = tmp_path / "edited.gedt1s"
        for raw in saved_files:
            for edit in (False, True):
                head = list(_HEAD.unpack_from(raw, len(MAGIC_1S)))
                if edit:
                    head[field] = change(head)
                body = bytearray(raw[:-4])
                _HEAD.pack_into(body, len(MAGIC_1S), *head)
                crc = zlib.crc32(memoryview(body)[len(MAGIC_1S):])
                path.write_bytes(bytes(body) + struct.pack("<I", crc))
                if edit:
                    with pytest.raises(ValueError, match=match):
                        OneSidedIndex.load(path)
                else:  # the checksum alone would let it load
                    assert OneSidedIndex.load(path).k == head[5]

    def test_truncated_or_overlong_file_rejected(self, tmp_path):
        inst = gen_planted(12, 4, 1, seed=8)
        idx = OneSidedIndex.preprocess(inst.a, 3, CFG, force_general=True)
        path = tmp_path / "a.gedt1s"
        idx.save(path)
        raw = path.read_bytes()
        # the header ends with the sample, key and hash counts; then come
        # the samples, (e, col, bucket, count) keys, hashes and the checksum
        ns, nk, nh = struct.unpack_from("<QQQ", raw, HEAD_END - 24)
        assert len(raw) == HEAD_END + 8 * (ns + 4 * nk + nh) + 4
        assert nk == len(idx.tables) > 1
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=rf"^truncated index file: "
                                                 rf".* file has {cut}$"):
                OneSidedIndex.load(path)
            if cut >= HEAD_END:
                # past the header, a cut names the length the header gives
                with pytest.raises(ValueError, match=f"needs {len(raw)} "
                                                     f"bytes, file has {cut}"):
                    OneSidedIndex.load(path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match=f"has {len(raw) + 1} bytes, "
                                             f"expected {len(raw)}"):
            OneSidedIndex.load(path)
        path.write_bytes(raw)
        assert OneSidedIndex.load(path).tables.keys() == idx.tables.keys()
