import math
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapedit import (GapVerdict, GreedyTrace, WaveTable, gap_match, gap_wave,
                     greedy_match)
from gapedit import hashing
from gapedit.hashing import HashConfig, sample_rate
from gapedit.instances import gen_large_side, gen_planted
from gapedit.mers61 import P61
from gapedit.one_sided import (_HEAD, MAGIC_1S, IndexedShiftOracle,
                               OneSidedIndex, OneSidedOracle,
                               OneSidedWaveIndex, anchor_positions)
from gapedit.strings import ByteString, max_shift_alignment_bruteforce
from gapedit.two_sided import (SymbolShiftOracle, TwoSidedIndex,
                               TwoSidedOracle)

CFG = HashConfig.from_seed(77)
DATA = Path(__file__).parent / "data"

# magic (6 bytes), then version, layout and ten 8-byte fields
HEAD_END = 88


def both_indexes(a, rate_one):
    """The greedy decider's and the wave decider's index of one A: at
    sampling rate 1 (the symbols layout; A of length at most 150), or below
    it (the general layout; A of length 40 to 150)."""
    if rate_one:
        out = [OneSidedIndex.preprocess(a, 4, CFG),
               OneSidedWaveIndex.preprocess(a, 6, 3, CFG)]
    else:
        out = [OneSidedIndex.preprocess(a, 24, CFG),
               OneSidedWaveIndex.preprocess(a, 30, 24, CFG)]
    assert all((idx.dense is not None) == rate_one for idx in out)
    return out


def answers(index, b):
    """Shift-oracle answers and hints at every i_b, for offsets 0 and +-l."""
    orc = IndexedShiftOracle(index, b)
    n, ell = index.n, index.ell
    return [(orc(i_b + d, i_b), orc.last_hint) for i_b in range(1, n + 1)
            for d in (-ell, 0, ell) if 1 <= i_b + d <= n]


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Bytes of small saved indexes: greedy and wave, in both layouts."""
    inst = gen_planted(40, 4, 1, seed=11)
    path = tmp_path_factory.mktemp("saved") / "a.gedt1s"
    out = []
    for rate_one in (True, False):
        for idx in both_indexes(inst.a, rate_one):
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
            assert pos in idx.samples

    def test_prefix_layout_at_rate_one(self):
        # A's prefix hashes over every position, as the two-sided index
        # keeps them, and nothing else
        inst = gen_planted(200, 4, 0, seed=1)
        for idx in (OneSidedIndex.preprocess(inst.a, 4, CFG),
                    OneSidedWaveIndex.preprocess(inst.a, 21, 21, CFG)):
            assert idx.tables is None and len(idx.dense) == 1
            (h, xpow), = idx.dense
            two = TwoSidedIndex.preprocess(inst.a, idx.k, CFG)
            assert h.tolist() == two.prefix and xpow.tolist() == two.xpow
            assert idx.counters.init_steps == 200

    def test_general_layout_below_rate_one(self):
        inst = gen_planted(200, 4, 0, seed=2)
        assert sample_rate(200, 22) < 1 <= sample_rate(200, 21)
        for idx in (OneSidedIndex.preprocess(inst.a, 22, CFG),
                    OneSidedWaveIndex.preprocess(inst.a, 30, 22, CFG)):
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


class TestRateOne:
    def test_rate_one_is_the_symbol_search(self):
        """At rate 1 the greedy index's oracle is `SymbolShiftOracle` over A
        and B: its answers, hints and counters. Twosided hashes, so only its
        answers and hints agree."""
        for t in range(4):
            n, k = 180, 5
            inst = gen_planted(n, 4, 3, seed=t)
            one = OneSidedOracle(OneSidedIndex.preprocess(inst.a, k, CFG),
                                 inst.b)
            sym = SymbolShiftOracle(inst.a, inst.b, k, k)
            two = TwoSidedOracle(TwoSidedIndex.preprocess(inst.a, k, CFG),
                                 inst.b)
            for i_b in range(1, n + 1):
                got = (one(i_b, i_b), one.last_hint)
                assert got == (sym(i_b, i_b), sym.last_hint)
                assert got == (two(i_b, i_b), two.last_hint)
            assert one.counters == sym.counters
            assert one.counters.init_steps == 0  # no symbol of B folded

    def test_rate_one_is_exact_under_a_degenerate_hash(self):
        """x = 1 sums a window's symbols, so a hashed search cannot tell A
        from A with two adjacent unequal symbols swapped; the rate-1 oracle
        compares symbols and matches the brute-force referee anyway."""
        a = gen_planted(256, 4, 0, seed=0).a
        syms = a.data.copy()
        t = 2 + int(np.flatnonzero(syms[3:] != syms[2:-1])[0])
        syms[[t, t + 1]] = syms[[t + 1, t]]
        b = ByteString(syms, a.sigma)
        orc = OneSidedOracle(OneSidedIndex.preprocess(a, 4, HashConfig(x=1)),
                             b)
        assert orc.buckets is None
        for i in range(1, 257):
            assert orc(i, i) == max_shift_alignment_bruteforce(a, b, i, i, 4,
                                                               4)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 160),
           sigma=st.sampled_from([2, 4]), greedy=st.booleans(),
           data=st.data())
    def test_rate_one_decisions_are_exact_modes(self, seed, n, sigma, greedy,
                                               data):
        """Both deciders at rate 1: onesided and noprep compare symbols, as
        exact mode does, and give its verdict, counters and greedy trace
        (hints included) or wave rows. Twosided hashes: it gives the same
        verdict and trace or rows, and folds every symbol of B."""
        rate_one_l = int(4 * math.log(n)) if n > 1 else 20
        ell = data.draw(st.integers(1, max(1, min(rate_one_l, 12))))
        k = ell if greedy else data.draw(st.integers(ell, 2 * ell))
        inst = gen_planted(n, sigma, data.draw(st.integers(0, min(n, 2 * k))),
                           seed=seed)
        got = {}
        for mode in ("exact", "noprep", "onesided", "twosided"):
            if greedy:
                trace = GreedyTrace()
                verdict, ctr = gap_match(inst.a, inst.b, k, mode, seed,
                                         trace=trace)
                got[mode] = (verdict, ctr, trace)
            else:
                table = WaveTable()
                verdict, ctr = gap_wave(inst.a, inst.b, k, ell, mode, seed,
                                        table=table)
                got[mode] = (verdict, ctr, table.rows)
        assert got["exact"] == got["noprep"] == got["onesided"]
        (v, ctr, answers), (v2, ctr2, answers2) = got["exact"], got["twosided"]
        assert (v, answers) == (v2, answers2)
        assert ctr.init_steps == 0 and ctr2.init_steps == n
        assert ((ctr.oracle_queries, ctr.table_lookups)
                == (ctr2.oracle_queries, ctr2.table_lookups))


class TestQuery:
    def test_identical_strings_reach_the_end(self):
        inst = gen_planted(256, 4, 0, seed=3)
        idx = OneSidedIndex.preprocess(inst.a, 8, CFG)
        orc = OneSidedOracle(idx, inst.a)
        # binary expansion must cover the whole remaining suffix
        for i_b in (1, 100, 256):
            assert orc(i_b, i_b) == 256 - i_b + 1

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
        # below rate 1 a call probes one window per power of two
        inst = gen_planted(300, 4, 4, seed=4)
        idx = OneSidedIndex.preprocess(inst.a, 24, CFG)
        assert idx.tables is not None
        orc = OneSidedOracle(idx, inst.b)
        budget = math.ceil(math.log2(300)) + 1
        for i_b in range(1, 301, 7):
            before = orc.counters.retrievals
            orc(i_b, i_b)
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
                assert orc(i_b, i_b) >= bf


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
        for idx in both_indexes(inst.a, rate_one=False):
            idx.save(path)
            idx2 = type(idx).load(path)
            assert (idx2.n, idx2.k, idx2.ell, idx2.buckets) == (
                idx.n, idx.k, idx.ell, idx.buckets)
            assert idx2.cfg.x == CFG.x
            assert list(idx2.samples) == list(idx.samples)
            assert idx2.dense is None
            assert idx2.tables.keys() == idx.tables.keys()
            # cells are views of the file's bytes
            assert not any(c.flags.owndata for c in idx2.tables.values())
            assert answers(idx2, inst.b) == answers(idx, inst.b)

    def test_symbols_roundtrip(self, tmp_path):
        # A's symbols, from which load rebuilds the index: over 1..4 (also
        # held in a reversed view, not contiguous), over symbols up to 10^8
        # (hashed with c_s x^-s reduced first, and the alphabet taken from
        # the largest symbol), and at n = 0 and n = 1
        inst = gen_planted(150, 4, 2, seed=6)
        big = np.random.default_rng(6).integers(1, 10**8 + 1, 150)
        big_b = big.copy()
        big_b[[20, 90]] = big[[21, 91]]
        assert 150 * (int(big.max()) + 1) >= hashing._DIRECT_LIMIT
        path = tmp_path / "a.gedt1s"
        for a, b in [(inst.a, inst.b),
                     (ByteString(inst.a.data[::-1], 4),
                      ByteString(inst.b.data[::-1], 4)),
                     (ByteString(big, 10**8), ByteString(big_b, 10**8)),
                     (ByteString(np.empty(0, np.int64), 4),) * 2,
                     (ByteString(np.array([3]), 4),
                      ByteString(np.array([2]), 4))]:
            for idx in both_indexes(a, rate_one=True):
                idx.save(path)
                # n symbols; no samples, no keys
                assert path.stat().st_size == HEAD_END + 8 * len(a) + 4
                idx2 = type(idx).load(path)
                assert type(idx2) is type(idx)
                assert (idx2.n, idx2.k, idx2.ell, idx2.buckets) == (
                    idx.n, idx.k, idx.ell, idx.buckets)
                assert idx2.cfg.x == CFG.x
                assert idx2.tables is None and len(idx2.dense) == 1
                assert all(np.array_equal(got, want) for got, want
                           in zip(idx2.dense[0], idx.dense[0]))
                assert (idx2.a.data.tolist() == idx.a.data.tolist()
                        == a.data.tolist())
                assert answers(idx2, b) == answers(idx, b)
        # the greedy decider's trace over the loaded index is the source's
        idx = OneSidedIndex.preprocess(inst.a, 4, CFG)
        idx.save(path)
        traces = []
        for index in (idx, OneSidedIndex.load(path)):
            trace = GreedyTrace()
            greedy_match(inst.a, inst.b, 4, OneSidedOracle(index, inst.b),
                         trace)
            traces.append((trace.starts, trace.jumps, trace.hints))
        assert traces[0] == traces[1]
        assert len(traces[0][0]) > 1 and None not in traces[0][2]

    def test_files_of_format_version_2(self):
        # saved before the rate-1 layout changed: a general-layout index of
        # A = gen_planted(16, 4, 0, seed=3).a at k = 12 still loads, and
        # files of the retired rate-1 layouts of that A at k = 4 (1: every
        # power-of-two window; 2: the prefix hashes and x-powers) are
        # refused
        a = gen_planted(16, 4, 0, seed=3).a
        old = OneSidedIndex.load(DATA / "general_layout_v2.gedt1s")
        new = OneSidedIndex.preprocess(a, 12, CFG)
        assert old.tables.keys() == new.tables.keys()
        assert all(np.array_equal(old.tables[key], cell)
                   for key, cell in new.tables.items())
        with pytest.raises(ValueError, match="^unknown index layout 1, a "
                                             "retired one"):
            OneSidedIndex.load(DATA / "retired_layout_v2.gedt1s")
        with pytest.raises(ValueError, match="^unknown index layout 2, a "
                                             "retired one"):
            OneSidedIndex.load(DATA / "retired_prefix_layout_v2.gedt1s")

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
        (1, lambda h: 4, "unknown index layout 4"),
        (1, lambda h: 1, "unknown index layout 1, a retired one"),
        (1, lambda h: 2, "unknown index layout 2, a retired one"),
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

    # edits of a symbols body under a good checksum: a symbol of 0 or -1,
    # the smallest symbol past the alphabet guard at n = 40 (40^2 (sigma + 1)
    # >= p) and the largest one within it, k = l = 16 (n = 40 samples below
    # rate 1 there), or another x
    @pytest.mark.parametrize("head_edits,sym_edits,match", [
        ({}, {5: 0}, "symbol out of range"),
        ({}, {5: -1}, "symbol out of range"),
        ({}, {7: P61 // 1600}, "modulus too small"),
        ({}, {7: P61 // 1600 - 1}, None),
        ({5: 16, 6: 16, 7: 0, 8: 1}, {}, "needs sampling rate 1"),
        ({3: CFG.x + 1}, {}, None),
    ])
    def test_symbols_body_checked_under_a_good_checksum(
            self, saved_files, tmp_path, head_edits, sym_edits, match):
        path = tmp_path / "edited.gedt1s"
        for raw in saved_files[:2]:  # greedy and wave, at rate 1
            for edit in (False, True):
                head = list(_HEAD.unpack_from(raw, len(MAGIC_1S)))
                assert head[1] == 3 and head[4] == head[11] == 40
                syms = np.frombuffer(raw, "<i8", 40, HEAD_END).copy()
                if edit:
                    for field, value in head_edits.items():
                        head[field] = value
                    for t, value in sym_edits.items():
                        syms[t] = value
                body = bytearray(raw[:HEAD_END])
                _HEAD.pack_into(body, len(MAGIC_1S), *head)
                body += syms.tobytes()
                crc = zlib.crc32(memoryview(body)[len(MAGIC_1S):])
                path.write_bytes(bytes(body) + struct.pack("<I", crc))
                if edit and match:
                    with pytest.raises(ValueError, match=match):
                        OneSidedIndex.load(path)
                    continue
                # the checksum alone would let it load: as A's index under
                # the header's x
                got = OneSidedIndex.load(path)
                want = OneSidedIndex._build(
                    ByteString(syms, int(syms.max())), head[5], head[6],
                    range(head[7], head[8]), HashConfig(x=head[3]))
                assert got.cfg.x == head[3]
                assert got.a.data.tolist() == want.a.data.tolist()
                assert all(np.array_equal(g, w) for g, w
                           in zip(got.dense[0], want.dense[0]))

    # edits of a general body's sample positions under a good checksum:
    # reversed, moved past n, or without one anchor (n = 40, l = 24: the
    # anchors are 24 and 39), the header's sample count kept in step
    @pytest.mark.parametrize("change,match", [
        (lambda s, n: s[::-1], "increase strictly"),
        (lambda s, n: s + 1000, "increase strictly"),
        (lambda s, n: np.concatenate(([0], s)), "increase strictly"),
        (lambda s, n: np.repeat(s, 2), "increase strictly"),
        (lambda s, n: s[s != 24], "miss a multiple of l or n - 1"),
        (lambda s, n: s[s != n - 1], "miss a multiple of l or n - 1"),
        (lambda s, n: s[:0], "miss a multiple of l or n - 1"),
    ])
    def test_sample_positions_checked_under_a_good_checksum(
            self, saved_files, tmp_path, change, match):
        path = tmp_path / "edited.gedt1s"
        for raw in saved_files[2:]:  # greedy and wave, below rate 1
            for edit in (False, True):
                head = list(_HEAD.unpack_from(raw, len(MAGIC_1S)))
                assert head[1] == 0 and (head[4], head[6]) == (40, 24)
                ns = head[9]
                s = np.frombuffer(raw, "<i8", ns, HEAD_END)
                assert set(anchor_positions(40, 24)) <= set(s)
                if edit:
                    s = change(s, head[4]).astype("<i8")
                    head[9] = s.size
                body = bytearray(raw[:HEAD_END])
                _HEAD.pack_into(body, len(MAGIC_1S), *head)
                body += s.tobytes() + raw[HEAD_END + 8 * ns:-4]
                crc = zlib.crc32(memoryview(body)[len(MAGIC_1S):])
                path.write_bytes(bytes(body) + struct.pack("<I", crc))
                if edit:
                    with pytest.raises(ValueError, match=match):
                        OneSidedIndex.load(path)
                else:  # the checksum alone would let it load
                    assert OneSidedIndex.load(path).samples.size == ns

    @pytest.mark.parametrize("field,change", [
        (4, lambda h: h[4] + 1), (9, lambda h: 1), (10, lambda h: 1)])
    def test_symbols_header_counts_checked(self, saved_files, tmp_path,
                                           field, change):
        # n, and the sample and key counts, which the symbols layout holds
        # none of, under a good checksum
        raw = saved_files[0]
        head = list(_HEAD.unpack_from(raw, len(MAGIC_1S)))
        assert head[1] == 3  # the greedy index at rate 1
        head[field] = change(head)
        body = bytearray(raw[:-4])
        _HEAD.pack_into(body, len(MAGIC_1S), *head)
        crc = zlib.crc32(memoryview(body)[len(MAGIC_1S):])
        path = tmp_path / "edited.gedt1s"
        path.write_bytes(bytes(body) + struct.pack("<I", crc))
        with pytest.raises(ValueError, match="symbols layout holds n = "):
            OneSidedIndex.load(path)

    def test_truncated_or_overlong_file_rejected(self, tmp_path):
        inst = gen_planted(12, 4, 1, seed=8)
        path = tmp_path / "a.gedt1s"
        # k = 10: the general layout (rate 0.99); k = 3: the symbols layout
        for k in (10, 3):
            idx = OneSidedIndex.preprocess(inst.a, k, CFG)
            idx.save(path)
            raw = path.read_bytes()
            self._check_cuts(path, raw, idx)

    @staticmethod
    def _check_cuts(path, raw, idx):
        # the header ends with the sample, key and hash counts; then come
        # the samples, (e, col, bucket, count) keys and hashes, or in the
        # symbols layout A's symbols, and the checksum
        ns, nk, nh = struct.unpack_from("<QQQ", raw, HEAD_END - 24)
        if idx.tables is not None:
            assert len(raw) == HEAD_END + 8 * (ns + 4 * nk + nh) + 4
            assert nk == len(idx.tables) > 1
        else:
            assert (ns, nk, nh) == (0, 0, 12)
            assert len(raw) == HEAD_END + 8 * nh + 4
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
        assert OneSidedIndex.load(path).n == 12
