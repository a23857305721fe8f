import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapedit.greedy import GapVerdict, greedy_match
from gapedit.hashing import HashConfig, OpCounters, RollingHashState
from gapedit.instances import gen_planted
from gapedit.strings import ByteString, max_shift_alignment_bruteforce
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
                        == max_shift_alignment_bruteforce(inst.a, inst.b,
                                                          i_b, i_b, k, k))

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
        # query retrievals = B-side retrieves + A-side rows member computed
        # (one per in-range shift it was asked to test); none of them lands
        # on the build counters
        inst = gen_planted(512, 8, 4, seed=6)
        n, k = 512, 4
        idx = TwoSidedIndex.preprocess(inst.a, k, CFG)
        build = idx.counters
        built = (build.init_steps, build.retrievals)
        query = idx.counters = OpCounters()
        orc = TwoSidedOracle(idx, inst.b, query)
        rows, b_retrieves = [], []
        member = idx.member
        b_retrieve = orc.b_state.retrieve

        def counted_member(i, j, h, shifts=None):
            if j >= i:
                rows.append(in_range(n, i, j, shifts, k))
            return member(i, j, h, shifts)

        def counted_retrieve(i, j):
            b_retrieves.append((i, j))
            return b_retrieve(i, j)

        monkeypatch.setattr(idx, "member", counted_member)
        monkeypatch.setattr(orc.b_state, "retrieve", counted_retrieve)
        assert greedy_match(inst.a, inst.b, 4, orc) == GapVerdict.SMALL
        assert sum(rows) > 0
        assert query.retrievals == len(b_retrieves) + sum(rows)
        assert (build.init_steps, build.retrievals) == built


def in_range(n, i, j, shifts, k):
    """How many of `shifts` (None: every |a| <= k) keep window (i, j)
    inside [1, n]."""
    pool = range(-k, k + 1) if shifts is None else shifts
    return sum(1 for a in pool if i + a >= 1 and j + a <= n)


@st.composite
def pairs(draw):
    sigma = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 48))
    a = draw(st.lists(st.integers(1, sigma), min_size=n, max_size=n))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):  # substitutions
        b[draw(st.integers(0, n - 1))] = draw(st.integers(1, sigma))
    if draw(st.booleans()):  # one insertion and one deletion
        b.insert(draw(st.integers(0, n)), draw(st.integers(1, sigma)))
        del b[draw(st.integers(0, n))]
    k = draw(st.integers(1, n + 2))
    return ByteString(np.array(a), sigma), ByteString(np.array(b), sigma), k


class TestGallopSearch:
    @given(pairs(), st.integers(0, 1 << 32))
    @settings(max_examples=150, deadline=None)
    def test_equals_bruteforce_and_counts_each_copy_hashed(self, pair, seed):
        a, b, k = pair
        n = len(a)
        cfg = HashConfig.from_seed(seed)
        idx = TwoSidedIndex.preprocess(a, k, cfg)
        st_ = b_state(b, cfg)
        hashed, b_retrieves = [], []
        member, retrieve = idx.member, st_.retrieve

        def counted_member(i, j, h, shifts=None):
            if j >= i:
                hashed.append(in_range(n, i, j, shifts, k))
            return member(i, j, h, shifts)

        def counted_retrieve(i, j):
            b_retrieves.append((i, j))
            return retrieve(i, j)

        idx.member, st_.retrieve = counted_member, counted_retrieve
        for i_b in range(1, n + 1):
            hashed.clear()
            b_retrieves.clear()
            before = idx.counters.retrievals + st_.counters.retrievals
            assert (two_sided_max_align(idx, st_, i_b)
                    == max_shift_alignment_bruteforce(a, b, i_b, i_b, k, k)), i_b
            added = (idx.counters.retrievals + st_.counters.retrievals
                     - before)
            assert added == len(b_retrieves) + sum(hashed)


def shifted_copies(ref, n, k, i, j):
    """Reference cell: (shift, hash) for every in-range shifted copy of
    window (i, j), one `retrieve` each; the empty window hashes to 0."""
    shifts = [a for a in range(-k, k + 1) if i + a >= 1 and j + a <= n]
    return [(a, ref.retrieve(i + a, j + a)) for a in shifts]


class TestMemberEquivalence:
    @pytest.mark.parametrize("n,k", [(1, 1), (9, 1), (23, 5), (40, 7),
                                     (6, 6), (12, 30), (64, 16)])
    def test_member_equals_shifted_retrieves(self, n, k):
        inst = gen_planted(n, 3, max(1, n // 8), seed=n * 100 + k)
        idx = TwoSidedIndex.preprocess(inst.a, k, CFG)
        ref = RollingHashState(inst.a, full_sample(n), CFG)
        st = b_state(inst.b)
        rng = np.random.default_rng(n * 1000 + k)
        windows = {(1, n), (1, 0), (n + 1, n)}
        for i in range(1, n + 1):
            windows.update({(i, i - 1), (1, i), (i, n)})
            windows.add((i, int(rng.integers(i - 1, n + 1))))
        outcomes = set()
        for i, j in sorted(windows):
            cell = shifted_copies(ref, n, k, i, j)
            rows = len(cell) if j >= i else 0
            probes = [st.retrieve(i, j), int(rng.integers(0, CFG.p))]
            if j >= i and rows:
                a = int(rng.integers(max(-k, 1 - i), min(k, n - j) + 1))
                probes.append(ref.retrieve(i + a, j + a))
            for h in probes:
                before = (idx.counters.table_lookups,
                          idx.counters.retrievals)
                got = idx.member(i, j, h)
                assert bool(got) == (h in {g for _, g in cell}), (i, j, h)
                assert got == [a for a, g in cell if g == h], (i, j, h)
                assert (idx.counters.table_lookups,
                        idx.counters.retrievals) == (before[0] + 1,
                                                     before[1] + rows)
                outcomes.add(bool(got))
                # only the given shifts are tested and counted
                some = sorted({int(a) for a in rng.integers(-k, k + 1, 3)})
                before = idx.counters.retrievals
                assert idx.member(i, j, h, some) == [
                    a for a, g in cell if g == h and a in some]
                assert idx.counters.retrievals - before == (
                    in_range(n, i, j, some, k) if j >= i else 0)
        assert outcomes == {True, False}


class TestBadIndexParameters:
    def test_two_sided_k_below_one(self):
        a = gen_planted(32, 4, 2, seed=1).a
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                TwoSidedIndex.preprocess(a, k, CFG)
