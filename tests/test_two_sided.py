import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapedit.greedy import GapVerdict, GreedyTrace, greedy_match
from gapedit.hashing import HashConfig, OpCounters, RollingHashState
from gapedit.instances import gen_planted
from gapedit.mers61 import P61
from gapedit.strings import ByteString, max_shift_alignment_bruteforce
from gapedit.two_sided import (SymbolShiftOracle, TwoSidedIndex,
                               TwoSidedOracle, full_sample)

CFG = HashConfig.from_seed(1234)


def b_state(b, cfg=CFG):
    return RollingHashState(b, full_sample(len(b)), cfg)


def b_lists(b, cfg=CFG):
    """B's prefix hashes and symbols, as `align` reads them."""
    return b_state(b, cfg).prefix.tolist(), b.data.tolist()


class TestTwoSidedAlign:
    def test_equals_bruteforce_everywhere(self):
        for t in range(8):
            n, k = 100, 5
            inst = gen_planted(n, 3, 4, seed=t)
            idx = TwoSidedIndex.preprocess(inst.a, k, CFG)
            rows, syms = b_lists(inst.b)
            for i_b in range(1, n + 1):
                assert (idx.align(rows, syms, i_b, i_b, k)[0]
                        == max_shift_alignment_bruteforce(inst.a, inst.b,
                                                          i_b, i_b, k, k))

    def test_membership_monotone_in_length(self):
        inst = gen_planted(80, 4, 2, seed=3)
        idx = TwoSidedIndex.preprocess(inst.a, 3, CFG)
        st = b_state(inst.b)
        for i_b in (1, 20, 41):
            d = idx.align(*b_lists(inst.b), i_b, i_b, idx.k)[0]
            for dd in range(0, d + 1):
                h = st.retrieve(i_b, i_b + dd - 1)
                assert idx.member(i_b, i_b + dd - 1, h)

    def test_oracle_counter_accounting(self):
        inst = gen_planted(64, 4, 2, seed=4)
        idx = TwoSidedIndex.preprocess(inst.a, 3, CFG)
        orc = TwoSidedOracle(idx, inst.b)
        before = idx.counters.table_lookups
        orc(1, 1)
        assert orc.counters.oracle_queries == 1
        assert idx.counters.table_lookups > before

    def test_query_counts_a_rows_of_member(self):
        # query retrievals = one per B window probed + the A-side rows
        # `member` would compute (one per in-range shift tested), as the
        # probe-by-probe search books them; none lands on the build counters
        inst = gen_planted(512, 8, 4, seed=6)
        k = 4
        idx = TwoSidedIndex.preprocess(inst.a, k, CFG)
        build = idx.counters
        built = (build.init_steps, build.retrievals)
        query = idx.counters = OpCounters()
        orc = TwoSidedOracle(idx, inst.b, query)
        trace = GreedyTrace()
        assert greedy_match(inst.a, inst.b, k, orc, trace) == GapVerdict.SMALL
        ref = OpCounters()
        ref_idx = TwoSidedIndex(k, CFG, idx.prefix, idx.xpow, idx.syms, ref)
        st = RollingHashState(inst.b, full_sample(512), CFG, ref)
        for i_b, d in zip(trace.starts, trace.jumps):
            assert member_search(ref_idx, st, i_b, None) == d
        assert ref.retrievals > len(trace.starts)
        assert ((query.retrievals, query.table_lookups)
                == (ref.retrievals, ref.table_lookups))
        assert (build.init_steps, build.retrievals) == built


class TestFirstProbe:
    """The d = 1 probe compares A[i_b + a] with B[i_b] and books what the
    hash test would: one table lookup, one retrieval for B and one per
    in-range copy of A."""

    @staticmethod
    def _align(a, b, k, i_a, i_b, ell):
        idx = TwoSidedIndex.preprocess(a, k, CFG)
        idx.counters = OpCounters()
        got = idx.align(*b_lists(b), i_a, i_b, ell)
        assert got[0] == max_shift_alignment_bruteforce(a, b, i_a, i_b, ell,
                                                        k)
        return got, (idx.counters.table_lookups, idx.counters.retrievals)

    def test_last_position_allows_only_d_up_to_one(self):
        a = ByteString(np.array([1, 2, 3, 1, 2, 3, 1, 2]), 3)
        n, k = 8, 3
        for sym, hit in ((1, (1, -1)), (3, (1, -2)), (2, (1, -3))):
            b = ByteString(np.array([1, 2, 3, 1, 2, 3, 1, sym]), 3)
            # shifts -3 .. 0 keep A[n + a] inside A: one probe of 4 copies
            assert self._align(a, b, k, n, n, k) == (hit, (1, 1 + 4))
        b = ByteString(np.array([1, 2, 3, 1, 2, 3, 1, 2]), 3)
        # from i_a = n - 2 at l = 1 only shifts -3 .. -1 are asked, and
        # A[n - 3] = B[n] at c = -1
        assert self._align(a, b, k, n - 2, n, 1) == ((1, -1), (1, 1 + 3))

    def test_absent_symbol_books_one_probe(self):
        n, k, i_b = 40, 5, 17
        a = ByteString(np.tile([1, 2], n // 2), 3)
        b = ByteString(np.where(np.arange(1, n + 1) == i_b, 3, a.data), 3)
        assert self._align(a, b, k, i_b, i_b, k) == ((0, 0), (1, 1 + 11))
        assert self._align(a, b, k, i_b + 2, i_b, 2) == ((0, 0), (1, 1 + 5))

    def test_shifts_cut_off_at_the_right_end(self):
        n, k = 10, 4
        a = ByteString(np.ones(n, dtype=np.int64), 2)
        # at i_b = n - 1 shifts -4 .. 1 stay inside A at d = 1 (6 copies),
        # -4 .. 0 at d = 2 (5 copies)
        assert self._align(a, a, k, n - 1, n - 1, k) == ((2, -4),
                                                         (2, 2 + 6 + 5))
        # from i_a = n, i_b = n - 2 at l = 1, shifts 1 .. 3 are asked: 1 .. 2
        # stay inside at d = 1, 1 at d = 2, none at d = 3
        assert self._align(a, a, k, n, n - 2, 1) == ((2, -1), (3, 3 + 3))


def member_search(index, b_state, i_b, shifts):
    """Reference for `TwoSidedIndex.align`: the same gallop and bisection,
    one `member` call and one `retrieve` of B's window per probe."""
    lo, hi = 0, index.n - i_b + 1
    alive = shifts  # the starting shifts, until the first hit
    galloping = True
    while lo < hi:
        mid = min(2 * lo or 1, hi) if galloping else (lo + hi + 1) // 2
        j = i_b + mid - 1
        got = index.member(i_b, j, b_state.retrieve(i_b, j), alive)
        if got:
            lo, alive = mid, got
        else:
            hi, galloping = mid - 1, False
    return lo


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
    @given(pairs(), st.integers(0, 1 << 32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_bruteforce_and_counts_each_copy_hashed(self, pair, seed,
                                                           data):
        """`align` against the brute-force referee, and against the search
        run probe by probe through `member` and B's `retrieve`: the same d,
        and the same retrievals and table lookups, at i_a = i_b with l = k
        and at i_a - i_b in {0, +-l, +-k} with a drawn l."""
        a, b, k = pair
        n = len(a)
        ell = data.draw(st.integers(1, k))
        cfg = HashConfig.from_seed(seed)
        idx = TwoSidedIndex.preprocess(a, k, cfg)
        ref = OpCounters()
        ref_idx = TwoSidedIndex(k, cfg, idx.prefix, idx.xpow, idx.syms, ref)
        st_ = RollingHashState(b, full_sample(n), cfg, ref)
        rows, b_syms = st_.prefix.tolist(), b.data.tolist()
        for i_b in range(1, n + 1):
            assert (idx.align(rows, b_syms, i_b, i_b, k)[0]
                    == max_shift_alignment_bruteforce(a, b, i_b, i_b, k, k)), i_b
            wave = sorted({min(max(i_b + o, 1), n)
                           for o in (-k, -ell, 0, ell, k)})
            for i_a, l_ in [(i_b, k)] + [(i_a, ell) for i_a in wave]:
                before = (idx.counters.retrievals, idx.counters.table_lookups,
                          ref.retrievals, ref.table_lookups)
                d = idx.align(rows, b_syms, i_a, i_b, l_)[0]
                delta = i_a - i_b
                shifts = range(max(delta - l_, -k), min(delta + l_, k) + 1)
                assert d == member_search(ref_idx, st_, i_b, shifts)
                assert d == max_shift_alignment_bruteforce(a, b, i_a, i_b,
                                                           l_, k)
                assert (idx.counters.retrievals - before[0],
                        idx.counters.table_lookups - before[1]) == (
                    ref.retrievals - before[2], ref.table_lookups - before[3])


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
            probes = [st.retrieve(i, j), int(rng.integers(0, P61))]
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


# alphabets of 1-, 2-, 4- and 8-byte words; past sigma = 4 each holds two
# symbols that differ only in their high bytes
WORD_ALPHABETS = {1: [1], 2: [1, 2], 4: [1, 2, 3, 4],
                  300: [1, 2, 257, 300], 70_000: [1, 2, 65_537, 70_000],
                  1 << 40: [1, 2, (1 << 32) + 1, 1 << 40]}


@st.composite
def word_pairs(draw):
    """(A, B, k, l) over one of `WORD_ALPHABETS`: A random or periodic,
    B a few substitutions, and maybe an insertion and a deletion, away."""
    sigma = draw(st.sampled_from(sorted(WORD_ALPHABETS)))
    symbol = st.sampled_from(WORD_ALPHABETS[sigma])
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        period = draw(st.lists(symbol, min_size=1, max_size=3))
        a = (period * n)[:n]
    else:
        a = draw(st.lists(symbol, min_size=n, max_size=n))
    b = list(a)
    for _ in range(draw(st.integers(0, 3))):
        b[draw(st.integers(0, n - 1))] = draw(symbol)
    if draw(st.booleans()):
        b.insert(draw(st.integers(0, n)), draw(symbol))
        del b[draw(st.integers(0, n))]
    k = draw(st.integers(1, 10))
    return (ByteString(np.array(a), sigma), ByteString(np.array(b), sigma),
            k, draw(st.integers(1, k)))


class TestSymbolSearch:
    @given(word_pairs(), st.integers(0, 1 << 32))
    @settings(max_examples=80, deadline=None)
    def test_equals_referee_with_a_matching_hint(self, pair, seed):
        """`SymbolShiftOracle` gives the brute-force referee's d at every
        promised (i_a, i_b), 1 <= i_a <= n and |i_a - i_b| <= k, with a
        hint that matches at d (0 when d is 0), folding nothing. It runs
        `align`'s search: the same probes as `align` under a drawn base.
        `align` never reports less than the referee, under a drawn base
        and under the degenerate base x = 1, where windows with equal
        symbol sums collide."""
        a, b, k, ell = pair
        n = len(a)
        ctr = OpCounters()
        orc = SymbolShiftOracle(a, b, k, ell, ctr)
        assert orc.width == {1: 1, 2: 1, 4: 1, 300: 2, 70_000: 4}.get(
            a.sigma, 8)
        cfgs = (HashConfig.from_seed(seed), HashConfig(x=1))
        aligns = [(TwoSidedIndex.preprocess(a, k, cfg), b_lists(b, cfg))
                  for cfg in cfgs]
        for i_b in range(1, n + 1):
            for i_a in range(max(1, i_b - k), min(n, i_b + k) + 1):
                want = max_shift_alignment_bruteforce(a, b, i_a, i_b, ell, k)
                start = ctr.table_lookups
                assert orc(i_a, i_b) == want, (i_a, i_b)
                c = orc.last_hint
                if want == 0:
                    assert c == 0
                else:
                    assert abs(c) <= ell and abs(i_a + c - i_b) <= k
                    assert np.array_equal(
                        a.window(i_a + c, i_a + c + want - 1),
                        b.window(i_b, i_b + want - 1))
                probes = ctr.table_lookups - start
                for t, (idx, lists) in enumerate(aligns):
                    before = idx.counters.table_lookups
                    assert idx.align(*lists, i_a, i_b, ell)[0] >= want
                    if t == 0:  # a drawn base: no collision in practice
                        assert idx.counters.table_lookups - before == probes
        assert ctr.init_steps == 0
        assert ctr.oracle_queries == sum(
            min(n, i + k) - max(1, i - k) + 1 for i in range(1, n + 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_calls_outside_the_promise_answer_as_the_referee(self, seed):
        # i_a past either end of A, and |i_a - i_b| > k: copies starting
        # before A read nothing (the referee pads them with a sentinel)
        rng = np.random.default_rng(seed)
        a = ByteString(rng.integers(1, 3, 24), 2)
        b = ByteString(rng.integers(1, 3, 24), 2)
        for k, ell in ((1, 1), (5, 2), (8, 8)):
            orc = SymbolShiftOracle(a, b, k, ell)
            for i_b in range(1, 25):
                for i_a in range(-12, 38):
                    assert orc(i_a, i_b) == max_shift_alignment_bruteforce(
                        a, b, i_a, i_b, ell, k), (k, ell, i_a, i_b)

    def test_refuses_unequal_lengths(self):
        a = gen_planted(50, 4, 0, seed=2).a
        b = gen_planted(40, 4, 0, seed=3).a
        with pytest.raises(ValueError, match="equal lengths"):
            SymbolShiftOracle(a, b, 3, 3)


class TestBadIndexParameters:
    def test_two_sided_k_below_one(self):
        a = gen_planted(32, 4, 2, seed=1).a
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                TwoSidedIndex.preprocess(a, k, CFG)
