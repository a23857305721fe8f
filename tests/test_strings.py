import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapedit.strings import (ByteString, _diagonal_at_most, _use_diagonal,
                             check_decomposition, decompose,
                             edit_distance_at_most, edit_distance_exact,
                             edit_distance_quadratic, exact_hwave,
                             has_approximate_alignment,
                             max_shift_alignment_bruteforce)
from gapedit.instances import gen_planted


def bs(vals, sigma=4):
    return ByteString(np.asarray(vals, dtype=np.int64), sigma)


def rand_pair(rng, nmax=30, sigma=3, equal_len=False):
    n = int(rng.integers(1, nmax + 1))
    m = n if equal_len else int(rng.integers(1, nmax + 1))
    return (ByteString(rng.integers(1, sigma + 1, n), sigma),
            ByteString(rng.integers(1, sigma + 1, m), sigma))


class TestByteString:
    def test_positions_are_one_based(self):
        s = bs([1, 2, 3])
        assert s.at(1) == 1 and s.at(3) == 3

    def test_out_of_range_reads_sentinel(self):
        s = bs([1, 2, 3], sigma=4)
        assert s.at(0) == 5 and s.at(4) == 5 and s.at(-7) == 5

    def test_window_pads_with_sentinel(self):
        s = bs([1, 2, 3], sigma=4)
        assert list(s.window(0, 4)) == [5, 1, 2, 3, 5]
        assert s.window(3, 2).size == 0

    def test_gather_matches_at(self):
        s = bs([2, 1, 3])
        # out of range on both ends, unsorted and repeated, on one end
        # only, none, and empty
        for idx in ([-1, 1, 2, 3, 4], [5, 2, -3, 0, 3, 9, 1, 2, 7, -1],
                    [2, 4, 1], [0, 3], [3, 1, 2], []):
            idx = np.array(idx, dtype=np.int64)
            assert list(s.gather(idx)) == [s.at(int(i)) for i in idx]
        assert list(bs([]).gather(np.array([0, 1, 2]))) == [5, 5, 5]

    def test_bytes_roundtrip(self):
        s = bs([1, 4, 2], sigma=4)
        assert np.array_equal(ByteString.from_bytes(s.to_bytes(), 4).data,
                              s.data)

    def test_to_bytes_refuses_symbols_above_256(self):
        s = bs([256, 1, 255], sigma=300)
        assert np.array_equal(ByteString.from_bytes(s.to_bytes(), 300).data,
                              s.data)
        with pytest.raises(ValueError, match="above 256"):
            bs([3, 257, 1], sigma=300).to_bytes()

    def test_symbol_range_enforced(self):
        with pytest.raises(ValueError):
            bs([0, 1], sigma=4)
        with pytest.raises(ValueError):
            bs([5], sigma=4)


class TestExactDistance:
    def test_known_values(self):
        assert edit_distance_exact(bs([1, 2, 3]), bs([1, 2, 3])) == 0
        assert edit_distance_exact(bs([1, 2, 3]), bs([1, 3])) == 1
        assert edit_distance_exact(bs([1]), bs([2, 2, 2])) == 3
        assert edit_distance_exact(bs([]), bs([1, 2])) == 2

    def test_banded_equals_quadratic_random(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            a, b = rand_pair(rng)
            assert edit_distance_exact(a, b) == edit_distance_quadratic(a, b)

    def test_at_most_thresholds(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            a, b = rand_pair(rng)
            d = edit_distance_quadratic(a, b)
            for t in (0, d - 1, d, d + 1):
                assert edit_distance_at_most(a, b, t) == (d <= t)

    @given(st.lists(st.integers(1, 3), max_size=12),
           st.lists(st.integers(1, 3), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, xs, ys):
        a, b = bs(xs, 3), bs(ys, 3)
        d = edit_distance_exact(a, b)
        assert d == edit_distance_exact(b, a)
        assert (d == 0) == (xs == ys)
        assert abs(len(xs) - len(ys)) <= d <= max(len(xs), len(ys))


@st.composite
def distance_cases(draw):
    """Pairs for the exact layer: edited copies (unequal lengths too) and
    random pairs over alphabets up to 256, or equal-length windows with
    sentinel padding, read the way has_approximate_alignment reads them
    (shifted windows of one string, or of two random strings)."""
    if draw(st.booleans()):
        sigma = draw(st.integers(1, 255))
        n = draw(st.integers(1, 140))
        a, b = (bs(draw(st.lists(st.integers(1, sigma), min_size=n,
                                 max_size=n)), sigma) for _ in range(2))
        if draw(st.booleans()):
            b = a
        d = draw(st.integers(0, 140))
        i_b = draw(st.integers(1, n))
        c = draw(st.integers(-d - 4, n))
        return (ByteString(a.window(i_b + c, i_b + c + d - 1), sigma + 1),
                ByteString(b.window(i_b, i_b + d - 1), sigma + 1))
    sigma = draw(st.integers(1, 256))
    xs = draw(st.lists(st.integers(1, sigma), max_size=140))
    if draw(st.booleans()):
        ys = draw(st.lists(st.integers(1, sigma), max_size=140))
    else:
        ys = list(xs)
        for _ in range(draw(st.integers(0, 12))):
            i = draw(st.integers(0, len(ys)))
            kind = draw(st.sampled_from(["sub", "ins", "del"]))
            if kind == "ins" or not ys:
                ys.insert(i, draw(st.integers(1, sigma)))
            elif kind == "del":
                del ys[min(i, len(ys) - 1)]
            else:
                ys[min(i, len(ys) - 1)] = draw(st.integers(1, sigma))
    return bs(xs, sigma), bs(ys, sigma)


class TestBitParallel:
    @given(distance_cases())
    @settings(max_examples=200, deadline=None)
    def test_exact_and_at_most_match_quadratic(self, pair):
        a, b = pair
        d = edit_distance_quadratic(a, b)
        assert edit_distance_exact(a, b) == d
        assert edit_distance_exact(b, a) == d
        for t in range(-1, max(len(a), len(b)) + 2):
            assert edit_distance_at_most(a, b, t) == (d <= t)

    def test_far_pair_at_large_n(self):
        # a symbol absent from a at 40 positions of b: distance exactly 40
        rng = np.random.default_rng(9)
        a = rng.integers(1, 16, 2048)
        b = a.copy()
        b[rng.choice(2048, size=40, replace=False)] = 16
        a, b = ByteString(a, 16), ByteString(b, 16)
        assert edit_distance_exact(a, b) == 40
        assert edit_distance_at_most(a, b, 40)
        assert not edit_distance_at_most(a, b, 39)
        assert not edit_distance_at_most(a, b, 4)
        x = ByteString(rng.integers(1, 17, 2048), 16)
        assert not edit_distance_at_most(a, x, 8)


class TestDiagonalCheck:
    @given(distance_cases())
    # one symbol, so every slide runs to a diagonal's last row
    @example((bs([1] * 12, 1), bs([1] * 5, 1)))
    @example((bs([1] * 3, 1), bs([1] * 9, 1)))
    @example((bs([], 1), bs([1] * 4, 1)))
    # distance |n - m|: the band at t = |n - m| is the diagonals between 0
    # and the end diagonal
    @example((bs([1, 2, 3, 4, 1, 2]), bs([3, 4, 1])))
    @example((bs([2, 1]), bs([3, 2, 4, 4, 1, 3])))
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_at_every_threshold(self, pair):
        # the core itself, whichever route edit_distance_at_most would take
        a, b = pair
        d = edit_distance_quadratic(a, b)
        for t in range(-1, d + 3):
            assert _diagonal_at_most(a, b, t) == (d <= t)

    def test_route(self):
        for n, t in ((512, 16), (256, 8), (2**20, 16), (65536, 128)):
            assert _use_diagonal(n, n, t), (n, t)
        for n, t in ((4096, 2560), (512, 128)):
            assert not _use_diagonal(n, n, t), (n, t)

    def test_far_pair_at_large_t(self):
        # a symbol absent from a at 128 positions of b: distance exactly 128
        rng = np.random.default_rng(10)
        a = rng.integers(1, 16, 65536)
        b = a.copy()
        b[rng.choice(65536, size=128, replace=False)] = 16
        a, b = ByteString(a, 16), ByteString(b, 16)
        assert edit_distance_at_most(a, b, 128)
        assert not edit_distance_at_most(a, b, 127)

    def test_close_pair_at_large_n(self):
        # 16 length-preserving edits, so distance at most 16
        inst = gen_planted(2**20, 4, 16, seed=11)
        assert edit_distance_at_most(inst.a, inst.b, 16)


class TestHWave:
    def test_single_substitution(self):
        assert exact_hwave(bs([1, 2, 3]), bs([1, 2, 4]), 1)

    def test_matches_exact_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            a, b = rand_pair(rng, nmax=24, equal_len=True)
            d = edit_distance_quadratic(a, b)
            for k in range(1, 7):
                assert exact_hwave(a, b, k) == (d <= k)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            exact_hwave(bs([1]), bs([1, 2]), 1)


class TestDecompose:
    def test_random_pairs_validate(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            a, b = rand_pair(rng)
            ai, bi = decompose(a, b)
            d = edit_distance_quadratic(a, b)
            assert len(ai) <= 2 * d + 1
            assert check_decomposition(a, b, ai, bi)

    # a, b, then the a intervals and b intervals they must give
    FIXED = {
        "two empty strings": ([], [], [], []),
        "A empty": ([], [2, 3], [(1, 0), (1, 0)], [(1, 1), (2, 2)]),
        "B empty": ([1, 2], [], [(1, 1), (2, 2)], [(1, 0), (1, 0)]),
        "two insertions after one a[i]": (
            [1, 2, 1], [1, 2, 3, 4, 1],
            [(1, 2), (3, 2), (3, 2), (3, 3)],
            [(1, 2), (3, 3), (4, 4), (5, 5)]),
        "a deletion at each end": (
            [3, 1, 2, 1, 4], [1, 2, 1],
            [(1, 1), (2, 4), (5, 5)], [(1, 0), (1, 3), (4, 3)]),
        "a == b": ([1, 2, 3, 1], [1, 2, 3, 1], [(1, 4)], [(1, 4)]),
    }

    def test_fixed_pairs_give_recorded_pieces(self):
        for name, (x, y, want_a, want_b) in self.FIXED.items():
            assert decompose(bs(x), bs(y)) == (want_a, want_b), name


class TestBruteforceAlignment:
    def naive_k_align(self, a, b, i_b, k):
        best = 0
        for c in range(-k, k + 1):
            d = 0
            while (i_b + d <= len(b)
                   and b.at(i_b + d) == a.at(i_b + c + d)):
                d += 1
            best = max(best, d)
        return best

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rand_pair(rng, nmax=40, sigma=2, equal_len=True)
            for i_b in range(1, len(b) + 1):
                for k in (1, 3):
                    assert (max_shift_alignment_bruteforce(a, b, i_b, i_b,
                                                           k, k)
                            == self.naive_k_align(a, b, i_b, k))

    def test_shift_variant_respects_promise_window(self):
        a = bs([1, 1, 1, 1, 1, 1])
        b = bs([1, 1, 1, 1, 1, 1])
        # i_a far from i_b: every allowed c violates |i_a + c - i_b| <= k
        assert max_shift_alignment_bruteforce(a, b, 6, 1, 1, 2) == 0
        assert max_shift_alignment_bruteforce(a, b, 2, 1, 1, 2) == 6

    def test_shift_variant_matches_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = rand_pair(rng, nmax=30, sigma=2, equal_len=True)
            for i_b in range(1, len(b) + 1, 2):
                for i_a in (max(1, i_b - 2), i_b, min(len(a), i_b + 2)):
                    got = max_shift_alignment_bruteforce(a, b, i_a, i_b, 2, 4)
                    best = 0
                    for c in range(-2, 3):
                        if abs(i_a + c - i_b) > 4:
                            continue
                        d = 0
                        while (i_b + d <= len(b)
                               and b.at(i_b + d) == a.at(i_a + c + d)):
                            d += 1
                        best = max(best, d)
                    assert got == best


class TestApproximateAlignment:
    def test_short_outputs_pass_trivially(self):
        a = bs([1, 2, 3, 4])
        b = bs([4, 3, 2, 1])
        assert has_approximate_alignment(a, b, 1, 3, 1, 3)

    def test_exact_match_passes_with_hint(self):
        rng = np.random.default_rng(7)
        a, _ = rand_pair(rng, nmax=60, equal_len=True)
        assert has_approximate_alignment(a, a, 1, len(a), 2, 2, hint=0)

    def test_garbage_fails(self):
        a = bs([1] * 40, sigma=2)
        b = bs([2] * 40, sigma=2)
        assert not has_approximate_alignment(a, b, 1, 40, 2, 2)
