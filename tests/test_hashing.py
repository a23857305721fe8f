from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapedit import hashing
from gapedit.hashing import (HashConfig, OpCounters, RollingHashState,
                             ViewStack, draw_sample, sample_rate)
from gapedit.mers61 import (P61, _fold61, canonical61, fold_limbs, limbs,
                            mulmod, mulmod_limbs, mulmod_vec, submod_vec)
from gapedit.strings import ByteString


def bstr(rng, n, sigma=4):
    return ByteString(rng.integers(1, sigma + 1, n), sigma)


TOP62 = (1 << 62) - 1  # the largest operand the vector multiplies accept


class TestMersenne61:
    @given(st.integers(0, TOP62), st.integers(0, TOP62))
    @settings(max_examples=200, deadline=None)
    def test_mulmod_vec_matches_bigint(self, a, b):
        got = mulmod_vec(np.array([a], dtype=np.uint64),
                         np.array([b], dtype=np.uint64))
        assert int(got[0]) == (a * b) % P61 == mulmod(a, b)

    def test_vector_batch(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, P61, 5000, dtype=np.uint64)
        b = rng.integers(0, P61, 5000, dtype=np.uint64)
        got = mulmod_vec(a, b)
        exp = [(int(x) * int(y)) % P61 for x, y in zip(a, b)]
        assert [int(v) for v in got] == exp

    @given(st.integers(0, P61 - 1), st.integers(0, P61 - 1))
    @settings(max_examples=100, deadline=None)
    def test_submod(self, a, b):
        got = submod_vec(np.array([a], dtype=np.uint64),
                         np.array([b], dtype=np.uint64))
        assert int(got[0]) == (a - b) % P61

    def test_fold_edge_values(self):
        vals = [0, 1, P61 - 1, P61, P61 + 1, 2 * P61, P61 + 7, (1 << 62) - 1,
                (1 << 63) - 1, (1 << 64) - 1]
        got = _fold61(np.array(vals, dtype=np.uint64))
        assert [int(v) for v in got] == [v % P61 for v in vals]

    def test_canonical_edge_values(self):
        vals = [0, 1, P61 - 1, P61, P61 + 1, P61 + 2, P61 + 7]
        got = canonical61(np.array(vals, dtype=np.uint64))
        assert [int(v) for v in got] == [v % P61 for v in vals]

    def test_mulmod_vec_edge_values(self):
        # exact for operands below 2^62, which includes p itself
        vals = [0, 1, 2, P61 - 2, P61 - 1, P61, P61 + 1, 1 << 61,
                (1 << 62) - 1]
        a, b = np.meshgrid(np.array(vals, dtype=np.uint64),
                           np.array(vals, dtype=np.uint64))
        got = mulmod_vec(a.ravel(), b.ravel())
        assert [int(v) for v in got] == [
            (int(x) * int(y)) % P61 for x, y in zip(a.ravel(), b.ravel())]

    @given(st.integers(0, TOP62), st.integers(0, TOP62))
    @settings(max_examples=200, deadline=None)
    @example(TOP62, TOP62)
    @example(P61 + 7, P61 - 1)
    @example(P61, P61 - 1)
    @example(0, 0)
    def test_mulmod_limbs_matches_bigint(self, a, b):
        lo, hi = limbs(np.array([b], dtype=np.uint64))
        got = mulmod_limbs(np.array([a], dtype=np.uint64), lo, hi)
        assert int(got[0]) == (a * b) % P61
        assert int(lo[0]) + (int(hi[0]) << 31) == b

    @given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
    @settings(max_examples=200, deadline=None)
    @example((1 << 64) - 1, (1 << 64) - 1)
    @example(P61, 0)
    def test_fold_limbs_matches_bigint(self, lo, hi):
        got = int(fold_limbs(np.array([lo], dtype=np.uint64),
                             np.array([hi], dtype=np.uint64))[0])
        assert got <= P61 + 2 and got % P61 == (lo + (hi << 31)) % P61

    def test_submod_edge_values(self):
        vals = [0, 1, P61 - 2, P61 - 1]
        for a in vals:
            got = submod_vec(np.array(vals, dtype=np.uint64),
                             np.full(len(vals), a, dtype=np.uint64))
            assert [int(v) for v in got] == [(b - a) % P61 for b in vals]


def reference_prefix(symbols, x):
    """The scalar recurrence H[t] = H[t-1] * x + c_t mod p."""
    out, h = [0], 0
    for c in symbols:
        h = (h * x + c) % P61
        out.append(h)
    return out


@st.composite
def views(draw):
    """A string, a sampled view of it (possibly empty, possibly shifted
    past either end) and a hash base; sigma reaches the modulus guard."""
    n = draw(st.integers(1, 40))
    limit = (P61 - 1) // (n * n) - 1  # largest sigma the guard admits
    sigma = draw(st.one_of(st.integers(1, 300),
                           st.integers(max(1, limit - (1 << 20)), limit)))
    data = draw(st.lists(st.integers(1, sigma), min_size=n, max_size=n))
    idx = sorted(draw(st.sets(st.integers(1, n))))
    offset = draw(st.integers(-n - 2, n + 2))
    x = draw(st.integers(1, P61 - 1))
    string = ByteString(np.array(data, dtype=np.int64), sigma)
    samples = np.array(idx, dtype=np.int64) + offset
    return string, samples, HashConfig(x=x)


class TestVectorisedPrefix:
    @given(views())
    @settings(max_examples=300, deadline=None)
    def test_prefix_matches_scalar_recurrence(self, view):
        string, samples, cfg = view
        state = RollingHashState(string, samples, cfg)
        symbols = [string.at(int(t)) for t in samples]
        assert [int(h) for h in state.prefix] == reference_prefix(symbols,
                                                                  cfg.x)
        assert [int(v) for v in state.xpow] == [
            pow(cfg.x, t, P61) for t in range(len(symbols) + 1)]

    def test_long_view_matches_scalar_recurrence(self):
        rng = np.random.default_rng(21)
        s = bstr(rng, 5000, sigma=255)
        samples = draw_sample(5000, 3, rng) - 17
        cfg = HashConfig.from_seed(22)
        state = RollingHashState(s, samples, cfg)
        symbols = [int(c) for c in s.gather(samples)]
        assert [int(h) for h in state.prefix] == reference_prefix(symbols,
                                                                  cfg.x)

    def test_views_past_the_cache_limit_leave_no_tables(self, monkeypatch):
        monkeypatch.setattr(hashing, "_CACHED_M", 100)
        rng = np.random.default_rng(26)
        s = bstr(rng, 300, sigma=255)
        samples = draw_sample(300, 1, rng)
        cfg = HashConfig.from_seed(27)
        hashing._cached_power_tables.cache_clear()
        state = RollingHashState(s, samples, cfg)
        assert hashing._cached_power_tables.cache_info().currsize == 0
        symbols = [int(c) for c in s.gather(samples)]
        assert [int(h) for h in state.prefix] == reference_prefix(symbols,
                                                                  cfg.x)
        stack = ViewStack(samples, [(s, [0, 1])], cfg, OpCounters())
        assert hashing._cached_power_tables.cache_info().currsize == 0
        assert_row_gives_prefix(stack, 0, state)
        RollingHashState(s, samples[:100], cfg)
        assert hashing._cached_power_tables.cache_info().currsize == 1
        ViewStack(samples[:100], [(s, [0, 1])], cfg, OpCounters())
        assert hashing._cached_power_tables.cache_info().currsize == 1

    def test_rejects_zero_base_mod_p(self):
        s = bstr(np.random.default_rng(23), 10)
        samples = np.arange(1, 11)
        for x in (0, P61):
            with pytest.raises(ValueError):
                RollingHashState(s, samples, HashConfig(x=x))


def reference_hash(string, samples, x, i, j):
    """The polynomial hash of the view's positions inside [i, j]."""
    h = 0
    for t in samples.tolist():
        if i <= t <= j:
            h = (h * x + string.at(t)) % P61
    return h


@st.composite
def ranges(draw, n):
    """A range [i, j] that may be empty (j < i) or reach past either end of
    a string of length n, or of a view shifted by up to n + 2."""
    i = draw(st.integers(-2 * n - 4, 2 * n + 4))
    return i, draw(st.integers(i - 3, 2 * n + 6))


class TestScalarRetrieve:
    @given(views(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_retrieve_matches_many_and_polynomial(self, view, data):
        string, samples, cfg = view
        ctr = OpCounters()
        state = RollingHashState(string, samples, cfg, ctr)
        for _ in range(4):
            i, j = data.draw(ranges(len(string)))
            before = ctr.retrievals
            got = state.retrieve(i, j)
            assert ctr.retrievals == before + 1
            assert isinstance(got, int)
            many = state.retrieve_many(np.array([i, i]), np.array([j, j]))
            assert ctr.retrievals == before + 3
            assert [int(v) for v in many] == [got, got]
            assert got == reference_hash(string, samples, cfg.x, i, j)


def stack_and_states(a, a_offsets, b, b_offsets, samples, cfg):
    """A stack of the views and, built apart, one state per view, each with
    its own counters."""
    ctr = OpCounters()
    stack = ViewStack(samples, [(a, a_offsets), (b, b_offsets)], cfg, ctr)
    ref_ctr = OpCounters()
    states = [RollingHashState(s, samples + o, cfg, ref_ctr)
              for s, offsets in ((a, a_offsets), (b, b_offsets))
              for o in offsets]
    return stack, ctr, states, ref_ctr


def assert_row_gives_prefix(stack, v, state):
    """The stack's invariant: row v holds prefix sums G in [0, p) with
    G[t] x^t = H[t] mod p, H the prefix hashes of view v's state."""
    sums = stack.prefix[v]
    assert np.all(sums < P61)
    assert np.array_equal(stack.xpow, state.xpow)
    assert np.array_equal(mulmod_vec(sums, stack.xpow), state.prefix)


def assert_stack_equals_states(a, a_offsets, b, b_offsets, samples, cfg):
    stack, ctr, states, ref_ctr = stack_and_states(a, a_offsets, b,
                                                   b_offsets, samples, cfg)
    v = len(a_offsets) + len(b_offsets)
    assert stack.prefix.shape == (v, len(samples) + 1)
    for col, state in enumerate(states):
        assert_row_gives_prefix(stack, col, state)
    assert ctr.init_steps == ref_ctr.init_steps == v * len(samples)


@st.composite
def stacks(draw):
    """Two strings over one sample (possibly empty, possibly shifted),
    offsets of each that may read past either end, a hash base and a block
    size; sigma = 10^8 reaches the reduced limb sums once |S| >= 86."""
    n = draw(st.integers(1, 150))
    sigma = draw(st.sampled_from([2, 255, 10**8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = bstr(rng, n, sigma), bstr(rng, n, sigma)
    keep = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    idx = np.flatnonzero(rng.random(n) < keep).astype(np.int64) + 1
    samples = idx + draw(st.integers(-3, 3))
    offsets = st.lists(st.integers(-n - 3, n + 3), max_size=9)
    return (a, draw(offsets), b, draw(offsets), samples,
            HashConfig(x=draw(st.integers(1, P61 - 1))),
            draw(st.integers(1, 4 * n)))


def edge_case(n, sigma, keep, block, n_a, n_b):
    """A stack case of `stacks`' shape: n_a A views and n_b B views over
    `keep` sampled positions, hashed in blocks of `block` symbols. A's
    first and last views and B's first two read past an end of the
    strings."""
    rng = np.random.default_rng(n + keep)
    a, b = bstr(rng, n, sigma), bstr(rng, n, sigma)
    idx = rng.choice(np.arange(1, n + 1), keep, replace=False)
    a_offsets = np.linspace(-n - 2, n + 2, n_a).astype(int).tolist()
    b_offsets = [n + 1, *range(-n - 1, -n - 1 + 2 * (n_b - 1), 2)]
    return (a, a_offsets, b, b_offsets, np.sort(idx),
            HashConfig.from_seed(n), block)


class TestViewStack:
    @given(stacks())
    @settings(max_examples=200, deadline=None)
    # two views a block: a block boundary inside A's views, then blocks
    # that end at the A/B seam
    @example(edge_case(40, 4, 10, 20, 5, 3))
    @example(edge_case(40, 4, 10, 20, 4, 3))
    @example(edge_case(80, 255, 50, 16, 3, 2))  # |S| above the block
    # 200 (10^8 + 1) >= 2^33: the reduced limb sums, over a block of rows
    @example(edge_case(200, 10**8, 200, 1 << 12, 5, 3))
    @example(edge_case(30, 4, 0, 20, 3, 2))  # an empty sample
    # x = -1 mod p over 1 1 1 ..: G[2] = x^-1 + x^-2 = 0, which the limb
    # fold leaves as p, and the stack stores as 0
    @example((ByteString(np.ones(8, dtype=np.int64), 2), [0, 1],
              ByteString(np.ones(8, dtype=np.int64), 2), [-1],
              np.arange(1, 9), HashConfig(x=P61 - 1), 16))
    def test_columns_equal_one_state_per_view(self, case):
        *views, block = case
        with mock.patch.object(hashing, "_BLOCK", block):
            assert_stack_equals_states(*views)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_collision_matches_per_view_retrieve(self, seed, r, data):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        a = bstr(rng, n, sigma=2)
        b = bstr(rng, n, sigma=2)
        samples = draw_sample(n, int(rng.integers(1, 60)), rng)
        cfg = HashConfig.from_seed(seed)
        a_offsets = [c * r for c in range(-r, r + 1)]
        b_offsets = [-c for c in range(r)]
        stack, ctr, ref, _ = stack_and_states(a, a_offsets, b, b_offsets,
                                              samples, cfg)
        offsets = a_offsets + b_offsets
        v = len(ref)
        i = data.draw(st.integers(-5, n + 5))
        j = data.draw(st.integers(i - 3, n + 8))
        a_lo = data.draw(st.integers(0, 2 * r + 1))
        a_cols = range(a_lo, data.draw(st.integers(a_lo, 2 * r + 1)))
        b_cols = range(2 * r + 1, v)
        # the scan both noprep oracles used: B views into a dict, then A
        # views in order until one hash is in it
        taken, b_hashes, want = 0, {}, None
        for col in b_cols:
            off = offsets[col]
            b_hashes.setdefault(ref[col].retrieve(i + off, j + off), col)
            taken += 1
        for col in a_cols:
            off = offsets[col]
            h = ref[col].retrieve(i + off, j + off)
            taken += 1
            if h in b_hashes:
                want = (col, b_hashes[h])
                break
        assert stack.first_collision(i, j, a_cols, b_cols) == want
        assert ctr.retrievals == taken

    @given(stacks(), st.sampled_from([None, 1, P61 - 1]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_window_block_matches_per_view_retrieve(self, case, x, data):
        a, a_offsets, b, b_offsets, samples, cfg, block = case
        if x is not None:
            cfg = HashConfig(x=x)
        with mock.patch.object(hashing, "_BLOCK", block):
            stack, ctr, states, _ = stack_and_states(a, a_offsets, b,
                                                     b_offsets, samples, cfg)
        n = len(a)
        # windows [i, i + w - 1]: empty ones (w = 0), and ones that start
        # or end past either end of the (shifted) sample
        windows = data.draw(st.lists(st.tuples(st.integers(-n - 8, n + 8),
                                               st.integers(0, n + 8)),
                                     min_size=1, max_size=8))
        i = np.array([s for s, _ in windows], dtype=np.int64)
        j = np.array([s + w - 1 for s, w in windows], dtype=np.int64)
        got = stack.window_block(i, j)
        assert ctr.retrievals == 0
        offsets = a_offsets + b_offsets
        assert got.shape == (len(windows), len(offsets))
        assert got.tolist() == [
            [state.retrieve(s + o, e + o) for state, o in zip(states, offsets)]
            for s, e in zip(i.tolist(), j.tolist())]

    def test_refuses_what_a_state_refuses(self, monkeypatch):
        rng = np.random.default_rng(24)
        a = bstr(rng, 50)
        samples = draw_sample(50, 10, rng)
        wide = ByteString(a.data, (P61 - 1) // (50 * 50))  # past the guard
        for b, x in ((a, P61), (wide, 3)):
            with pytest.raises(ValueError):
                ViewStack(samples, [(a, [0]), (b, [0])], HashConfig(x=x),
                          OpCounters())
        monkeypatch.setattr(hashing, "MAX_N", 49)
        with pytest.raises(ValueError, match="too long"):
            ViewStack(samples, [(a, [0])], HashConfig(x=3), OpCounters())


class TestSampling:
    def test_rate_formula(self):
        assert sample_rate(256, 4) == 1.0
        r = sample_rate(65536, 256)
        assert abs(r - 4 * np.log(65536) / 256) < 1e-12

    def test_saturated_rate_takes_everything(self):
        s = draw_sample(100, 1, np.random.default_rng(0))
        assert list(s) == list(range(1, 101))

    def test_anchors_always_present(self):
        s = draw_sample(1000, 64, np.random.default_rng(1),
                        force_anchors=np.arange(64, 1001, 64))
        for a in range(64, 1001, 64):
            assert a in s

    def test_empirical_rate(self):
        s = draw_sample(20000, 400, np.random.default_rng(2))
        expect = sample_rate(20000, 400) * 20000
        assert 0.7 * expect < len(s) < 1.3 * expect


class TestRollingHash:
    def direct(self, s, positions, cfg, off=0):
        h = 0
        for t in positions:
            h = (h * cfg.x + s.at(int(t) + off)) % P61
        return h

    def test_full_retrieve_matches_polynomial(self):
        rng = np.random.default_rng(4)
        cfg = HashConfig.from_seed(10)
        s = bstr(rng, 150)
        samples = np.arange(1, 151, dtype=np.int64)
        st_ = RollingHashState(s, samples, cfg)
        for _ in range(100):
            i = int(rng.integers(1, 151))
            j = int(rng.integers(i - 1, 151))
            assert st_.retrieve(i, j) == self.direct(s, range(i, j + 1), cfg)

    def test_empty_range_hashes_to_zero(self):
        cfg = HashConfig.from_seed(11)
        s = bstr(np.random.default_rng(5), 50)
        st_ = RollingHashState(s, np.arange(1, 51), cfg)
        assert st_.retrieve(10, 9) == 0
        assert st_.retrieve(60, 80) == 0

    def test_shifted_view_reads_offset_symbols(self):
        rng = np.random.default_rng(6)
        cfg = HashConfig.from_seed(12)
        s = bstr(rng, 120)
        samples = draw_sample(120, 30, np.random.default_rng(7))
        st_ = RollingHashState(s, samples + 4, cfg)
        for _ in range(60):
            i = int(rng.integers(-10, 130))
            j = int(rng.integers(i - 1, 135))
            inside = [t for t in samples if i <= t + 4 <= j]
            assert st_.retrieve(i, j) == self.direct(s, inside, cfg, off=4)

    def test_retrieve_many_equals_scalar(self):
        rng = np.random.default_rng(8)
        cfg = HashConfig.from_seed(13)
        s = bstr(rng, 300)
        samples = draw_sample(300, 20, np.random.default_rng(9))
        st_ = RollingHashState(s, samples, cfg)
        ii = rng.integers(-5, 310, 400)
        jj = ii + rng.integers(-1, 50, 400)
        got = st_.retrieve_many(ii, jj)
        assert [int(v) for v in got] == [st_.retrieve(int(i), int(j))
                                         for i, j in zip(ii, jj)]

    def test_equal_windows_same_sample_hash_equal(self):
        # shift consistency: comparing A shifted by c against B unshifted
        # over one sample must see identical hashes on a true match
        rng = np.random.default_rng(10)
        cfg = HashConfig.from_seed(14)
        a = bstr(rng, 200)
        c = 7
        b = ByteString(np.roll(a.data, -c), a.sigma)  # b[i] = a[i+c] mostly
        samples = draw_sample(200, 25, np.random.default_rng(11))
        sa = RollingHashState(a, samples + c, cfg)
        sb = RollingHashState(b, samples, cfg)
        assert sa.retrieve(20 + c, 150 + c) == sb.retrieve(20, 150)

    def test_counters_track_work(self):
        cfg = HashConfig.from_seed(15)
        s = bstr(np.random.default_rng(12), 64)
        counters = OpCounters()
        st_ = RollingHashState(s, np.arange(1, 65), cfg, counters)
        assert counters.init_steps == 64
        st_.retrieve(1, 10)
        st_.retrieve_many(np.array([1, 2]), np.array([5, 6]))
        assert counters.retrievals == 3

    def test_modulus_guard_on_alphabet_size(self):
        # the Mersenne modulus itself, but n^2 (sigma + 1) >= p
        s = ByteString(np.arange(1, 11), P61 // 100)
        samples = np.arange(1, 11)
        with pytest.raises(ValueError, match="modulus too small"):
            RollingHashState(s, samples, HashConfig(x=5))
        # one symbol fewer passes it
        s = ByteString(np.arange(1, 11), (P61 - 1) // 100 - 1)
        assert RollingHashState(s, samples, HashConfig(x=5)).prefix.size == 11


class TestConfig:
    def test_from_seed_deterministic(self):
        assert HashConfig.from_seed(7).x == HashConfig.from_seed(7).x
        assert HashConfig.from_seed(7).x != HashConfig.from_seed(8).x

    @pytest.mark.parametrize("seed", [[1, 2], (3,), 1.5, "abc", "7", -1,
                                      np.float64(2.0)])
    def test_refuses_seeds_that_are_not_non_negative_integers(self, seed):
        with pytest.raises(ValueError, match="seed"):
            HashConfig.from_seed(seed)

    def test_sampling_stream_independent_of_x(self):
        c = HashConfig.from_seed(9)
        r1 = c.sampling_rng().integers(0, 1000, 5)
        r2 = c.sampling_rng().integers(0, 1000, 5)
        assert list(r1) == list(r2)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**62, 2**64 + 3])
    def test_draws_are_those_of_the_seeds_two_spawned_children(self, seed):
        # x comes from SeedSequence(seed).spawn(2)[0] and the sample from
        # [1], as recorded in every golden file; the children are built
        # directly now, and must draw the same numbers
        x_ss, samp_ss = np.random.SeedSequence(seed).spawn(2)
        c = HashConfig.from_seed(seed)
        assert c.x == int(np.random.default_rng(x_ss).integers(2, P61 - 1))
        assert (c.sampling_rng().random(50).tolist()
                == np.random.default_rng(samp_ss).random(50).tolist())
