"""Subsampled polynomial rolling hashes.

A sample S is a sorted int64 array of 1-based positions. A rolling hash
state over S stores prefix hashes H[t] = H[t-1] * x + sym(S[t]) mod p, so
the hash of the sampled positions inside any range [i, j] comes from two
binary searches and one modular combination:

    hash(S cap [i, j]) = H[hi] - H[lo] * x^(hi - lo) mod p

with H over the first lo (resp. hi) sampled positions. An empty range
hashes to 0. A copy of a string shifted by o is read over S + o, so the
two sides of a comparison always sample the same set.

The prefix hashes are built without a loop, from the identity

    H[t] = x^t * sum_{s <= t} c_s x^-s   (mod p = 2^61 - 1)

Each x^-s < 2^61 is split into limbs x^-s = u_s + v_s 2^31 with u_s < 2^31
and v_s < 2^30, and the sums of c_s u_s and c_s v_s are running sums in
uint64. With m sampled positions and every symbol c_s <= c (the sentinel
sigma + 1 included) they stay below m c 2^31, exact while m c < 2^33. For
larger m c (a huge alphabet, or m near MAX_N) c_s x^-s is reduced mod p
first and its own limbs are summed; those sums stay below m 2^31 <= 2^57.
Both sums are folded mod p (2^61 = 1 mod p) into the prefix sums

    G[t] = sum_{s <= t} c_s x^-s   (mod p)

and a state multiplies G[t] by x^t, so its H equals the recurrence bit for
bit.

One kernel, `_prefix_sums`, sums a block of rows, one view per row. A
`RollingHashState` is one row, multiplied out to H. A `ViewStack` holds
the shifted views of one sample on one or two strings (the noprep
oracle's A and B views, the one-sided index's 2k + 1 copies of A), and it
keeps G, reduced to [0, p). Every window it is asked for lands on the same
pair of prefix positions (lo, hi) in every view, and there

    H[hi] - H[lo] x^(hi - lo) = x^hi (G[hi] - G[lo])   (mod p)

With x nonzero mod p, two views hash a window alike exactly when their G
differences are equal, so a probe compares differences with no power of
x, and `window_block` multiplies by x^hi once per hash it returns. The
stack sums its views in blocks of about `_BLOCK` = 2^12 symbols, each one
gather from the sentinel-padded span the views read, one limb multiply,
one cumsum and one fold, written straight into its rows. At the
benchmark's sizes (|S| of a few hundred to a few thousand) a view alone is
too small for numpy's per-call cost to vanish. A block much larger than
2^12 symbols makes temporaries past about 200 KB; those come from fresh
mmaps, and their page faults cost more than the calls saved.

The tables x^t and the limbs of x^-t depend only on (x, m). A build
fetches them once, and every view of a stack shares them. A small cache
keeps them between builds: the states and stacks of one decision, and the
one-sided, wave and two-sided queries on one A. It holds tables of up to
`_CACHED_M` = 2^16 positions only, so a large decision leaves no tables
behind.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .mers61 import (P61, canonical61, fold_limbs, limbs, mulmod, mulmod_limbs,
                     mulmod_vec, submod_vec)

MAX_N = 1 << 26

# c_s times a limb (< 2^31) summed over m positions stays below 2^64
# while m * max(c) < 2^33
_DIRECT_LIMIT = 1 << 33

# Power tables (5 uint64 per position) stay cached after a build only up to
# this many positions. The views of one decision share an entry, and a
# one-sided, a wave and a two-sided query on the same A use three.
_CACHED_M = 1 << 16

# A view stack hashes its views in blocks of about this many symbols, one
# view at least (module docstring)
_BLOCK = 1 << 12


@dataclass
class OpCounters:
    """Work accounting for sublinearity measurements."""

    init_steps: int = 0  # characters folded into prefix hashes
    retrievals: int = 0  # range-hash retrievals, or symbols compared
    table_lookups: int = 0  # membership probes against tables or an index
    oracle_queries: int = 0  # alignment-oracle invocations

    def merge(self, other: "OpCounters") -> None:
        self.init_steps += other.init_steps
        self.retrievals += other.retrievals
        self.table_lookups += other.table_lookups
        self.oracle_queries += other.oracle_queries


@dataclass(frozen=True)
class HashConfig:
    """Shared hash parameters: the base x, nonzero mod p = 2^61 - 1, and
    the seed of the sample draw. Both strings of one comparison must use the
    same x and the same sample draw for hashes to be comparable."""

    x: int
    rng_seed: int | None = None

    def __post_init__(self):
        if self.x % P61 == 0:
            raise ValueError("hash base must be nonzero mod p")

    @classmethod
    def from_seed(cls, seed) -> "HashConfig":
        """The config of a seed: None (fresh entropy) or a non-negative
        integer, which fixes x and the sample draw."""
        if seed is not None:
            refused = ValueError(f"seed must be None or a non-negative "
                                 f"integer, got {seed!r}")
            try:
                seed = operator.index(seed)
            except TypeError:
                raise refused from None
            if seed < 0:
                raise refused
        # x from child 0 of `SeedSequence(seed).spawn(2)`, the sample from
        # child 1, each built directly without its parent
        x_ss = np.random.SeedSequence(seed, spawn_key=(0,))
        x = int(np.random.default_rng(x_ss).integers(2, P61 - 1))
        return cls(x=x, rng_seed=seed)

    def sampling_rng(self) -> np.random.Generator:
        samp_ss = np.random.SeedSequence(self.rng_seed, spawn_key=(1,))
        return np.random.default_rng(samp_ss)


def sample_rate(n: int, granularity: int) -> float:
    return min(4.0 * math.log(n) / granularity, 1.0) if n > 1 else 1.0


def draw_sample(n: int, granularity: int, rng: np.random.Generator,
                force_anchors: np.ndarray | None = None) -> np.ndarray:
    """The sample of [1, n], sorted: each position independently at rate
    min(4 ln n / granularity, 1), then any forced anchors. The generator is
    read only below rate 1."""
    rate = sample_rate(n, granularity)
    if rate >= 1.0:
        idx = np.arange(1, n + 1, dtype=np.int64)
    else:
        keep = rng.random(n) < rate
        idx = np.nonzero(keep)[0].astype(np.int64) + 1
    if force_anchors is not None and len(force_anchors):
        anchors = np.asarray(force_anchors, dtype=np.int64)
        anchors = anchors[(anchors >= 1) & (anchors <= n)]
        idx = np.union1d(idx, anchors)
    return idx


@functools.lru_cache(maxsize=4)
def _cached_power_tables(x: int, m: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tables = _power_tables(x, m)
    for table in tables:
        table.flags.writeable = False  # every caller gets the same arrays
    return tables


def _power_tables(x: int, m: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x^t for t = 0..m, and the limbs of x^t and of x^-t for t = 1..m."""
    # x^t as x^(q s) * x^r for t = q s + r, from two tables of about
    # sqrt(m) entries each
    s = math.isqrt(m) + 1
    small = [1] * s
    for i in range(1, s):
        small[i] = mulmod(small[i - 1], x)
    step = mulmod(small[-1], x)  # x^s
    big = [1] * (m // s + 1)
    for i in range(1, len(big)):
        big[i] = mulmod(big[i - 1], step)
    xpow = mulmod_vec(np.array(big, dtype=np.uint64)[:, None],
                      np.array(small, dtype=np.uint64)[None, :]).ravel()[:m + 1]
    # x^-t = x^(m - t) * x^-m, and x^-m = x^(p - 1 - m) by Fermat
    xinv = mulmod_vec(xpow[:m][::-1],
                      np.array([pow(x, P61 - 1 - m, P61)], dtype=np.uint64))
    return xpow, limbs(xpow[1:]), limbs(xinv)


def _tables_for(x: int, m: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power tables of (x, m): the cached ones up to `_CACHED_M`
    positions, fresh ones that no cache keeps above it."""
    if m <= _CACHED_M:
        return _cached_power_tables(x, m)
    return _power_tables(x, m)


def _prefix_sums(syms: np.ndarray, top: int, inv: np.ndarray
                 ) -> np.ndarray:
    """Prefix sums of a block of views, one view per row.

    Row v of `syms` (rows x m) holds the symbols c_1..c_m of one view, each
    at most `top`, and row v of the result (rows x m) its G[1..m]:
    G[t] = sum over s <= t of c_s x^-s mod p, summed exactly in uint64 over
    the two limbs of each summand and folded mod p once at the end, to at
    most p + 2 (as `mulmod_limbs` accepts; `canonical61` makes it G mod p).
    G[0] = 0 is left to the caller. `inv` is the limb table of x^-t in
    `_tables_for(x, m)`.
    """
    c = syms.view(np.uint64)  # int64 symbols >= 1: the same bits
    if syms.shape[1] * top < _DIRECT_LIMIT:
        parts = inv[:, None, :] * c  # each limb of x^-s times c_s
    else:
        # symbols too large for the limb sums: reduce c_s x^-s first
        parts = limbs(mulmod_limbs(c, inv[0], inv[1]))
    np.cumsum(parts, axis=2, out=parts)
    return fold_limbs(parts[0], parts[1])


def check_alphabet(n: int, sigma: int) -> None:
    """Raise ValueError unless p > n^2 (sigma + 1), the margin the collision
    guarantee needs for length n over symbols 1 .. sigma + 1 (the sentinel
    included)."""
    if P61 <= n * n * (sigma + 1):
        raise ValueError("modulus too small for this length and alphabet")


def _check_string(string) -> None:
    """Raise ValueError if the string is too long, or its alphabet too
    large, for the collision guarantee."""
    n = len(string)
    if n > MAX_N:
        raise ValueError("string too long for collision guarantee")
    check_alphabet(n, string.sigma)


class RollingHashState:
    """Prefix hashes of one string over a sample: sorted int64 positions,
    S + o for a copy of the string shifted by o."""

    def __init__(self, string, samples: np.ndarray, cfg: HashConfig,
                 counters: OpCounters | None = None):
        _check_string(string)
        self.cfg = cfg
        self.samples = samples
        self.counters = counters if counters is not None else OpCounters()
        m = samples.size
        tables = _tables_for(cfg.x, m)
        self.xpow = tables[0]
        self.prefix = np.empty(m + 1, dtype=np.uint64)
        self.prefix[0] = 0
        # H[t] = x^t G[t]; reads outside [1, n] give the sentinel sigma + 1
        sums = _prefix_sums(string.gather(samples)[None], string.sigma + 1,
                            tables[2])
        self.prefix[1:] = mulmod_limbs(sums[0], *tables[1])
        self._lists = None
        self.counters.init_steps += m

    def retrieve(self, i: int, j: int) -> int:
        """Hash of the sampled positions inside [i, j].

        Reads the sample, prefix rows and x-powers as Python lists,
        located with bisect. The lists are made on the first call, so states
        read only through `retrieve_many` or a `ViewStack` never pay for
        them."""
        self.counters.retrievals += 1
        lists = self._lists
        if lists is None:
            lists = self._lists = (self.samples.tolist(),
                                   self.prefix.tolist(), self.xpow.tolist())
        pos, prefix, xpow = lists
        lo = bisect_left(pos, i)
        hi = bisect_right(pos, j)
        if hi <= lo:
            return 0
        return (prefix[hi] - prefix[lo] * xpow[hi - lo]) % P61

    def retrieve_many(self, i_arr: np.ndarray, j_arr: np.ndarray) -> np.ndarray:
        """Vectorized retrieve for parallel ranges."""
        i_arr = np.asarray(i_arr, dtype=np.int64)
        j_arr = np.asarray(j_arr, dtype=np.int64)
        self.counters.retrievals += int(i_arr.size)
        lo = self.samples.searchsorted(i_arr, side="left")
        hi = self.samples.searchsorted(j_arr, side="right")
        cnt = np.maximum(hi - lo, 0)
        head = mulmod_vec(self.prefix[lo], self.xpow[cnt])
        out = submod_vec(self.prefix[np.maximum(hi, lo)], head)
        return np.where(cnt > 0, out, np.uint64(0))


class ViewStack:
    """Shifted views of one sample S, built and read together.

    View v of a string at offset o_v reads it over S + o_v, so a window
    [i, j] of S lands on the same pair of prefix positions in every view:
    view v's hash of [i + o_v, j + o_v] is x^h (G_v[h] - G_v[l]), with l
    and h the counts of positions of S below i and up to j, and G_v the
    view's prefix sums (module docstring). `prefix` holds G once, in a
    V x (m + 1) matrix, one row per view, in the order of `views`:
    (string, offsets) pairs, each offset one view of that string. The
    rows are summed in blocks of about `_BLOCK` symbols, one gather and
    one `_prefix_sums` pass per block; each view folds |S| symbols, as a
    `RollingHashState` over S + o_v would. The gathers of a string's views
    read one sentinel-padded copy of the stretch they cover, as long as
    the span of S plus the spread of the string's offsets.
    """

    def __init__(self, samples: np.ndarray, views, cfg: HashConfig,
                 counters: OpCounters):
        for string, _ in views:
            _check_string(string)
        self.counters = counters
        m = samples.size
        tables = _tables_for(cfg.x, m)
        self.xpow = tables[0]
        self.samples = samples
        self.positions = samples.tolist()
        self.prefix = np.zeros((sum(len(o) for _, o in views), m + 1),
                               dtype=np.uint64)
        per_block = max(_BLOCK // max(m, 1), 1)
        row = 0
        for string, offsets in views:
            offsets = np.asarray(offsets, dtype=np.int64)
            if not (m and offsets.size):  # nothing to sum: the rows stay 0
                row += offsets.size
                continue
            # every symbol the views read, sentinel outside [1, n]
            first = int(samples[0] + offsets.min())
            reads = string.window(first, int(samples[-1] + offsets.max()))
            base = samples - first
            for lo in range(0, offsets.size, per_block):
                block = offsets[lo:lo + per_block]
                end = row + block.size
                self.prefix[row:end, 1:] = canonical61(_prefix_sums(
                    reads.take(block[:, None] + base), string.sigma + 1,
                    tables[2]))
                row = end
        counters.init_steps += m * row

    def window_block(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Every view's hash of every window [i_s, j_s] of S (j_s >= i_s - 1),
        as a len(i) x V block, from one locate, one difference of sums and
        one multiply by x^h. Counts no retrievals: the caller counts the
        entries it reads."""
        lo = self.samples.searchsorted(i, side="left")
        hi = self.samples.searchsorted(j, side="right")
        diff = submod_vec(self.prefix[:, hi], self.prefix[:, lo])
        return mulmod_limbs(diff, *limbs(self.xpow[hi])).T

    def first_collision(self, i: int, j: int, a_cols: range, b_cols: range
                        ) -> tuple[int, int] | None:
        """Scan views a_cols in order for the first whose hash of window
        [i, j] of S equals that of some view in b_cols; return it with the
        first such b view. Every view's hash is x^h times its difference
        G_v[h] - G_v[l] mod p, and x^h is nonzero, so the scan compares the
        differences, the same collisions as the hashes. Every hash taken
        counts as one retrieval: all of b_cols, then a_cols up to the
        hit."""
        pos = self.positions
        lo = bisect_left(pos, i)
        hi = max(bisect_right(pos, j), lo)
        at_lo = self.prefix[:, lo].tolist()
        at_hi = self.prefix[:, hi].tolist()
        b_hashes = {}
        for v in b_cols:
            b_hashes.setdefault((at_hi[v] - at_lo[v]) % P61, v)
        taken = len(b_cols)
        hit = None
        for v in a_cols:
            taken += 1
            w = b_hashes.get((at_hi[v] - at_lo[v]) % P61)
            if w is not None:
                hit = v, w
                break
        self.counters.retrievals += taken
        return hit

