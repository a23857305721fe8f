"""Gap decision with both strings preprocessed.

Preprocessing on A stores, for window (i, j), the set of hashes of every
shifted copy A[i+a .. j+a] with |a| <= k that stays inside the string. A
query then binary-searches the longest B-window whose hash lands in the
matching cell; membership is monotone in the window length because an
exact match of length d contains one of length d - 1 at the same shift.

Cells are computed on demand from the prefix hashes H of A, so the index
holds O(n) state: H and the limbs of x^0 .. x^n. Every position of A is
sampled, so the copy at shift a reads rows i - 1 + a and j + a of H. The
in-range shifts a in [max(-k, 1 - i), min(k, n - j)] therefore read two
contiguous slices of H, and since every copy has the same length
d = j - i + 1, one multiply by x^d serves the whole cell:

    cell(i, j) = H[j + a_lo .. j + a_hi] - H[i - 1 + a_lo .. i - 1 + a_hi] x^d
"""

from __future__ import annotations

import numpy as np

from .greedy import check_index_params
from .hashing import HashConfig, OpCounters, RollingHashState, SampleSet
from .mers61 import limbs, mulmod_limbs, submod_vec
from .strings import ByteString


def full_sample(n: int) -> SampleSet:
    return SampleSet(np.arange(1, n + 1, dtype=np.int64), n, 1.0)


class TwoSidedIndex:
    """Shift-closed window hashes of A for alignment against any B."""

    def __init__(self, k: int, cfg: HashConfig, prefix: np.ndarray,
                 xpow: np.ndarray, counters: OpCounters | None = None):
        self.n = prefix.size - 1
        self.k = k
        self.cfg = cfg
        self.counters = counters if counters is not None else OpCounters()
        self.prefix = prefix  # H[t]: hash of A[1 .. t]
        self.x_lo, self.x_hi = limbs(xpow)  # limbs of x^d, d = 0 .. n

    @classmethod
    def preprocess(cls, a: ByteString, k: int,
                   cfg: HashConfig) -> "TwoSidedIndex":
        check_index_params(k)
        counters = OpCounters()
        state = RollingHashState(a, full_sample(len(a)), cfg, counters)
        return cls(k, cfg, state.prefix, state.xpow, counters)

    def member(self, i: int, j: int, h: int) -> bool:
        """Is h the hash of some in-range shifted copy of window (i, j)?
        Each copy hashed counts as one retrieval."""
        self.counters.table_lookups += 1
        if j < i:
            return bool(h == 0)
        a_lo = max(-self.k, 1 - i)
        a_hi = min(self.k, self.n - j)
        if a_hi < a_lo:
            return False
        self.counters.retrievals += a_hi - a_lo + 1
        d = j - i + 1
        rows = self.prefix
        head = mulmod_limbs(rows[i - 1 + a_lo:i + a_hi],
                            self.x_lo[d], self.x_hi[d])
        cell = submod_vec(rows[j + a_lo:j + a_hi + 1], head)
        return bool((cell == np.uint64(h)).any())


def two_sided_max_align(index: TwoSidedIndex, b_state: RollingHashState,
                        i_b: int) -> int:
    """Longest d with the hash of B[i_b .. i_b+d-1] present in the cell for
    window (i_b, i_b+d-1); binary search over d, valid by monotonicity."""
    n = index.n
    lo, hi = 0, n - i_b + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        h = b_state.retrieve(i_b, i_b + mid - 1)
        if index.member(i_b, i_b + mid - 1, h):
            lo = mid
        else:
            hi = mid - 1
    return lo


class TwoSidedOracle:
    """Alignment oracle backed by a two-sided index; answers are exact up
    to hash collisions."""

    def __init__(self, index: TwoSidedIndex, b: ByteString,
                 counters: OpCounters | None = None):
        if len(b) != index.n:
            raise ValueError(f"B has length {len(b)}, the index was built "
                             f"for n = {index.n}")
        self.index = index
        self.counters = counters if counters is not None else OpCounters()
        self.b_state = RollingHashState(b, full_sample(len(b)), index.cfg,
                                        self.counters)
        self.last_hint = None

    def __call__(self, i_b: int) -> int:
        self.counters.oracle_queries += 1
        return two_sided_max_align(self.index, self.b_state, i_b)
