"""Gap decision with both strings preprocessed.

Preprocessing on A stores, for window (i, j), the set of hashes of every
shifted copy A[i+a .. j+a] with |a| <= k that stays inside the string. A
query then binary-searches the longest B-window whose hash lands in the
matching cell; membership is monotone in the window length because an
exact match of length d contains one of length d - 1 at the same shift.

Cells are computed on demand from the prefix hashes of A, so the index
holds O(n) state.
"""

from __future__ import annotations

import numpy as np

from .hashing import HashConfig, OpCounters, RollingHashState, SampleSet
from .strings import ByteString


def full_sample(n: int) -> SampleSet:
    return SampleSet(np.arange(1, n + 1, dtype=np.int64), n, 1.0)


class TwoSidedIndex:
    """Shift-closed window hashes of A for alignment against any B."""

    def __init__(self, n: int, k: int, cfg: HashConfig,
                 a_state: RollingHashState,
                 counters: OpCounters | None = None):
        self.n = n
        self.k = k
        self.cfg = cfg
        self.a_state = a_state
        self.counters = counters if counters is not None else OpCounters()

    @property
    def counters(self) -> OpCounters:
        return self._counters

    @counters.setter
    def counters(self, counters: OpCounters) -> None:
        # A's rows read by `member` are work of whoever holds the index now
        self._counters = counters
        self.a_state.counters = counters

    @classmethod
    def preprocess(cls, a: ByteString, k: int,
                   cfg: HashConfig) -> "TwoSidedIndex":
        counters = OpCounters()
        state = RollingHashState(a, full_sample(len(a)), cfg, counters)
        return cls(len(a), k, cfg, state, counters)

    def _shift_hashes(self, i: int, j: int) -> np.ndarray:
        """Hashes of the in-range shifted windows for cell (i, j)."""
        if j < i:
            return np.zeros(1, dtype=np.uint64)
        shifts = np.arange(-self.k, self.k + 1, dtype=np.int64)
        lo = i + shifts
        hi = j + shifts
        ok = (lo >= 1) & (hi <= self.n)
        if not ok.any():
            return np.empty(0, dtype=np.uint64)
        return self.a_state.retrieve_many(lo[ok], hi[ok])

    def member(self, i: int, j: int, h: int) -> bool:
        """Is h the hash of some in-range shifted copy of window (i, j)?"""
        self.counters.table_lookups += 1
        return bool(np.any(self._shift_hashes(i, j) == np.uint64(h)))


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
