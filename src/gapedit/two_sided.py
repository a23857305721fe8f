"""Gap decision with both strings preprocessed.

Preprocessing on A stores, for window (i, j), the set of hashes of every
shifted copy A[i+a .. j+a] with |a| <= k that stays inside the string. A
query then searches the longest B-window whose hash lands in the matching
cell.

Cells are computed on demand from the prefix hashes H of A, so the index
holds O(n) state: H and x^0 .. x^n, as Python lists. Every position of A
is sampled, so the copy at shift a reads rows i - 1 + a and j + a of H,
and with d = j - i + 1 it hashes to h exactly when

    (H[i - 1 + a] x^d + h) mod p == H[j + a].

`member` returns the shifts that pass this test instead of a yes or no.

The search gallops, then bisects. It probes d = 1, 2, 4, ... while the
probes hit, then bisects between the last hit and the first miss. After
every hit it keeps only the shifts that matched. That is exact: a copy that
matches B[i_b .. i_b + d - 1] at shift a also matches every shorter prefix
at shift a, so a shift that fails at a hit length d can never match at a
longer one, and a miss over the survivors is a miss over every shift. Only
the first probe of an oracle call hashes all its starting shifts; the later
probes hash the few survivors.

The index does not depend on l, so one preprocessed A serves both deciders
at every l <= k: the wave asks at (i_a, i_b) for the shifts delta + c,
delta = i_a - i_b, |c| <= l, |delta + c| <= k; greedy is l = k, i_a = i_b.
"""

from __future__ import annotations

import numpy as np

from .greedy import check_index_params
from .hashing import HashConfig, OpCounters, RollingHashState, SampleSet
from .mers61 import P61
from .strings import ByteString


def full_sample(n: int) -> SampleSet:
    return SampleSet(np.arange(1, n + 1, dtype=np.int64), n, 1.0)


class TwoSidedIndex:
    """Shift-closed window hashes of A for alignment against any B."""

    def __init__(self, k: int, cfg: HashConfig, prefix: list[int],
                 xpow: list[int], counters: OpCounters | None = None):
        self.n = len(prefix) - 1
        self.k = k
        self.cfg = cfg
        self.counters = counters if counters is not None else OpCounters()
        self.prefix = prefix  # H[t]: hash of A[1 .. t]
        self.xpow = xpow  # x^d, d = 0 .. n

    @classmethod
    def preprocess(cls, a: ByteString, k: int,
                   cfg: HashConfig) -> "TwoSidedIndex":
        check_index_params(k)
        counters = OpCounters()
        state = RollingHashState(a, full_sample(len(a)), cfg, counters)
        return cls(k, cfg, state.prefix.tolist(), state.xpow.tolist(),
                   counters)

    def member(self, i: int, j: int, h: int,
               shifts: list[int] | None = None) -> list[int]:
        """The in-range shifts a among `shifts` (default: every |a| <= k)
        whose copy A[i+a .. j+a] hashes to h; an empty list is a miss. The
        empty window hashes to 0. Each copy hashed counts as one retrieval."""
        self.counters.table_lookups += 1
        a_lo, a_hi = 1 - i, self.n - j
        if shifts is None:
            k = self.k
            shifts = range(max(-k, a_lo), min(k, a_hi) + 1)
        else:
            shifts = [a for a in shifts if a_lo <= a <= a_hi]
        if j < i:
            return list(shifts) if h == 0 else []
        self.counters.retrievals += len(shifts)
        rows = self.prefix
        x_d = self.xpow[j - i + 1]
        before = i - 1
        return [a for a in shifts
                if (rows[before + a] * x_d + h) % P61 == rows[j + a]]


def two_sided_max_align(index: TwoSidedIndex, b_state: RollingHashState,
                        i_b: int, shifts=None) -> int:
    """Longest d with the hash of B[i_b .. i_b+d-1] present in the cell for
    window (i_b, i_b+d-1), among the copies at `shifts` (default: every
    |a| <= k). Gallops over d = 1, 2, 4, ... until a miss, then bisects;
    each probe tests only the shifts that matched the last hit."""
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


class TwoSidedShiftOracle:
    """Wave shift-alignment oracle over a two-sided index: the longest d
    with B[i_b .. i_b+d-1] equal to A at shift delta + c, delta = i_a - i_b,
    |c| <= l and |delta + c| <= k. Exact up to hash collisions."""

    def __init__(self, index: TwoSidedIndex, b: ByteString, ell: int,
                 counters: OpCounters | None = None):
        if len(b) != index.n:
            raise ValueError(f"B has length {len(b)}, the index was built "
                             f"for n = {index.n}")
        self.index = index
        self.ell = ell
        self.counters = counters if counters is not None else OpCounters()
        self.b_state = RollingHashState(b, full_sample(len(b)), index.cfg,
                                        self.counters)
        self.last_hint = None

    def __call__(self, i_a: int, i_b: int) -> int:
        self.counters.oracle_queries += 1
        k, ell, delta = self.index.k, self.ell, i_a - i_b
        shifts = range(max(delta - ell, -k), min(delta + ell, k) + 1)
        return two_sided_max_align(self.index, self.b_state, i_b, shifts)


class TwoSidedOracle(TwoSidedShiftOracle):
    """Greedy alignment oracle over a two-sided index: the shift oracle at
    l = k, asked only at i_a = i_b."""

    def __init__(self, index: TwoSidedIndex, b: ByteString,
                 counters: OpCounters | None = None):
        super().__init__(index, b, index.k, counters)

    def __call__(self, i_b: int) -> int:
        self.counters.oracle_queries += 1
        return two_sided_max_align(self.index, self.b_state, i_b)
