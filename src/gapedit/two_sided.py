"""Gap decision with both strings preprocessed.

Preprocessing on A stores, for window (i, j), the set of hashes of every
shifted copy A[i+a .. j+a] with |a| <= k that stays inside the string. A
query then searches the longest B-window whose hash lands in the matching
cell.

Cells are computed on demand from the prefix hashes H of A, so the index
holds O(n) state: H, x^0 .. x^n and A's symbols, as Python lists. Every
position of A is sampled, so the copy at shift a reads rows i - 1 + a and
j + a of H, and with d = j - i + 1 it hashes to h exactly when

    (H[i - 1 + a] x^d + h) mod p == H[j + a].

`member` returns the shifts that pass this test instead of a yes or no.

The search (`TwoSidedIndex.align`) gallops, then bisects. It probes
d = 1, 2, 4, ... while the probes hit, then bisects between the last hit
and the first miss. After every hit it keeps only the shifts that matched.
That is exact: a copy that matches B[i_b .. i_b + d - 1] at shift a also
matches every shorter prefix at shift a, so a shift that fails at a hit
length d can never match at a longer one, and a miss over the survivors is
a miss over every shift. Only the first probe of an oracle call tests all
its starting shifts; the later probes hash the few survivors. That first
probe, d = 1, compares symbols instead of hashes: a length-1 window hashes
to its own symbol, so A[i_b + a] = B[i_b] gives the hash test's answer bit
for bit, and it is counted as the hash test is. From d = 2 on, a probe
reads B's window hash from B's prefix list and runs the test above inline,
with no call per probe.

The index does not depend on l, so one preprocessed A serves both deciders
at every l <= k, through one call, `oracle(i_a, i_b)`: the wave asks for
the shifts delta + c, delta = i_a - i_b, |c| <= l, |delta + c| <= k;
greedy asks an oracle built for l = k at (i_b, i_b). `align` and
`TwoSidedShiftOracle` serve the twosided mode only.

`SymbolShiftOracle` runs the same search, with the same survivors, over
A's and B's symbols instead of their hashes: a probe compares the part of
each surviving copy past the last hit length with B's, as one `bytes`
comparison at memory speed. It folds nothing and draws no hash, so its
answers are exact with no collision term. It is exact mode's oracle in
both deciders, and at sampling rate 1 the noprep oracle
(`wave.NoPrepShiftOracle`), where the birthday split would fold every
position of both strings and save nothing, and the onesided one
(`one_sided.IndexedShiftOracle`, over the A a rate-1 index keeps), where a
query reads all of B anyway.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .greedy import check_index_params
from .hashing import HashConfig, OpCounters, RollingHashState
from .mers61 import P61
from .strings import ByteString, symbol_words


@functools.lru_cache(maxsize=4)
def full_sample(n: int) -> np.ndarray:
    """Every position of [1, n]: one read-only array per n, shared."""
    idx = np.arange(1, n + 1, dtype=np.int64)
    idx.flags.writeable = False
    return idx


class TwoSidedIndex:
    """Shift-closed window hashes of A for alignment against any B."""

    def __init__(self, k: int, cfg: HashConfig, prefix: list[int],
                 xpow: list[int], syms: list[int],
                 counters: OpCounters | None = None):
        self.n = len(prefix) - 1
        self.k = k
        self.cfg = cfg
        self.counters = counters if counters is not None else OpCounters()
        self.prefix = prefix  # H[t]: hash of A[1 .. t]
        self.xpow = xpow  # x^d, d = 0 .. n
        self.syms = syms  # syms[t - 1]: A[t], the hash of window (t, t)

    @classmethod
    def preprocess(cls, a: ByteString, k: int,
                   cfg: HashConfig) -> "TwoSidedIndex":
        """The index of A, its n folds booked on counters of its own."""
        check_index_params(k)
        counters = OpCounters()
        state = RollingHashState(a, full_sample(len(a)), cfg, counters)
        return cls(k, cfg, state.prefix.tolist(), state.xpow.tolist(),
                   a.data.tolist(), counters)

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

    def align(self, b_rows: list[int], b_syms: list[int], i_a: int,
              i_b: int, ell: int) -> tuple[int, int]:
        """The longest d with B[i_b .. i_b+d-1] equal to a copy
        A[i_a+c .. i_a+c+d-1] with |c| <= l and |i_a + c - i_b| <= k, and
        one such c; (0, 0) when none matches B[i_b]. Exact up to hash
        collisions. `b_rows` are B's prefix hashes over every position,
        under this index's base x, and `b_syms` B's symbols (module
        docstring). Each probe counts what `member` and one `retrieve` on
        B's window count: one table lookup, one retrieval for B and one per
        in-range copy of A tested."""
        n = self.n
        delta = i_a - i_b
        before = i_b - 1
        hi = n - before
        if hi <= 0:
            return 0, 0
        # the shifts a = delta + c relative to i_b whose copies of B[i_b]
        # lie in A, in increasing order
        shifts = range(max(delta - ell, -self.k, -before),
                       min(delta + ell, self.k, hi - 1) + 1)
        syms, c = self.syms, b_syms[before]
        alive = [a for a in shifts if syms[before + a] == c]
        probes, hashed = 1, len(shifts)
        lo, hi = (1, hi) if alive else (0, 0)
        rows, xpow = self.prefix, self.xpow
        b_before = b_rows[before]
        galloping = True
        while lo < hi:
            if galloping:
                d = 2 * lo
                if d > hi:
                    d = hi
            else:
                d = (lo + hi + 1) // 2
            j = before + d
            x_d = xpow[d]
            h = (b_rows[j] - b_before * x_d) % P61
            probes += 1
            got = []
            for a in alive:
                if a > n - j:  # this copy, and the later ones, end past A
                    break
                hashed += 1
                if (rows[before + a] * x_d + h) % P61 == rows[j + a]:
                    got.append(a)
            if got:
                lo, alive = d, got
            else:
                hi, galloping = d - 1, False
        self.counters.table_lookups += probes
        self.counters.retrievals += probes + hashed
        return lo, (alive[0] - delta if lo else 0)


class TwoSidedShiftOracle:
    """Wave shift-alignment oracle over a two-sided index: the longest d
    with B[i_b .. i_b+d-1] equal to A at shift delta + c, delta = i_a - i_b,
    |c| <= l and |delta + c| <= k. Exact up to hash collisions. After a
    call, `last_hint` is a c that matched at the returned d (0 when d is
    0)."""

    def __init__(self, index: TwoSidedIndex, b: ByteString, ell: int,
                 counters: OpCounters | None = None):
        if len(b) != index.n:
            raise ValueError(f"B has length {len(b)}, the index was built "
                             f"for n = {index.n}")
        self.index = index
        self.k, self.ell = index.k, ell
        self.counters = counters if counters is not None else OpCounters()
        self.b_rows = RollingHashState(b, full_sample(len(b)), index.cfg,
                                       self.counters).prefix.tolist()
        self.b_syms = b.data.tolist()
        self.last_hint = None

    def __call__(self, i_a: int, i_b: int) -> int:
        self.counters.oracle_queries += 1
        d, self.last_hint = self.index.align(self.b_rows, self.b_syms, i_a,
                                             i_b, self.ell)
        return d


class TwoSidedOracle(TwoSidedShiftOracle):
    """Greedy alignment oracle over a two-sided index: the shift oracle at
    l = k, asked at (i_b, i_b)."""

    def __init__(self, index: TwoSidedIndex, b: ByteString,
                 counters: OpCounters | None = None):
        super().__init__(index, b, index.k, counters)

    # an entry of its own, so a trace can time greedy's calls alone
    __call__ = TwoSidedShiftOracle.__call__


class SymbolShiftOracle:
    """Exact shift-alignment oracle that compares symbols: the longest d
    with B[i_b .. i_b+d-1] equal to A[i_a+c .. i_a+c+d-1] for some |c| <= l
    with |i_a + c - i_b| <= k. After a call, `last_hint` is a c that
    matches at the returned d (0 when d is 0).

    The search is `TwoSidedIndex.align`'s gallop and bisection over the
    same survivors, with each window tested symbol for symbol over the
    fixed-width words of `strings.symbol_words`, offsets scaled by width.
    The first probe, d = 1, finds B[i_b]'s word in A's range of starting
    copies with `bytes.find`, keeping the hits that fall on a word
    boundary. Every survivor matched B up to the last hit length lo, so a
    later probe at d compares only the words from lo to d: one
    `startswith` per surviving copy, against one memoryview slice of B.
    Nothing is folded, so `init_steps` stays 0; each probe counts one
    table lookup, and each symbol of A it compares one retrieval, the
    first probe one per starting copy."""

    def __init__(self, a: ByteString, b: ByteString, k: int, ell: int,
                 counters: OpCounters | None = None):
        if len(a) != len(b):
            raise ValueError("equal lengths required")
        self.n, self.k, self.ell = len(b), k, ell
        self.counters = counters if counters is not None else OpCounters()
        self.width, self.a_words, self.b_words = symbol_words(a, b)
        self.last_hint = None

    def __call__(self, i_a: int, i_b: int) -> int:
        self.counters.oracle_queries += 1
        n, w = self.n, self.width
        delta = i_a - i_b
        before = i_b - 1
        hi = n - before
        self.last_hint = 0
        if hi <= 0:
            return 0
        # d = 1: the shifts a = delta + c relative to i_b whose copies of
        # B[i_b] lie in A and equal it, found by `bytes.find` in A's range
        first = max(delta - self.ell, -self.k, -before)
        last = min(delta + self.ell, self.k, hi - 1)
        a_words, b_words = self.a_words, self.b_words
        sym = b_words[before * w:i_b * w]
        find, alive = a_words.find, []
        at, end = (before + first) * w, max(i_b + last, 0) * w
        while (at := find(sym, at, end)) >= 0:
            if at % w == 0:
                alive.append(at // w - before)
            at += 1
        probes, compared = 1, max(last - first + 1, 0)
        lo, hi = (1, hi) if alive else (0, 0)
        starts_with = a_words.startswith
        galloping = True
        while lo < hi:
            if galloping:
                d = 2 * lo
                if d > hi:
                    d = hi
            else:
                d = (lo + hi + 1) // 2
            j = before + d
            # the copies that end inside A: a <= n - j
            tested = (alive if alive[-1] <= n - j
                      else alive[:bisect.bisect_right(alive, n - j)])
            start = (before + lo) * w
            window = b_words[start:j * w]
            if len(tested) == 1:  # the common case past d = 1
                got = tested if starts_with(window,
                                            start + tested[0] * w) else []
            else:
                got = [a for a in tested
                       if starts_with(window, start + a * w)]
            probes += 1
            compared += len(tested) * (d - lo)
            if got:
                lo, alive = d, got
            else:
                hi, galloping = d - 1, False
        self.counters.table_lookups += probes
        self.counters.retrievals += compared
        if lo:
            self.last_hint = alive[0] - delta
        return lo
