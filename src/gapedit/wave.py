"""Gap decision at the coarser threshold k versus 10 k l.

A sparsified wavefront tracks, per number of waves i and per diagonal j
(multiples of l in [-k, k]), how far into B an alignment can reach using i
rounds of slack l. Row transitions either pay l characters of slack (stay
or move one diagonal step) or extend along a near-diagonal run reported by
a shift-alignment oracle:

    m       = max( h[i-1][j] + l,  h[i-1][j-l] + l,  h[i-1][j+l] + l )
    h[i][j] = m + align(i_a = m + j + 1, i_b = m + 1)

so one wave both crosses an edit (or a diagonal rounding step) and rides
the following run. Row 0 holds the initial run: h[0][0] = align(1, 1).
The pair is declared within distance k when h[k][0] reaches past n.

`align(i_a, i_b)` approximates the longest d with B[i_b .. i_b+d-1] equal
to A[i_a+c .. i_a+c+d-1] for some |c| <= l, under the promise
|i_a - i_b| <= k. Four interchangeable backends are provided: a per-pair
oracle (no preprocessing), an indexed one over the wave A-index (A
preprocessed for one l), the greedy decider's two-sided oracle asked for
each call's shift window (`two_sided.TwoSidedShiftOracle`: one index of A
serves every l, and B is hashed once per decision), and exact mode's
symbol comparison (`two_sided.SymbolShiftOracle`), which hashes nothing.
At sampling rate 1 (l <= 4 ln n, nearly every wave run) the per-pair
oracle and the indexed one are both that symbol comparison, so their tables
are exact mode's, counters included. Below rate 1 the per-pair oracle
is a birthday split of shifts, which needs l >= ceil(sqrt(k)): it finds
its d by galloping up from the floor 2l and then bisecting, scanning only
the views at or after the last hit's, and it builds only the A views its
calls can scan. The greedy decider asks the same oracles, built for l = k,
at i_a = i_b (`greedy.greedy_match`).
"""

from __future__ import annotations

import math

from .greedy import GapVerdict, check_gap_params, check_oracle_index
from .hashing import (HashConfig, OpCounters, ViewStack, draw_sample,
                      sample_rate)
from .one_sided import IndexedShiftOracle, OneSidedWaveIndex
from .strings import ByteString, max_shift_alignment_bruteforce
from .two_sided import SymbolShiftOracle, TwoSidedIndex, TwoSidedShiftOracle

NEG_INF = float("-inf")


class WaveTable:
    """Rows of sparse diagonal values; missing entries are -inf."""

    def __init__(self):
        self.rows: list[dict[int, int]] = []

    def append(self, row: dict[int, int]) -> None:
        self.rows.append(dict(row))

    def get(self, i: int, j: int):
        if 0 <= i < len(self.rows):
            return self.rows[i].get(j, NEG_INF)
        return NEG_INF


def greedy_wave(a: ByteString, b: ByteString, k: int, ell: int, oracle,
                table: WaveTable | None = None) -> GapVerdict:
    """Run k wave rounds; SMALL iff diagonal 0 reaches past n. An oracle
    over an index built for another k or l, or one that records `buckets`
    (shift buckets floor((i_a - i_b) / l) it can probe) without every
    diagonal's, is refused with ValueError."""
    check_gap_params(a, b, k, ell)
    check_oracle_index(oracle, k, ell)
    reach = k // ell
    buckets = getattr(oracle, "buckets", None)
    if buckets is not None and not (buckets.start <= -reach
                                    and reach < buckets.stop):
        raise ValueError(f"the oracle's index keeps shift buckets "
                         f"[{buckets.start}, {buckets.stop}), the wave probes "
                         f"{-reach} .. {reach}")
    n = len(b)
    diagonals = list(range(-reach * ell, reach * ell + 1, ell))

    def extend(m: int, j: int) -> int:
        i_b = m + 1
        i_a = m + j + 1
        if m >= n or i_a < 1 or i_a > n:
            return m
        return m + oracle(i_a, i_b)

    row = {j: (extend(0, 0) if j == 0 else NEG_INF) for j in diagonals}
    if table is not None:
        table.append(row)
    for _ in range(k):
        if row.get(0, NEG_INF) >= n:
            break
        new = {}
        for j in diagonals:
            m = NEG_INF
            for dj in (0, -ell, ell):
                src = row.get(j + dj, NEG_INF)
                if src != NEG_INF:
                    m = max(m, src + ell)
            if m != NEG_INF:
                new[j] = extend(m, j)
        row = new
        if table is not None:
            table.append(row)
    return GapVerdict.SMALL if row.get(0, NEG_INF) >= n else GapVerdict.LARGE


def wave_jump_violations(table: WaveTable, ell: int, n: int) -> list:
    """Monotone jump property: any reachable cell dominates earlier cells
    within diagonal reach, h[i'][j'] >= min(h[i][j] + l*(i'-i), n)."""
    out = []
    rows = table.rows
    for i in range(len(rows)):
        for j, v in rows[i].items():
            if v == NEG_INF:
                continue
            for i2 in range(i + 1, len(rows)):
                reach = ell * (i2 - i)
                for j2, v2 in rows[i2].items():
                    if abs(j2 - j) <= reach and v2 < min(v + reach, n):
                        out.append((i, j, i2, j2, v, v2))
    return out


class NoPrepShiftOracle(SymbolShiftOracle):
    """Shift-alignment oracle without preprocessing.

    The sample has rate min(4 ln n / l, 1). At rate 1 (l <= 4 ln n, nearly
    every wave run) it is `two_sided.SymbolShiftOracle`, which compares A's
    and B's symbols: exact, with no fold, no view and no hash draw, and
    `views` is None.

    Below rate 1, shifts relative to B factor as a * r + b_off with
    r = ceil(sqrt(k)) and b_off in [0, r). The oracle keeps r views of B,
    at offsets -b_off, and the A views at offsets a * r that a call can
    ever scan: |a| <= q = ceil((reach + l) / r), where reach bounds the
    promised |i_a - i_b| (k here, so q <= 2r). Each of the 2q + 1 + r
    views folds every sampled position, all built together into one
    `hashing.ViewStack`, with no `RollingHashState` per view. Probes shave
    l characters from each end; only the a-values compatible with the
    offset i_a - i_b and |c| <= l are scanned, so reported matches have
    |c| <= l + 2r <= 3l.
    Only this split needs l >= r; at rate 1 every 1 <= l <= k is served.
    The greedy decider's oracle (`no_prep.NoPrepOracle`) is this one at
    l = k and reach 0, asked at (i_b, i_b).

    Below rate 1 a call probes d = 2l + 1, 2l + 2, 2l + 4, ... while
    probes hit, then bisects between the last hit and the first miss. A
    probe hits when some A view's window equals some B view's, and a
    window that matches still matches when shortened, so hits form a
    prefix of the d range and the search ends on the largest hit, the d
    plain bisection finds. After a hit whose first colliding A view is v,
    later probes scan views v and on: the views before v missed a shorter
    window. So every probe finds the same first view as a full scan would,
    and the hint, read at the final d, is the one bisection leaves; a call
    without a hit returns the floor 2l and leaves hint 0.
    """

    def __init__(self, a: ByteString, b: ByteString, k: int, ell: int,
                 cfg: HashConfig, counters: OpCounters | None = None):
        self._build(a, b, k, ell, k, cfg, counters)

    def _build(self, a: ByteString, b: ByteString, k: int, ell: int,
               reach: int, cfg: HashConfig,
               counters: OpCounters | None) -> None:
        """At rate 1 hold A's and B's symbols, else draw the sample and
        build the views for calls with |i_a - i_b| <= reach;
        `NoPrepOracle.__init__` runs it at l = k and reach 0."""
        n = len(b)
        if sample_rate(n, ell) >= 1:
            SymbolShiftOracle.__init__(self, a, b, k, ell, counters)
            self.views = None
            return
        if len(a) != n:
            raise ValueError("equal lengths required")
        self.n, self.k, self.ell = n, k, ell
        self.counters = counters if counters is not None else OpCounters()
        self.last_hint = None
        r = math.isqrt(k - 1) + 1  # ceil(sqrt(k))
        if ell < r:
            raise ValueError("granularity below sqrt(k) is unsupported "
                             "below sampling rate 1")
        q = -(-(reach + ell) // r)
        self.r, self.q = r, q
        self.samples = draw_sample(n, ell, cfg.sampling_rng())
        # view rows: A views ac = -q..q, then B views bo = 0..r-1
        self.views = ViewStack(self.samples,
                               [(a, range(-q * r, q * r + 1, r)),
                                (b, range(0, -r, -1))], cfg, self.counters)
        self.b_cols = range(2 * q + 1, 2 * q + 1 + r)

    def __call__(self, i_a: int, i_b: int) -> int:
        if self.views is None:
            return SymbolShiftOracle.__call__(self, i_a, i_b)
        self.counters.oracle_queries += 1
        ell, r, q = self.ell, self.r, self.q
        delta = i_a - i_b
        # the A views whose shifts meet offset delta with |c| <= l
        a_lo = max((delta - ell) // r, -q) + q
        a_end = min(-((-delta - ell) // r), q) + q + 1
        hi = self.n - i_b + 1
        lo = min(2 * ell, hi)
        step, hit, galloping = 1, None, True
        while lo < hi:
            d = min(lo + step, hi) if galloping else (lo + hi + 1) // 2
            # every view reads base window [i_b + l, i_b + d - l - 1]
            got = self.views.first_collision(i_b + ell, i_b + d - ell - 1,
                                             range(a_lo, a_end), self.b_cols)
            if got is None:
                hi, galloping = d - 1, False
            else:
                # views before the hit missed a shorter window, so they
                # miss every longer one too
                lo, hit, a_lo = d, got, got[0]
                step += step
        self.last_hint = 0
        if hit is not None:
            a_col, b_col = hit
            self.last_hint = (a_col - q) * r + (b_col - 2 * q - 1) - delta
        return lo


class BruteForceShiftOracle:
    """Exact shift-alignment oracle that scans every shift to the end of
    the string: the referee that tests check the other oracles against."""

    def __init__(self, a: ByteString, b: ByteString, k: int, ell: int):
        self.a, self.b, self.k, self.ell = a, b, k, ell

    def __call__(self, i_a: int, i_b: int) -> int:
        return max_shift_alignment_bruteforce(self.a, self.b, i_a, i_b,
                                              self.ell, self.k)


def gap_wave(a: ByteString, b: ByteString, k: int, ell: int, mode: str,
             seed=None, table: WaveTable | None = None):
    """Decide the k versus 10 k l gap. Returns (verdict, query counters).

    Modes: "noprep" builds its oracle per pair (hashed views of a sample,
    or at sampling rate 1 the symbol comparison); "onesided" preprocesses
    A into the wave index for this l (at sampling rate 1 A itself, searched
    by the symbol comparison); "twosided" preprocesses A into the exact
    `TwoSidedIndex` and asks it for each call's shift window; "exact"
    compares symbols (`SymbolShiftOracle`), as noprep and onesided do at
    sampling rate 1. Where an indexed mode hashes B, it does so once, on
    the query counters, as `gap_match` does. The seed picks the hash draw
    of the modes that hash.
    """
    check_gap_params(a, b, k, ell)
    cfg = HashConfig.from_seed(seed)
    query_counters = OpCounters()
    if mode == "exact":
        oracle = SymbolShiftOracle(a, b, k, ell, query_counters)
    elif mode == "noprep":
        oracle = NoPrepShiftOracle(a, b, k, ell, cfg, query_counters)
    elif mode == "onesided":
        index = OneSidedWaveIndex.preprocess(a, k, ell, cfg)
        index.counters = query_counters
        oracle = IndexedShiftOracle(index, b, query_counters)
    elif mode == "twosided":
        index = TwoSidedIndex.preprocess(a, k, cfg)
        index.counters = query_counters
        oracle = TwoSidedShiftOracle(index, b, ell, query_counters)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    verdict = greedy_wave(a, b, k, ell, oracle, table=table)
    return verdict, query_counters
