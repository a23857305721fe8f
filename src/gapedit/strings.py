"""Strings over a small integer alphabet plus exact edit-distance oracles.

Symbols are 1..sigma; positions are 1-based. Reads outside [1, n] return the
sentinel value sigma + 1, which never equals any in-range symbol on either
string, so shifted comparisons near the boundaries behave like comparisons
against fresh characters.

The exact oracles here (Myers' bit-vector DP, a diagonal-transition
threshold check, a quadratic referee, and an h-wave variant) serve both the
public `exact` entry points and the test suite's independent ground truth.
`edit_distance_exact` is Myers: a full distance has no threshold to bound
a band of diagonals. `edit_distance_at_most` picks Landau-Vishkin diagonal
transition (t + 1 rounds over the band of diagonals a path of cost <= t
can touch, each slide a comparison of `symbol_words`) where a measured
cost model says it wins, which is small t next to n, and Myers with its
diagonal cutoff elsewhere (`_use_diagonal`).
`decompose` reads one optimal alignment, walked once from a quadratic DP
(`_alignment`). `max_shift_alignment_bruteforce` is the brute-force shift
oracle that the tests check every shift oracle against, exact mode's
(`two_sided.SymbolShiftOracle`) included: the wave asks at (i_a, i_b) and
l, greedy at i_a = i_b and l = k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ByteString:
    """Immutable 1-based string of symbols in 1..sigma."""

    data: np.ndarray  # int64, values in 1..sigma
    sigma: int

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.int64)
        object.__setattr__(self, "data", d)
        if d.size and (d.min() < 1 or d.max() > self.sigma):
            raise ValueError("symbol out of range 1..sigma")

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def sentinel(self) -> int:
        return self.sigma + 1

    def at(self, i: int) -> int:
        """Symbol at 1-based position i; sentinel outside [1, n]."""
        if 1 <= i <= len(self):
            return int(self.data[i - 1])
        return self.sentinel

    def window(self, i: int, j: int) -> np.ndarray:
        """Symbols at positions i..j inclusive, sentinel-padded out of range."""
        if j < i:
            return np.empty(0, dtype=np.int64)
        out = np.full(j - i + 1, self.sentinel, dtype=np.int64)
        lo = max(i, 1)
        hi = min(j, len(self))
        if hi >= lo:
            out[lo - i : hi - i + 1] = self.data[lo - 1 : hi]
        return out

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Symbols at an array of 1-based positions, sentinel out of range."""
        idx = np.asarray(idx, dtype=np.int64)
        n = len(self)
        if n == 0 or idx.size == 0:
            return np.full(idx.shape, self.sentinel, dtype=np.int64)
        out = self.data.take(idx - 1, mode="clip")
        if idx.min() < 1:
            out[idx < 1] = self.sentinel
        if idx.max() > n:
            out[idx > n] = self.sentinel
        return out

    @classmethod
    def from_bytes(cls, raw: bytes, sigma: int) -> "ByteString":
        d = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) + 1
        return cls(d, sigma)

    def to_bytes(self) -> bytes:
        """One byte per symbol (symbol - 1); a symbol above 256 does not fit
        and raises ValueError."""
        if self.data.size and self.data.max() > 256:
            raise ValueError("symbols above 256 do not fit in one byte")
        return (self.data - 1).astype(np.uint8).tobytes()


def edit_distance_quadratic(a: ByteString, b: ByteString) -> int:
    """Textbook full-table edit distance. Slow referee for tests."""
    xs, ys = a.data.tolist(), b.data.tolist()
    m = len(ys)
    prev = list(range(m + 1))
    for i, ai in enumerate(xs, 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cost = 0 if ai == ys[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[m]


def _myers_ed(a: np.ndarray, b: np.ndarray, cutoff: int | None = None) -> int:
    """Levenshtein distance by Myers' bit-vector DP (Hyyrö's global form).

    The shorter string is the bit rows: Pv / Mv hold the +1 / -1 vertical
    deltas of one DP column, and each symbol of the other string advances
    one column. A cell is its column's row-0 value (the column index) plus
    the deltas above it, so the distance is read off the last column. With
    a cutoff t the scan stops and returns t + 1 once the cell on the end
    cell's diagonal exceeds t; DP values never decrease along a diagonal,
    so the distance then exceeds t too.
    """
    if a.size > b.size:
        a, b = b, a
    m, n = a.size, b.size
    if m == 0:
        return n
    peq = {c: int.from_bytes(np.packbits(a == c, bitorder="little").tobytes(),
                             "little")
           for c in set(a.tolist())}
    mask = (1 << m) - 1
    pv, mv = mask, 0
    lag = n - m  # column j meets the end cell's diagonal at row j - lag
    for j, c in enumerate(b.tolist(), 1):
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask ^ (xh | pv))
        mh = pv & xh
        ph = ((ph << 1) | 1) & mask  # row 0 grows by one per column
        mh = (mh << 1) & mask
        pv = mh | (mask ^ (xv | ph))
        mv = ph & xv
        if cutoff is not None and j >= lag:
            above = (1 << (j - lag)) - 1
            if j + (pv & above).bit_count() - (mv & above).bit_count() \
                    > cutoff:
                return cutoff + 1
    return n + pv.bit_count() - mv.bit_count()


# Route cost model for edit_distance_at_most, in microseconds of CPU time
# on a close pair, fitted on a 2-core x86-64 machine (CPython 3.11, numpy
# 2.4). With w = t + 1 diagonals and N >= M the two lengths:
#   diagonal check: 12 + 3.2 w + 0.135 w^2 + 0.0016 N
#                   (set-up, per round, per slide of about w^2 / 2, per
#                   symbol encoded and compared)
#   Myers scan:     30 + N (0.95 + 0.019 ceil(M / 64))
#                   (set-up, per column, per 64-bit word of a column)
# The fit is off by up to 50% (high at small n, low at large n), so the
# diagonal check runs only where its estimate is below 0.6 of Myers':
# where the two are close, Myers keeps the work.


def _use_diagonal(n: int, m: int, t: int) -> bool:
    """Whether edit_distance_at_most answers ed <= t for lengths n and m
    by the diagonal check rather than by Myers' scan."""
    w = t + 1
    big, small = max(n, m), min(n, m)
    diagonal = 12 + 3.2 * w + 0.135 * w * w + 0.0016 * big
    myers = 30 + big * (0.95 + 0.019 * -(-small // 64))
    return diagonal < 0.6 * myers


def symbol_words(a: ByteString,
                 b: ByteString) -> tuple[int, bytes, memoryview]:
    """The width of the narrowest word that holds every symbol of both
    strings (1 byte for sigma <= 255, else 2, 4 or 8), then A's and B's
    symbols at that width: A as `bytes` to search in, B as a `memoryview`
    to slice probes from without a copy."""
    word = np.min_scalar_type(min(max(a.sigma, b.sigma), 1 << 63))
    return (word.itemsize, a.data.astype(word).tobytes(),
            memoryview(b.data.astype(word).tobytes()))


def _extension(a_words: bytes, b_words: memoryview, width: int, i: int,
               j: int, most: int) -> int:
    """The longest d <= most with A's words i .. i + d - 1 equal to B's
    words j .. j + d - 1: probes d = 2, 4, 8, ... up to the first miss (hi
    is still most), then bisects, each probe one `startswith` over the
    words past the last one matched."""
    lo, hi, d = 0, most, min(2, most)
    while lo < hi:
        if a_words.startswith(b_words[(j + lo) * width:(j + d) * width],
                              (i + lo) * width):
            lo = d
        else:
            hi = d - 1
        d = min(2 * lo, hi) if hi == most else (lo + hi + 1) // 2
    return lo


def _diagonal_at_most(a: ByteString, b: ByteString, t: int) -> bool:
    """ed(a, b) <= t by diagonal transition (Ukkonen 1985; Landau & Vishkin
    1989); False at once for t < |len(a) - len(b)|, so for every t < 0.

    D[i][j] is the distance of a[:i] and b[:j], and diagonal k holds the
    cells (i, i + k). Round e keeps, per diagonal, the furthest row i with
    D[i][i + k] <= e: the best of a substitution, a deletion and an
    insertion from round e - 1, then slid along its run of matches. A path
    of cost <= t reaches diagonal k after at least |k| edits and needs
    |k - (m - n)| more to end, so round e touches only the diagonals where
    both fit, and the check makes about (t + 1)^2 / 2 slides whatever n is.
    That budget covers the |k - (m - n)| edits from the last row of
    diagonal k too, so a row that reaches it (all of a or b read) is True. A
    slide tests its first symbol's low byte, which ends most slides off
    the alignment's path, then runs `_extension` over the `symbol_words`."""
    n, m = len(a), len(b)
    delta = m - n
    if t < abs(delta):
        return False
    w, a_words, b_words = symbol_words(a, b)
    klo = max(-((t - delta) // 2), -n)
    khi = min((t + delta) // 2, m)
    fr = [-n - 2] * (khi - klo + 3)  # diagonal k at k - klo + 1
    fr[1 - klo] = -1  # round 0 starts at row 0 of diagonal 0
    for e in range(t + 1):
        q0 = max(-e, delta - t + e, klo) - klo + 1
        q1 = min(e, delta + t - e, khi) - klo + 1
        left = fr[q0 - 1]  # round e - 1's row on the diagonal below
        for q in range(q0, q1 + 1):
            here, right = fr[q], fr[q + 1]
            row = (here if here > right else right) + 1
            if left > row:
                row = left
            left, k = here, q + klo - 1
            end = m - k if m - k < n else n
            if row < end and a_words[row * w] == b_words[(row + k) * w]:
                row += _extension(a_words, b_words, w, row, row + k, end - row)
            if row >= end:
                return True
            fr[q] = row
    return False


def edit_distance_exact(a: ByteString, b: ByteString) -> int:
    """Exact edit distance by Myers' bit-vector DP."""
    return _myers_ed(a.data, b.data)


def edit_distance_at_most(a: ByteString, b: ByteString, t: int) -> bool:
    """True iff edit distance <= t, by the diagonal check where the cost
    model picks it and otherwise by the bit-vector scan, which stops once
    the end cell's diagonal exceeds t."""
    if t < 0 or abs(len(a) - len(b)) > t:
        return False
    if t >= max(len(a), len(b)):
        return True
    if _use_diagonal(len(a), len(b), t):
        return _diagonal_at_most(a, b, t)
    return _myers_ed(a.data, b.data, t) <= t


def exact_hwave(a: ByteString, b: ByteString, k: int) -> bool:
    """Wave formulation of the <= k decision: h[i][j] is the largest prefix
    of a alignable to a prefix of b with i edits ending on diagonal j
    (positions in b lead a by j). True iff h[k][0] >= n when |a| == |b|.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("equal lengths required")

    def slide(h: int, j: int) -> int:
        # extend the run of matches from a-position h+1, b-position h+j+1
        while h < n and 1 <= h + j + 1 <= n and a.at(h + 1) == b.at(h + j + 1):
            h += 1
        return h

    neg = -(10 * n + 10)
    prev = {0: slide(0, 0)}
    for _ in range(k):
        cur = {}
        for j in range(-k, k + 1):
            best = neg
            # sub from same diagonal, ins from j-1 (a-prefix unchanged),
            # del from j+1 (a advances without b)
            for dj, cost in ((0, 1), (-1, 0), (1, 1)):
                src = prev.get(j + dj, neg)
                if src < 0:
                    continue
                best = max(best, src + cost)
            if best < 0:
                continue
            best = min(best, n)
            cur[j] = slide(best, j) if best < n else n
        prev = cur
    return prev.get(0, neg) >= n


def _alignment(a: ByteString, b: ByteString) -> list[tuple[str, int, int]]:
    """One optimal alignment of a and b, as steps (kind, i, j) in forward
    order, where i and j count the symbols of a and b consumed once the
    step is taken: "match" and "sub" pair a[i] with b[j], "del" drops a[i]
    and "ins" puts b[j] after a[i]. The traceback prefers the diagonal,
    then a deletion, then an insertion."""
    n, m = len(a), len(b)
    dp = np.zeros((n + 1, m + 1), dtype=np.int64)
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    cols = np.arange(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        cost = (b.data != a.at(i)).astype(np.int64)
        cand = np.minimum(dp[i - 1, 1:] + 1, dp[i - 1, :-1] + cost)
        # fold in the left-neighbor (+1 per step) dependency with a
        # running minimum of cand[j] - j
        head = np.concatenate(([dp[i, 0]], cand))
        dp[i] = np.minimum(head,
                           np.minimum.accumulate(head - cols) + cols)
    steps = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + (a.at(i) != b.at(j)):
            steps.append(("match" if a.at(i) == b.at(j) else "sub", i, j))
            i -= 1
            j -= 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            steps.append(("del", i, j))
            i -= 1
        else:
            steps.append(("ins", i, j))
            j -= 1
    steps.reverse()
    return steps


def decompose(a: ByteString, b: ByteString) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split a and b into matched interval lists along one optimal
    alignment: each run of matches is one untouched pair (equal
    substrings) and each edit is one piece. Returns (a_intervals,
    b_intervals) of equal length, where the t-th intervals correspond;
    intervals are (start, end) 1-based inclusive, end = start - 1 for an
    empty piece. With e edits, at most 2e + 1 pairs.
    """
    a_iv, b_iv = [], []
    i0 = j0 = 1  # where the open run of matches starts
    for kind, i, j in _alignment(a, b):
        if kind == "match":
            continue
        di, dj = int(kind != "ins"), int(kind != "del")
        if i - di >= i0:
            a_iv.append((i0, i - di))
            b_iv.append((j0, j - dj))
        a_iv.append((i - di + 1, i))
        b_iv.append((j - dj + 1, j))
        i0, j0 = i + 1, j + 1
    if len(a) >= i0:
        a_iv.append((i0, len(a)))
        b_iv.append((j0, len(b)))
    return a_iv, b_iv


def check_decomposition(a: ByteString, b: ByteString,
                        a_iv: list[tuple[int, int]], b_iv: list[tuple[int, int]]) -> bool:
    """Validate: intervals partition both strings in order, corresponding
    pieces have edit distance <= 1, and untouched pieces are equal."""
    if len(a_iv) != len(b_iv):
        return False

    def covers(iv, n):
        pos = 1
        for s, e in iv:
            if s != pos:
                return False
            if e >= s:
                pos = e + 1
        return pos == n + 1

    if not covers(a_iv, len(a)) or not covers(b_iv, len(b)):
        return False
    total = 0
    for (sa, ea), (sb, eb) in zip(a_iv, b_iv):
        pa = a.window(sa, ea) if ea >= sa else np.empty(0, dtype=np.int64)
        pb = b.window(sb, eb) if eb >= sb else np.empty(0, dtype=np.int64)
        if pa.size == pb.size and pa.size and np.array_equal(pa, pb):
            continue
        xa = ByteString(pa, max(a.sigma, b.sigma))
        xb = ByteString(pb, max(a.sigma, b.sigma))
        d = edit_distance_exact(xa, xb)
        if d > 1:
            return False
        total += d
    return total <= edit_distance_exact(a, b)


def max_shift_alignment_bruteforce(a: ByteString, b: ByteString, i_a: int, i_b: int,
                                   ell: int, k: int) -> int:
    """Largest d such that B[i_b .. i_b+d-1] matches A[i_a+c .. i_a+c+d-1]
    exactly for some |c| <= ell, with the additional promise-window
    constraint |i_a + c - i_b| <= k; 0 if none."""
    n = len(b)
    best = 0
    max_d = n - i_b + 1
    if max_d <= 0:
        return 0
    bw = b.window(i_b, i_b + max_d - 1)
    for c in range(-ell, ell + 1):
        if abs(i_a + c - i_b) > k:
            continue
        aw = a.window(i_a + c, i_a + c + max_d - 1)
        neq = np.nonzero(aw != bw)[0]
        d = max_d if neq.size == 0 else int(neq[0])
        best = max(best, d)
    return best


def has_approximate_alignment(a: ByteString, b: ByteString, i_b: int, d: int,
                              max_shift: int, ed_bound: int,
                              hint: int | None = None) -> bool:
    """Check the relaxed alignment guarantee behind a reported value d:
    some shift |c| <= max_shift gives edit distance <= ed_bound between
    B[i_b .. i_b+d-1] and A[i_b+c .. i_b+c+d-1]."""
    if d <= ed_bound:
        return True
    sigma = max(a.sigma, b.sigma)
    bw = ByteString(b.window(i_b, i_b + d - 1), sigma + 1)

    def ok(c: int) -> bool:
        aw = ByteString(a.window(i_b + c, i_b + c + d - 1), sigma + 1)
        return edit_distance_at_most(aw, bw, ed_bound)

    if hint is not None and abs(hint) <= max_shift and ok(hint):
        return True
    for c in range(-max_shift, max_shift + 1):
        if c == hint:
            continue
        if ok(c):
            return True
    return False
