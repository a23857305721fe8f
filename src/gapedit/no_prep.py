"""Alignment oracle without preprocessing, via a birthday split of shifts.

Every candidate shift c in [-k, k] factors as c = a * r + b with
r = ceil(sqrt(k)), |a| <= r and 0 <= b < r. Instead of hashing one range
per shift (2k + 1 states), we keep 2r + 1 shifted views of A and r shifted
views of B over one shared sample set; a shift-c alignment shows up as a
hash collision between the view pair (a, b). All views reuse the same base
positions, so both sides of any probe compare exactly the same sampled
offsets.

Probed ranges are shaved by k on both ends, which keeps every candidate
window inside the strings for every shift; matches are therefore reported
up to an edit slack proportional to k rather than exactly.

Cost model: the 3r + 1 views share one sample of rate min(4 ln n / k, 1).
Below rate 1 (k > 4 ln n), building a view folds each sampled position
once, so construction takes (3r + 1) * |S| folds, about
12 n ln n / sqrt(k): the n / sqrt(k) law up to its log factor. A probe
window lands on the same pair of prefix rows in every view, so a probe is
one locate (two binary searches) plus reads of those two rows of a
ViewStack, then at most 3r + 1 modular combinations. Once the rate
saturates at 1 (k <= 4 ln n) the views differ only by their offset, and
A and B are each folded once over n + 2P positions, padded with the
sentinel by P = min(r^2, n) on both sides: 2(n + 2P) folds, linear in n. A probe
then reads each view's two rows at its own offset, without a locate
(`hashing.PaddedViews`). Either way each probe adds at most 3r + 1 range
retrievals, the same count as when each view was searched on its own.
"""

from __future__ import annotations

import math

from .hashing import (HashConfig, OpCounters, draw_sample, sample_rate,
                      shifted_views)
from .strings import ByteString


class NoPrepOracle:
    """Longest-alignment oracle built per query pair, sublinear in n."""

    def __init__(self, a: ByteString, b: ByteString, k: int, cfg: HashConfig,
                 counters: OpCounters | None = None):
        n = len(b)
        if len(a) != n:
            raise ValueError("equal lengths required")
        self.n = n
        self.k = k
        self.r = math.isqrt(k)
        if self.r * self.r < k:
            self.r += 1
        self.counters = counters if counters is not None else OpCounters()
        # at rate 1 the draw takes every position and needs no generator
        rng = cfg.sampling_rng() if sample_rate(n, k) < 1 else None
        self.samples = draw_sample(n, k, rng)
        r = self.r
        # columns: A views a = -r..r, then B views b_off = 0..r-1
        self.views = shifted_views(
            a, b, self.samples, [a_coef * r for a_coef in range(-r, r + 1)],
            [-b_off for b_off in range(r)], cfg, self.counters)
        self.a_cols = range(2 * r + 1)
        self.b_cols = range(2 * r + 1, 3 * r + 1)
        self.last_hint = None

    def _probe(self, i_b: int, d: int) -> tuple[bool, int | None]:
        """Do the k-shaved sampled windows agree for some shift pair?"""
        k, r = self.k, self.r
        lo = i_b + k
        hi = i_b + d - k - 1
        if hi < lo:
            return True, None
        # every view reads base window [lo, hi] at its own offset
        hit = self.views.first_collision(lo, hi, self.a_cols, self.b_cols)
        if hit is None:
            return False, None
        a_col, b_col = hit
        return True, (a_col - r) * r + (b_col - 2 * r - 1)

    def max_align(self, i_b: int) -> int:
        """Largest probed window length that still collides; at least
        min(2k, remaining length) because fully shaved windows are empty."""
        n, k = self.n, self.k
        lo = min(2 * k, n - i_b + 1)
        hi = n - i_b + 1
        self.last_hint = 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            ok, hint = self._probe(i_b, mid)
            if ok:
                lo = mid
                if hint is not None:
                    self.last_hint = hint
            else:
                hi = mid - 1
        return lo

    def __call__(self, i_b: int) -> int:
        self.counters.oracle_queries += 1
        return self.max_align(i_b)
