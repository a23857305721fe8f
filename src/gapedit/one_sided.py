"""Gap decision with only A preprocessed.

The index stores, for every window length 2^e, the sampled-window hashes of
A under every shift |a| <= k, recorded at canonical start positions: one
past each sampled position, and each position whose window ends exactly on
a sampled position. A query hashes B over the same sample set and scans
window lengths downward by powers of two until some length's hash appears
in the table near the query column.

Columns bucket start positions by floor(i / k); every multiple of k is
forced into the sample set, so a query position and its canonical table
positions always land within one column of each other. Each entry is filed
under its own column and both neighbors, and the query probes a single
column.

When the sampling rate saturates at 1 the sampled hash of a window is just
the hash of the full substring, and the table collapses to one sorted
(hash, start) array per window length with membership answered by a range
check on starts. That dense layout answers exactly the same membership
queries as the general table and is used automatically.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .hashing import (HashConfig, OpCounters, RollingHashState, SampleSet,
                      draw_sample, sample_rate)
from .strings import ByteString

MAGIC_1S = b"GEDT1S"
FORMAT_VERSION = 1
_HEAD = struct.Struct("<QQIIQ")  # p, x, k, n, sample count
_CELL = struct.Struct("<III")  # exponent, column, cell size


def anchor_positions(n: int, k: int) -> np.ndarray:
    """Every multiple of k in [1, n], plus n - 1."""
    anchors = np.arange(k, n + 1, k, dtype=np.int64)
    if n >= 2:
        anchors = np.union1d(anchors, np.asarray([n - 1], dtype=np.int64))
    return anchors


class OneSidedIndex:
    def __init__(self, n: int, k: int, cfg: HashConfig, samples: SampleSet,
                 tables: dict | None = None, dense: list | None = None,
                 counters: OpCounters | None = None):
        self.n = n
        self.k = k
        self.cfg = cfg
        self.samples = samples
        self.tables = tables  # (e, col) -> sorted uint64 hash array
        self.dense = dense  # per e: (hash-sorted hashes, starts) pair
        self.counters = counters if counters is not None else OpCounters()
        self.num_cols = -(-n // k)
        self.exponents = max(n, 1).bit_length() - 1

    @classmethod
    def preprocess(cls, a: ByteString, k: int, cfg: HashConfig,
                   force_general: bool = False) -> "OneSidedIndex":
        n = len(a)
        counters = OpCounters()
        rng = cfg.sampling_rng()
        samples = draw_sample(n, k, rng, force_anchors=anchor_positions(n, k))
        idx = cls(n, k, cfg, samples, counters=counters)
        if samples.rate >= 1.0 and not force_general:
            idx._build_dense(a)
        else:
            idx._build_tables(a)
        return idx

    def _canonical_starts(self, e: int) -> np.ndarray:
        """Window starts recorded for length 2^e."""
        s = self.samples.indices
        starts = np.union1d(s + 1, s - (1 << e) + 1)
        return starts[(starts >= 2 - (1 << e)) & (starts <= self.n + 1)]

    def _build_tables(self, a: ByteString) -> None:
        k, n = self.k, self.n
        states = {
            sh: RollingHashState(a, self.samples.shift(sh), self.cfg,
                                 self.counters)
            for sh in range(-k, k + 1)
        }
        tables: dict = {}
        for e in range(self.exponents + 1):
            w = 1 << e
            starts = self._canonical_starts(e)
            all_h = []
            all_col = []
            for sh, st in states.items():
                ok = (starts + sh >= 1) & (starts + sh + w - 1 <= n)
                i_ok = starts[ok]
                if not i_ok.size:
                    continue
                h = st.retrieve_many(i_ok + sh, i_ok + sh + w - 1)
                col = i_ok // k
                for dc in (-1, 0, 1):
                    c = col + dc
                    keep = (c >= 0) & (c < self.num_cols)
                    all_h.append(h[keep])
                    all_col.append(c[keep])
            if not all_h:
                continue
            h = np.concatenate(all_h)
            col = np.concatenate(all_col)
            order = np.lexsort((h, col))
            h = h[order]
            col = col[order]
            bounds = np.searchsorted(col, np.arange(self.num_cols + 1))
            for c in range(self.num_cols):
                lo, hi = bounds[c], bounds[c + 1]
                if hi > lo:
                    tables[(e, c)] = np.unique(h[lo:hi])
        self.tables = tables

    def _build_dense(self, a: ByteString) -> None:
        # rate 1: sampled hashes are plain substring hashes, so store one
        # (hash, start) array per window length instead of per-shift cells
        state = RollingHashState(a, self.samples, self.cfg, self.counters)
        dense = []
        for e in range(self.exponents + 1):
            w = 1 << e
            u = np.arange(1, self.n - w + 2, dtype=np.int64)
            h = state.retrieve_many(u, u + w - 1)
            order = np.lexsort((u, h))
            dense.append((h[order], u[order]))
        self.dense = dense

    def member(self, e: int, col: int, h: int) -> bool:
        self.counters.table_lookups += 1
        if self.dense is not None:
            return self._member_dense(e, col, h)
        cell = self.tables.get((e, col))
        if cell is None:
            return False
        pos = int(np.searchsorted(cell, np.uint64(h)))
        return pos < cell.size and int(cell[pos]) == h

    def _member_dense(self, e: int, col: int, h: int) -> bool:
        if not (0 <= col < self.num_cols) or e >= len(self.dense):
            return False
        k, w = self.k, 1 << e
        # starts filed under this column span three column widths
        i_lo = max((col - 1) * k, 2 - w)
        i_hi = min((col + 2) * k - 1, self.n + 1)
        if i_hi < i_lo:
            return False
        u_lo = max(i_lo - k, 1)
        u_hi = min(i_hi + k, self.n - w + 1)
        if u_hi < u_lo:
            return False
        hs, us = self.dense[e]
        left = int(np.searchsorted(hs, np.uint64(h), side="left"))
        right = int(np.searchsorted(hs, np.uint64(h), side="right"))
        if right <= left:
            return False
        seg = us[left:right]
        a = int(np.searchsorted(seg, u_lo, side="left"))
        return a < seg.size and int(seg[a]) <= u_hi

    def _cells_for_save(self, a: ByteString | None = None) -> dict:
        if self.tables is not None:
            return self.tables
        # dense layout: reconstruct the per-column cells it stands for
        cells: dict = {}
        k = self.k
        for e, (hs, us) in enumerate(self.dense):
            w = 1 << e
            i_lo_all = 2 - w
            i_hi_all = self.n + 1
            order = np.argsort(us, kind="stable")
            uu = us[order]
            hh = hs[order]
            for c in range(self.num_cols):
                i_lo = max((c - 1) * k, i_lo_all)
                i_hi = min((c + 2) * k - 1, i_hi_all)
                u_lo = max(i_lo - k, 1)
                u_hi = min(i_hi + k, self.n - w + 1)
                if u_hi < u_lo:
                    continue
                lo = np.searchsorted(uu, u_lo, side="left")
                hi = np.searchsorted(uu, u_hi, side="right")
                if hi > lo:
                    cells[(e, c)] = np.unique(hh[lo:hi])
        return cells

    def save(self, path) -> None:
        cells = self._cells_for_save()
        with open(path, "wb") as f:
            f.write(MAGIC_1S)
            f.write(struct.pack("<B", FORMAT_VERSION))
            s = self.samples.indices
            f.write(_HEAD.pack(self.cfg.p, self.cfg.x, self.k, self.n, s.size))
            f.write(s.astype(np.int64).tobytes())
            f.write(struct.pack("<Q", len(cells)))
            for (e, c), cell in sorted(cells.items()):
                f.write(_CELL.pack(e, c, cell.size))
                f.write(np.ascontiguousarray(cell, dtype=np.uint64).tobytes())

    @classmethod
    def load(cls, path) -> "OneSidedIndex":
        """Read an index written by `save`. A file of the wrong kind or
        version raises ValueError, and so does one of the wrong length: the
        length is checked before every read, and trailing bytes are refused."""
        with open(path, "rb") as f:
            raw = f.read()
        size = len(raw)

        def short(what: str, need: int) -> ValueError:
            return ValueError(f"truncated index file: {what} needs {need} "
                              f"bytes, file has {size}")

        off = len(MAGIC_1S)
        if size < off + 1:
            raise short("magic and version", off + 1)
        if raw[:off] != MAGIC_1S:
            raise ValueError("not a one-sided index file")
        version = raw[off]
        off += 1
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported index version {version}")
        if size < off + _HEAD.size:
            raise short("header", off + _HEAD.size)
        p, x, k, n, ns = _HEAD.unpack_from(raw, off)
        off += _HEAD.size
        if size < off + 8 * ns + 8:
            raise short("samples and cell count", off + 8 * ns + 8)
        s = np.frombuffer(raw, dtype=np.int64, count=ns, offset=off).copy()
        off += 8 * ns
        samples = SampleSet(s, int(n), sample_rate(int(n), int(k)))
        (ncells,) = struct.unpack_from("<Q", raw, off)
        off += 8
        tables = {}
        for _ in range(ncells):
            if size < off + _CELL.size:
                raise short("cell header", off + _CELL.size)
            e, c, cnt = _CELL.unpack_from(raw, off)
            off += _CELL.size
            if size < off + 8 * cnt:
                raise short("cell", off + 8 * cnt)
            tables[(e, c)] = np.frombuffer(raw, dtype=np.uint64, count=cnt,
                                           offset=off).copy()
            off += 8 * cnt
        if off != size:
            raise ValueError(f"index file has {size} bytes, expected {off}")
        return cls(int(n), int(k), HashConfig(x=int(x), p=int(p)), samples,
                   tables=tables)


def one_sided_process_b(index: OneSidedIndex, b: ByteString,
                        counters: OpCounters | None = None) -> RollingHashState:
    """Hash B over the index's sample set; this is the whole per-query
    pass over B, so its cost is the sample size, not n."""
    return RollingHashState(b, index.samples, index.cfg,
                            counters if counters is not None else index.counters)


def one_sided_max_align(index: OneSidedIndex, b_state: RollingHashState,
                        i_b: int) -> int:
    """Binary expansion of the alignment length: scan window lengths by
    descending powers of two, and on each table hit advance past the
    matched window and keep scanning shorter ones. An exact alignment of
    length d is fully covered because every window inside it hits."""
    remaining = index.n - i_b + 1
    if remaining <= 0:
        return 0
    cur = i_b
    for e in range(remaining.bit_length() - 1, -1, -1):
        d = 1 << e
        if cur + d - 1 > index.n:
            continue
        h = b_state.retrieve(cur, cur + d - 1)
        col = min(cur // index.k, index.num_cols - 1)
        if index.member(e, col, h):
            cur += d
    return cur - i_b


class OneSidedOracle:
    def __init__(self, index: OneSidedIndex, b: ByteString,
                 counters: OpCounters | None = None):
        self.index = index
        self.counters = counters if counters is not None else OpCounters()
        self.b_state = one_sided_process_b(index, b, self.counters)
        self.last_hint = None

    def __call__(self, i_b: int) -> int:
        self.counters.oracle_queries += 1
        return one_sided_max_align(self.index, self.b_state, i_b)
