"""Gap decision with only A preprocessed: one A-index for both deciders.

The index samples A at rate min(4 ln n / l, 1), l its column width. At
rate 1 a query reads all of B anyway, so the index keeps A itself (`a`),
and the oracles are `two_sided.SymbolShiftOracle` over A and B: exact mode's
search, exact for every hash draw, with hints, and folding no symbol of B.

Below rate 1 the index stores, for every window length 2^e, the
sampled-window hashes of A under every shift |a| <= k, recorded at
canonical start positions: one past each sampled position, and each
position whose window ends exactly on a sampled position. A query hashes
B over the same sample set and scans window lengths downward by powers of
two until some length's hash appears in the table near the query's column
and shift bucket.

Columns bucket start positions by floor(i / l) and shift buckets bucket
shifts by floor(a / l); every multiple of l is forced into the sample set,
so a query position and its canonical table positions always land within
one column of each other. Each entry is filed under its own column and
both neighbors, and under its own shift bucket and both neighbors, as far
as the index keeps them; a query probes a single (column, bucket) cell.

The greedy decider is the wave decider's oracle problem at i_a = i_b and
l = k. Its index (`OneSidedIndex.preprocess`) has column width k and keeps
bucket 0 only, under which every shift in [-k, k] is filed. The wave index
(`OneSidedWaveIndex.preprocess`) has column width l and keeps every bucket
a promised offset |i_a - i_b| <= k can ask for. One oracle class,
`IndexedShiftOracle`, answers `oracle(i_a, i_b)` over either index, and
the greedy decider asks it at (i_b, i_b); `OneSidedOracle` is that class
under a name of its own, for the greedy index. Below rate 1 the oracle
records the index's shift buckets, and the wave refuses one that lacks a
bucket its diagonals probe, such as the greedy index's.

Below rate 1 the tables are built in a few numpy passes per window length.
The 2k + 1 shifted views of A share one sample set, so a canonical start's
window lands on the same pair of prefix positions (l, h) in every view.
The views' prefix sums G are summed straight into one matrix
(`hashing.ViewStack`), in blocks of about 2^12 symbols with no state per
view, and the hash of every (start, shift) pair, x^h (G[h] - G[l]), comes
from one locate, one subtraction and one multiply per entry: the same
hashes a state per view would give. The
entries are sorted by hash once, before the fan-out; each is then copied to
its up to 3 (greedy) or 9 (wave) cell keys, one stable sort on the narrow
key array (a radix sort while the keys fit in int16) orders the copies by
(key, hash), and one diff mask drops the duplicates.

A query there probes one B window at a time (`max_shift_align`). B's
window hash comes from `RollingHashState.retrieve`, which reads Python
lists located with `bisect`. `member` boxes the hash once and makes one
`searchsorted` method call on the cell. The oracles report no hint.

File format, version 2, little-endian, every section 8-byte aligned:

    magic  b"GEDT1S"
    head   version u8, layout u8 (0 general: the tables; 3 symbols: rate 1;
           1 and 2 are retired and refused), p, x, n, k, l, first and
           one-past-last shift bucket, sample count, key count and hash
           count (u64 each, buckets i64; the symbols layout counts its n
           symbols as hashes)
    int64  sample positions (general layout)
    int64  keys: one (exponent, column, bucket, count) row per cell (general)
    uint64 the hashes of every key, in key order (general layout)
    int64  A's symbols (symbols layout), from which `load` rebuilds the index
    u32    zlib.crc32 of everything after the magic
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .greedy import check_index_params
from .hashing import (HashConfig, OpCounters, RollingHashState, ViewStack,
                      draw_sample, sample_rate)
from .mers61 import P61
from .strings import ByteString
from .two_sided import SymbolShiftOracle, full_sample

MAGIC_1S = b"GEDT1S"
FORMAT_VERSION = 2
_HEAD = struct.Struct("<BBQQQQQqqQQQ")
_CRC = struct.Struct("<I")
_LAYOUT_GENERAL, _LAYOUT_RETIRED, _LAYOUT_SYMBOLS = 0, (1, 2), 3


def anchor_positions(n: int, k: int) -> np.ndarray:
    """Every multiple of k in [1, n], plus n - 1."""
    anchors = np.arange(k, n + 1, k, dtype=np.int64)
    if n >= 2:
        anchors = np.union1d(anchors, np.asarray([n - 1], dtype=np.int64))
    return anchors


def _check_samples(s: np.ndarray, n: int, ell: int) -> None:
    """ValueError unless the positions increase strictly within [1, n] and
    hold every multiple of l and n - 1 (sets: cheaper here than numpy)."""
    pos = s.tolist()
    have = set(pos)
    if sorted(have) != pos or pos and (pos[0] < 1 or pos[-1] > n):
        raise ValueError("sample positions must increase strictly within "
                         "[1, n]")
    if not have.issuperset(range(ell, n + 1, ell)) or n - 1 not in have:
        raise ValueError("sample positions miss a multiple of l or n - 1")


def _distinct_cells(h: np.ndarray, group: np.ndarray, fan: np.ndarray,
                    sentinel: int) -> tuple[np.ndarray, np.ndarray]:
    """Fan entry t (hash h[t]) out to the cell keys fan[group[t]] below
    `sentinel`; return the distinct (key, hash) pairs sorted by key, then
    hash, as a key array and a hash array."""
    # sort by hash once, before the fan-out; equal hashes are duplicates,
    # so this sort need not be stable
    order = np.argsort(h)
    h, group = h[order], group[order]
    del order
    new = h[1:] != h[:-1]
    rank = np.zeros(h.size, dtype=np.int32)
    np.cumsum(new, dtype=np.int32, out=rank[1:])
    distinct = h[np.concatenate(([True], new))]
    del h, new
    # an entry's copies sit side by side, in hash order, so a stable sort on
    # the narrow key (a radix sort) leaves every key's run in hash order
    keys = fan[group].ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    filed = int(np.searchsorted(keys, sentinel))  # padding sorts last
    keys, order = keys[:filed], order[:filed]
    np.floor_divide(order, fan.shape[1], out=order)  # copy -> its entry
    rank = rank[order]
    del order
    fresh = np.ones(filed, dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]) | (rank[1:] != rank[:-1])
    return keys[fresh], distinct[rank[fresh]]


class OneSidedIndex:
    """A itself at sampling rate 1; below it, sampled window hashes of
    shifted copies of A, by window length, start column and shift bucket."""

    def __init__(self, n: int, k: int, ell: int, buckets: range,
                 cfg: HashConfig, samples: np.ndarray,
                 tables: dict | None = None,
                 counters: OpCounters | None = None):
        self.n, self.k, self.ell, self.buckets = n, k, ell, buckets
        self.cfg, self.samples = cfg, samples
        self.tables = tables  # (e, col, bucket) -> sorted uint64 hashes
        # rate 1: [(H, x-powers)]. No query reads them; perfbench's tracer
        # counts their entries (`tracing._entries`, pinned by
        # tests/test_trace_points.py), so they stay until ROADMAP.md item 1
        self.dense = None
        self.a = None  # rate 1: A, the `ByteString` the oracles compare
        self.counters = counters if counters is not None else OpCounters()
        self.num_cols = -(-n // ell)
        self.exponents = max(n, 1).bit_length() - 1

    @classmethod
    def preprocess(cls, a: ByteString, k: int,
                   cfg: HashConfig) -> "OneSidedIndex":
        """The greedy decider's index: column width k, bucket 0 only."""
        check_index_params(k)
        return cls._build(a, k, k, range(0, 1), cfg)

    @classmethod
    def _build(cls, a: ByteString, k: int, ell: int, buckets: range,
               cfg: HashConfig) -> "OneSidedIndex":
        n = len(a)
        if sample_rate(n, ell) >= 1.0:
            idx = cls(n, k, ell, buckets, cfg, full_sample(n))
            state = RollingHashState(a, idx.samples, cfg, idx.counters)
            idx.dense = [(state.prefix, state.xpow)]
            idx.a = a
        else:
            idx = cls(n, k, ell, buckets, cfg, draw_sample(
                n, ell, cfg.sampling_rng(),
                force_anchors=anchor_positions(n, ell)))
            idx._build_tables(a)
        return idx

    def _canonical_starts(self, e: int) -> np.ndarray:
        """Window starts recorded for length 2^e: those that some shift
        |a| <= k keeps inside A."""
        s, w = self.samples, 1 << e
        starts = np.union1d(s + 1, s - w + 1)
        return starts[(starts >= max(2 - w, 1 - self.k))
                      & (starts <= min(self.n + 1, self.n - w + 1 + self.k))]

    def _build_tables(self, a: ByteString) -> None:
        k, n, ell = self.k, self.n, self.ell
        shifts = np.arange(-k, k + 1, dtype=np.int64)
        views = ViewStack(self.samples, [(a, shifts)], self.cfg,
                          self.counters)
        q = shifts // ell  # shift buckets, before trimming to the kept ones
        fan = self._fan_table(int(q[0]), int(q[-1]))
        shift_group = q - q[0]
        groups_per_col = int(q[-1] - q[0]) + 1
        nb, first = len(self.buckets), self.buckets.start
        tables: dict = {}
        for e in range(self.exponents + 1):
            w = 1 << e
            starts = self._canonical_starts(e)
            u = starts[:, None] + shifts  # where each shifted window starts
            ok = (u >= 1) & (u <= n - w + 1)
            self.counters.retrievals += int(np.count_nonzero(ok))
            h = views.window_block(starts, starts + w - 1)[ok]
            if not h.size:
                continue
            col = np.clip(starts // ell, -2, self.num_cols + 1) + 2
            group = ((col * groups_per_col)[:, None] + shift_group)[ok]
            keys, h = _distinct_cells(h, group, fan, self.num_cols * nb)
            cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
            firsts = keys[np.concatenate(([0], cuts))].tolist()
            for kk, cell in zip(firsts, np.split(h, cuts)):
                tables[(e, kk // nb, kk % nb + first)] = cell
        self.tables = tables

    def _fan_table(self, q_lo: int, q_hi: int) -> np.ndarray:
        """The cell keys col * nb + (bucket - first bucket) under which an
        entry is filed, one row per group: row (c + 2) * (q_hi - q_lo + 1)
        + (q - q_lo) for start column c in [-2, num_cols + 1] and shift
        bucket q in [q_lo, q_hi].

        An entry at (c, q) is filed under every (c + dc, q + db), dc and db
        in {-1, 0, 1}, that the index keeps, so the rows of columns -2 and
        num_cols + 1 are empty and callers clip their columns into that
        range. Rows list their keys ascending, padded with the sentinel
        num_cols * nb, in the narrowest integer type that holds it: a
        stable sort on int16 keys is a radix sort.
        """
        nb, first = len(self.buckets), self.buckets.start
        sentinel = self.num_cols * nb
        d = np.array([-1, 0, 1])
        c = np.arange(-2, self.num_cols + 2)[:, None, None, None] + d[:, None]
        b = np.arange(q_lo, q_hi + 1)[:, None, None] + d
        kept = ((c >= 0) & (c < self.num_cols)
                & (b >= first) & (b < self.buckets.stop))
        fan = np.where(kept, c * nb + b - first, sentinel)
        fan = np.sort(fan.reshape(-1, d.size * d.size), axis=1)
        width = int(np.count_nonzero(fan < sentinel, axis=1).max())
        dtype = np.int16 if sentinel <= np.iinfo(np.int16).max else np.int32
        return fan[:, :width].astype(dtype)

    def member(self, e: int, col: int, bucket: int, h: int) -> bool:
        self.counters.table_lookups += 1
        cell = self.tables.get((e, col, bucket))
        if cell is None:
            return False
        h = np.uint64(h)
        pos = cell.searchsorted(h)
        return bool(pos < cell.size and cell[pos] == h)

    def save(self, path) -> None:
        """Write the index in format version 2 (module docstring)."""
        if self.a is not None:  # A's n symbols
            layout, s, keys = _LAYOUT_SYMBOLS, np.empty(0, np.int64), []
            arrays, nh = [np.ascontiguousarray(self.a.data)], self.n
        else:
            layout, s = _LAYOUT_GENERAL, self.samples
            cells = sorted(self.tables.items())
            keys = [(*key, cell.size) for key, cell in cells]
            arrays = [cell for _, cell in cells]
            nh = sum(key[3] for key in keys)
        head = _HEAD.pack(FORMAT_VERSION, layout, P61, self.cfg.x,
                          self.n, self.k, self.ell, self.buckets.start,
                          self.buckets.stop, s.size, len(keys), nh)
        # one buffer and one write: a write per cell costs more than the copy
        blob = b"".join([MAGIC_1S, head, s, np.asarray(keys, dtype=np.int64),
                         *arrays])
        crc = zlib.crc32(memoryview(blob)[len(MAGIC_1S):])
        with open(path, "wb") as f:
            f.write(blob)
            f.write(_CRC.pack(crc))

    @classmethod
    def load(cls, path) -> "OneSidedIndex":
        """Read an index written by `save`. A file of the wrong kind or
        version raises ValueError, and so does one of the wrong length (its
        length is checked against the header before any read), one whose
        checksum does not match, and one whose header holds an unknown
        layout, a k or l the builders refuse, a p other than 2^61 - 1, an x
        that `HashConfig` refuses, or shift buckets that neither the
        greedy nor the wave index keeps at its k and l. A symbols body must
        give sampling rate 1 at its n and l, and its symbols must be at
        least 1 and pass the guards of `RollingHashState`: the index is then
        built from them by `_build`, as `preprocess` builds it. A general
        body's sample positions must pass `_check_samples`, and its cells
        are views of the file's bytes."""
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
        if raw[off] != FORMAT_VERSION:
            raise ValueError(f"unsupported index version {raw[off]}")
        if size < off + _HEAD.size:
            raise short("header", off + _HEAD.size)
        (_, layout, p, x, n, k, ell, b_start, b_stop, ns, nk,
         nh) = _HEAD.unpack_from(raw, off)
        off += _HEAD.size
        if layout not in (_LAYOUT_GENERAL, _LAYOUT_SYMBOLS):
            raise ValueError(f"unknown index layout {layout}" + (
                ", a retired one: build the index again"
                if layout in _LAYOUT_RETIRED else ""))
        check_index_params(k, ell)
        if p != P61:
            raise ValueError("only the Mersenne prime 2^61 - 1 is supported")
        cfg = HashConfig(x=x)
        reach = k // ell + 1  # the wave index keeps buckets -reach .. reach
        if ((b_start, b_stop) != (-reach, reach + 1)
                and not (ell == k and (b_start, b_stop) == (0, 1))):
            raise ValueError(f"shift buckets [{b_start}, {b_stop}) fit "
                             f"neither index at k = {k}, l = {ell}")
        symbols = layout == _LAYOUT_SYMBOLS
        if symbols and (ns, nk, nh) != (0, 0, n):
            raise ValueError(f"a symbols layout holds n = {n} symbols and no "
                             f"samples or keys")
        if symbols and sample_rate(n, ell) < 1.0:
            raise ValueError(f"a symbols layout needs sampling rate 1, and "
                             f"n = {n}, l = {ell} give less")
        need = off + 8 * (ns + 4 * nk + nh) + _CRC.size
        if size < need:
            raise short(f"{ns} samples, {nk} keys and {nh} hashes", need)
        if size > need:
            raise ValueError(f"index file has {size} bytes, expected {need}")
        (crc,) = _CRC.unpack_from(raw, size - _CRC.size)
        if zlib.crc32(memoryview(raw)[len(MAGIC_1S):size - _CRC.size]) != crc:
            raise ValueError("index file checksum mismatch")

        def view(dtype: str, count: int) -> np.ndarray:
            nonlocal off
            arr = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
            off += 8 * count
            return arr

        s = view("<i8", ns)
        keys = view("<i8", 4 * nk).reshape(nk, 4).tolist()
        buckets = range(b_start, b_stop)
        if symbols:
            syms = view("<i8", nh)
            return cls._build(ByteString(syms, int(syms.max()) if n else 1),
                              k, ell, buckets, cfg)
        hashes = view("<u8", nh)
        _check_samples(s, n, ell)
        ends = np.cumsum([key[3] for key in keys], dtype=np.int64).tolist()
        tables = {(e, c, b): hashes[lo:hi]
                  for (e, c, b, _), lo, hi in zip(keys, [0, *ends], ends)}
        return cls(n, k, ell, buckets, cfg, s, tables=tables)


class OneSidedWaveIndex(OneSidedIndex):
    """The A-index of the wave decider: column width l, and every shift
    bucket that a promised offset |i_a - i_b| <= k can ask for."""

    # an entry of its own, so a trace can tell the two deciders' lookups apart
    member = OneSidedIndex.member

    @classmethod
    def preprocess(cls, a: ByteString, k: int, ell: int,
                   cfg: HashConfig) -> "OneSidedWaveIndex":
        check_index_params(k, ell)
        return cls._build(a, k, ell, range(-(k // ell) - 1, k // ell + 2),
                          cfg)


def max_shift_align(index: OneSidedIndex, b_state: RollingHashState,
                    i_a: int, i_b: int) -> int:
    """Binary expansion of the shift-alignment length: scan window lengths
    by descending powers of two, and on each table hit advance past the
    matched window and keep scanning shorter ones. The probe is the cell of
    the current start's column and the shift bucket of i_a - i_b. An exact
    alignment of length d is fully covered because every window inside it
    hits."""
    remaining = index.n - i_b + 1
    if remaining <= 0:
        return 0
    n, ell, last_col = index.n, index.ell, index.num_cols - 1
    bucket = (i_a - i_b) // ell
    cur = i_b
    for e in range(remaining.bit_length() - 1, -1, -1):
        d = 1 << e
        if cur + d - 1 > n:
            continue
        h = b_state.retrieve(cur, cur + d - 1)
        col = cur // ell
        if index.member(e, col if col < last_col else last_col, bucket, h):
            cur += d
    return cur - i_b


class IndexedShiftOracle(SymbolShiftOracle):
    """Wave shift-alignment oracle over an A-index, for the index's l: at
    rate 1 `two_sided.SymbolShiftOracle` over the index's A and B, exact,
    with hints; below rate 1 `max_shift_align` at the asked (i_a, i_b), with
    no hint.

    `buckets` records the shift buckets a call can probe: below rate 1 the
    index's, at rate 1 None, since the symbol search serves every shift."""

    def __init__(self, index: OneSidedIndex, b: ByteString,
                 counters: OpCounters | None = None):
        if len(b) != index.n:
            raise ValueError(f"B has length {len(b)}, the index was built "
                             f"for n = {index.n}")
        if index.a is not None:
            SymbolShiftOracle.__init__(self, index.a, b, index.k, index.ell,
                                       counters)
            self.buckets = None
            return
        self.index, self.buckets = index, index.buckets
        self.k, self.ell = index.k, index.ell
        self.counters = counters if counters is not None else OpCounters()
        # the whole per-query pass over B: the sample's size, not n
        self.b_state = RollingHashState(b, index.samples, index.cfg,
                                        self.counters)
        self.last_hint = None

    def __call__(self, i_a: int, i_b: int) -> int:
        if self.buckets is None:
            return SymbolShiftOracle.__call__(self, i_a, i_b)
        self.counters.oracle_queries += 1
        return max_shift_align(self.index, self.b_state, i_a, i_b)


class OneSidedOracle(IndexedShiftOracle):
    """Greedy alignment oracle over an A-index: the shift oracle at l = k,
    asked at (i_b, i_b)."""

    # entries of their own, so a trace can time greedy's B hashing and
    # calls apart from the wave's
    __init__ = IndexedShiftOracle.__init__
    __call__ = IndexedShiftOracle.__call__
