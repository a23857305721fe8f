"""Gap decision with both strings preprocessed.

Preprocessing on A stores, for window (i, j), the set of hashes of every
shifted copy A[i+a .. j+a] with |a| <= k that stays inside the string. A
query then binary-searches the longest B-window whose hash lands in the
matching cell; membership is monotone in the window length because an
exact match of length d contains one of length d - 1 at the same shift.

Cells can be materialized up front (quadratically many, bounded by a size
limit, serializable) or computed on demand from the prefix hashes of A;
both give identical answers.
"""

from __future__ import annotations

import struct

import numpy as np

from .hashing import HashConfig, OpCounters, RollingHashState, SampleSet
from .strings import ByteString

MATERIALIZE_LIMIT = 2048

MAGIC_2S = b"GEDT2S"
FORMAT_VERSION = 1


def full_sample(n: int) -> SampleSet:
    return SampleSet(np.arange(1, n + 1, dtype=np.int64), n, 1.0)


class TwoSidedIndex:
    """Shift-closed window hashes of A for alignment against any B."""

    def __init__(self, n: int, k: int, cfg: HashConfig,
                 cells: dict | None = None, a_state: RollingHashState | None = None,
                 counters: OpCounters | None = None):
        self.n = n
        self.k = k
        self.cfg = cfg
        self.cells = cells
        self.a_state = a_state
        self.counters = counters if counters is not None else OpCounters()

    @property
    def counters(self) -> OpCounters:
        return self._counters

    @counters.setter
    def counters(self, counters: OpCounters) -> None:
        # A's rows read by `member` are work of whoever holds the index now
        self._counters = counters
        if self.a_state is not None:
            self.a_state.counters = counters

    @classmethod
    def preprocess(cls, a: ByteString, k: int, cfg: HashConfig,
                   materialize: bool = False,
                   limit: int = MATERIALIZE_LIMIT) -> "TwoSidedIndex":
        n = len(a)
        counters = OpCounters()
        state = RollingHashState(a, full_sample(n), cfg, counters)
        idx = cls(n, k, cfg, a_state=state, counters=counters)
        if materialize:
            if n > limit:
                raise ValueError(
                    f"refusing to materialize {n * (n + 1) // 2} cells for "
                    f"n={n}; raise the limit explicitly to override")
            idx.cells = idx._build_cells()
        return idx

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

    def _build_cells(self) -> dict:
        cells = {}
        for i in range(1, self.n + 1):
            for j in range(i - 1, self.n + 1):
                cells[(i, j)] = set(int(h) for h in self._shift_hashes(i, j))
        return cells

    def member(self, i: int, j: int, h: int) -> bool:
        """Is h the hash of some in-range shifted copy of window (i, j)?"""
        self.counters.table_lookups += 1
        if self.cells is not None:
            cell = self.cells.get((i, j))
            return cell is not None and h in cell
        return bool(np.any(self._shift_hashes(i, j) == np.uint64(h)))

    def save(self, path) -> None:
        if self.cells is None:
            raise ValueError("only materialized indexes are serializable")
        with open(path, "wb") as f:
            f.write(MAGIC_2S)
            f.write(struct.pack("<B", FORMAT_VERSION))
            f.write(struct.pack("<QQII", self.cfg.p, self.cfg.x, self.k, self.n))
            f.write(struct.pack("<Q", len(self.cells)))
            for (i, j), cell in sorted(self.cells.items()):
                hashes = sorted(cell)
                f.write(struct.pack("<iiI", i, j, len(hashes)))
                f.write(np.asarray(hashes, dtype=np.uint64).tobytes())

    @classmethod
    def load(cls, path) -> "TwoSidedIndex":
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:6] != MAGIC_2S:
            raise ValueError("not a two-sided index file")
        off = 6
        (version,) = struct.unpack_from("<B", raw, off)
        off += 1
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported index version {version}")
        p, x, k, n = struct.unpack_from("<QQII", raw, off)
        off += struct.calcsize("<QQII")
        (ncells,) = struct.unpack_from("<Q", raw, off)
        off += 8
        cells = {}
        for _ in range(ncells):
            i, j, cnt = struct.unpack_from("<iiI", raw, off)
            off += struct.calcsize("<iiI")
            arr = np.frombuffer(raw, dtype=np.uint64, count=cnt, offset=off)
            off += 8 * cnt
            cells[(i, j)] = set(int(h) for h in arr)
        return cls(n, k, HashConfig(x=int(x), p=int(p)), cells=cells)


def two_sided_max_align(index: TwoSidedIndex, b_state: RollingHashState,
                        i_b: int, k: int | None = None) -> int:
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
        self.index = index
        self.counters = counters if counters is not None else OpCounters()
        self.b_state = RollingHashState(b, full_sample(len(b)), index.cfg,
                                        self.counters)
        self.last_hint = None

    def __call__(self, i_b: int) -> int:
        self.counters.oracle_queries += 1
        return two_sided_max_align(self.index, self.b_state, i_b)
