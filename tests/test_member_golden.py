"""Recorded `member` answers of the one-sided A-indexes on a fixed-seed grid.

`member` is the probe of the general layout, the one built below sampling
rate 1, so every build below is at a rate below 1.

`tests/data/member_golden.json` holds, for every build below, the answer of
each probe (a string of 0s and 1s, in probe order) and the `table_lookups`
each probe added, together with the sha256 of the probe list, so a change
to how `member` searches a cell shows up here as a diff while the probes
stay fixed.

Both index classes are covered. The probes are:

- hits from B: the hash of a B window, at its column and a promised shift
  bucket, the way `max_shift_align` probes;
- hits from A: the hash of a window of A under a shift |a| <= k, at the
  window's column and the shift's bucket;
- misses: random values below p at random in-range cells;
- edge cases: A hashes at columns and buckets just outside the kept range,
  and at exponents past the last window length.

The grid held rate-1 builds until the rate-1 index became A's prefix
hashes; it was then recorded at these specs with this generator on the
code from before that change, and the changed code answers it unchanged.

Regenerate (only when a change is meant to alter membership):

    PYTHONPATH=src python tests/test_member_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from gapedit.hashing import HashConfig, RollingHashState, sample_rate
from gapedit.instances import gen_planted
from gapedit.mers61 import P61
from gapedit.one_sided import OneSidedIndex, OneSidedWaveIndex

GOLDEN = Path(__file__).parent / "data" / "member_golden.json"

# (class, n, sigma, k, ell, edits in B, seed); the greedy index has ell = k,
# and every sampling rate is below 1 (ell > 4 ln n)
SPECS = [
    ("greedy", 256, 4, 24, 24, 6, 1),   # the benchmark's indexed size
    ("greedy", 203, 8, 26, 26, 4, 2),   # n % k != 0
    ("wave", 300, 4, 48, 24, 8, 3),
    ("wave", 203, 8, 50, 23, 5, 4),     # n % l != 0, k % l != 0
]

PROBES_PER_KIND = 150


def build(kind, n, sigma, k, ell, edits, seed):
    inst = gen_planted(n, sigma, edits, seed=seed)
    cfg = HashConfig.from_seed(100 + seed)
    if kind == "greedy":
        index = OneSidedIndex.preprocess(inst.a, k, cfg)
    else:
        index = OneSidedWaveIndex.preprocess(inst.a, k, ell, cfg)
    return inst, index


def probes(inst, index, seed) -> list:
    """(e, col, bucket, h) tuples."""
    rng = np.random.default_rng(seed)
    n, k, ell = index.n, index.k, index.ell
    b_state = RollingHashState(inst.b, index.samples, index.cfg)
    a_states = {}
    buckets = index.buckets
    out = []

    def window(e):
        return int(rng.integers(1, n - (1 << e) + 2))

    def col_of(i):
        return min(i // ell, index.num_cols - 1)

    def a_hash(shift):
        # A's hash of a window [i, i + w - 1] at shift a that stays inside
        # A: sampled positions in the window, symbols of A at position + a
        e = int(rng.integers(0, (n - abs(shift)).bit_length()))
        w = 1 << e
        i = int(rng.integers(max(1, 1 - shift), min(n, n - shift) - w + 2))
        if shift not in a_states:
            a_states[shift] = RollingHashState(
                inst.a, index.samples + shift, index.cfg)
        return e, i, a_states[shift].retrieve(i + shift, i + shift + w - 1)

    for _ in range(PROBES_PER_KIND):  # hits from B
        e = int(rng.integers(0, index.exponents + 1))
        i = window(e)
        bucket = int(rng.integers(buckets.start, buckets.stop))
        out.append((e, col_of(i), bucket,
                    b_state.retrieve(i, i + (1 << e) - 1)))
    for _ in range(PROBES_PER_KIND):  # hits from A
        shift = int(rng.integers(-k, k + 1))
        e, i, h = a_hash(shift)
        bucket = shift // ell if len(buckets) > 1 else 0
        out.append((e, col_of(i), bucket, h))
    for _ in range(PROBES_PER_KIND):  # misses
        e = int(rng.integers(0, index.exponents + 1))
        out.append((e, int(rng.integers(0, index.num_cols)),
                    int(rng.integers(buckets.start, buckets.stop)),
                    int(rng.integers(0, P61))))
    edge_cols = [-2, -1, index.num_cols, index.num_cols + 1]
    edge_buckets = [buckets.start - 2, buckets.start - 1, buckets.stop,
                    buckets.stop + 1]
    for _ in range(PROBES_PER_KIND):  # edge cases, with A hashes
        shift = int(rng.integers(-k, k + 1))
        e, i, h = a_hash(shift)
        col, bucket = col_of(i), shift // ell if len(buckets) > 1 else 0
        what = int(rng.integers(0, 3))
        if what == 0:
            col = edge_cols[int(rng.integers(0, len(edge_cols)))]
        elif what == 1:
            bucket = edge_buckets[int(rng.integers(0, len(edge_buckets)))]
        else:
            e = index.exponents + int(rng.integers(1, 4))
        out.append((e, col, bucket, h))
    return out


def record(spec) -> dict:
    inst, index = build(*spec)
    assert index.tables is not None
    ps = probes(inst, index, spec[-1])
    answers, lookups = [], []
    for p in ps:
        before = index.counters.table_lookups
        answers.append("1" if index.member(*p) else "0")
        lookups.append(str(index.counters.table_lookups - before))
    return {"spec": list(spec), "layout": "general",
            "probes_sha256": hashlib.sha256(
                json.dumps(ps).encode()).hexdigest(),
            "answers": "".join(answers), "lookups": "".join(lookups)}


def compute_grid() -> list:
    return [record(spec) for spec in SPECS]


def test_grid_covers_the_corner_cases():
    assert {spec[0] for spec in SPECS} == {"greedy", "wave"}
    assert all(sample_rate(spec[1], spec[4]) < 1.0 for spec in SPECS)
    assert any(spec[1] % spec[4] for spec in SPECS if spec[0] == "greedy")
    waves = [spec for spec in SPECS if spec[0] == "wave"]
    assert any(spec[1] % spec[4] for spec in waves)
    assert any(spec[3] % spec[4] for spec in waves)


def test_member_matches_recorded_grid():
    want = json.loads(GOLDEN.read_text())
    got = compute_grid()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"{w['spec']} ({w['layout']}) differs"


def test_recorded_grid_is_not_trivial():
    # hits and misses, one lookup a probe
    want = json.loads(GOLDEN.read_text())
    assert len(want) == len(SPECS)
    for row in want:
        blocks = [row["answers"][t:t + PROBES_PER_KIND]
                  for t in range(0, 4 * PROBES_PER_KIND, PROBES_PER_KIND)]
        assert 0 < blocks[0].count("1") < PROBES_PER_KIND  # B hits, misses
        assert set(blocks[1]) == {"1"}  # every A hash is filed
        assert "1" not in blocks[2]  # no random value collides
        assert "1" not in blocks[3]  # nothing outside the kept range
    assert all(set(row["lookups"]) == {"1"} for row in want)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n " + ",\n ".join(json.dumps(r)
                                           for r in compute_grid())
                      + "\n]\n")
    print(f"wrote {GOLDEN}")
