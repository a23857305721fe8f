"""Recorded general-layout A-index builds on a fixed-seed grid.

`tests/data/index_cells_golden.json` holds, for every build below, the
sha256 of the bytes `save` writes and the build's `OpCounters`. The file
carries every cell of the general layout, so any change to which hashes
the builder files, under which (exponent, column, bucket) key, shows up
here as a diff, as does any change to the work a build does.

The grid covers both index classes, n not a multiple of l, and k not a
multiple of l. The general layout is built exactly when the sampling rate
is below 1, so every build is. Two builds forced into the general layout at
rate 1 were dropped when that option went; each remaining record still
ends its build with the option's value, false, so the records are the
ones recorded before.

Regenerate (only when a change is meant to alter the built index):

    PYTHONPATH=src python tests/test_index_cells_golden.py
"""

import hashlib
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from gapedit.hashing import HashConfig, sample_rate
from gapedit.instances import gen_planted
from gapedit.one_sided import OneSidedIndex, OneSidedWaveIndex

GOLDEN = Path(__file__).parent / "data" / "index_cells_golden.json"

# (class, n, sigma, k, ell, string seed, hash seed); the greedy index has
# ell = k
BUILDS = [
    ("greedy", 256, 4, 24, 24, 1, 11),
    ("greedy", 777, 8, 50, 50, 3, 13),   # n % k != 0
    ("wave", 512, 16, 64, 32, 4, 14),
    ("wave", 300, 8, 50, 24, 5, 15),     # n % l != 0, k % l != 0
]


def build(kind, n, sigma, k, ell, sseed, hseed):
    a = gen_planted(n, sigma, 0, seed=sseed).a
    cfg = HashConfig.from_seed(hseed)
    if kind == "greedy":
        return OneSidedIndex.preprocess(a, k, cfg)
    return OneSidedWaveIndex.preprocess(a, k, ell, cfg)


def record(spec, workdir: Path) -> dict:
    index = build(*spec)
    path = workdir / "index.bin"
    index.save(path)
    raw = path.read_bytes()
    return {"build": [*spec, False],
            "hashes": int(sum(c.size for c in index.tables.values())),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "counters": asdict(index.counters)}


def compute_grid(workdir: Path) -> list:
    return [record(spec, workdir) for spec in BUILDS]


def test_grid_covers_the_corner_cases():
    kinds = {spec[0] for spec in BUILDS}
    assert kinds == {"greedy", "wave"}
    assert all(sample_rate(spec[1], spec[4]) < 1.0 for spec in BUILDS)
    waves = [spec for spec in BUILDS if spec[0] == "wave"]
    assert any(spec[1] % spec[4] for spec in waves)
    assert any(spec[3] % spec[4] for spec in waves)


def test_general_builds_match_recorded_grid(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = compute_grid(tmp_path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"build {w['build']} differs"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        grid = compute_grid(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n " + ",\n ".join(json.dumps(r) for r in grid)
                      + "\n]\n")
    print(f"wrote {GOLDEN}")
