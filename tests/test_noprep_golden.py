"""Recorded decisions on a fixed-seed grid.

`tests/data/noprep_golden.json` holds, for every cell below, the verdict,
the greedy trace or wave table and the `OpCounters` of one noprep
decision, recorded before the hash layer was vectorised. The `retrievals`
of the wave cells were recorded again when the wave oracle's length search
began to gallop and prune. When the greedy oracle became the wave's at
l = k and both built only the A views they can scan, the `init_steps` of
every wave cell and of the greedy k = 2 cells moved down, and so did the
`retrievals` of every greedy cell; nothing else in the file moved. The
rate-1 cells (k, or l for the wave, at most 4 ln n) were recorded again
when noprep there became the exact shift search over A's and B's
prefixes, each folded once: their traces, rows and counters now equal
those of an exact search (the rows and jumps equal exact mode's), and the
rate < 1 records did not move. Their counters were recorded again when
that search began to compare symbols instead of hashes: no fold, and one
retrieval per symbol compared; their verdicts, traces, hints and rows did
not move, and their records now equal exact mode's decisions. Any change
to hashing, sampling or the oracles' scan order shows up here as a
diff.

`tests/data/indexed_golden.json` holds the same records for the same cells
decided in the onesided and twosided modes, each record tagged with its
mode. It was recorded while the greedy and wave deciders still had
separate A-indexes, so it pins the shared index to the answers and the
counters of both. Its wave twosided records were recorded again when the
wave's twosided mode moved from the sampled one-sided index (with B hashed
during preprocessing) to the exact `TwoSidedIndex`: their rows now equal
exact mode's, and their counters include B's hashing; no other record
moved. The `hints` of its greedy twosided records were recorded again
when the two-sided oracles began to report a matching shift (they were
null); nothing else moved. Its rate-1 onesided records (k, or l for the
wave, at most 4 ln n) were recorded again when the rate-1 one-sided index
became A's prefix hashes, asked through the two-sided index's exact shift
search: their verdicts, traces, hints, rows and counters now equal the
twosided records', and the rate < 1 records did not move. Their counters
were recorded again when the rate-1 one-sided oracle became the symbol
search of exact mode (`two_sided.SymbolShiftOracle`): no fold of B, and
one retrieval per symbol compared. Their verdicts, traces, hints and rows
did not move, and they now equal the noprep records of the same cells,
counters included.

Regenerate (only when a change is meant to alter these results):

    PYTHONPATH=src python tests/test_noprep_golden.py
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

from gapedit import GreedyTrace, WaveTable, gap_match, gap_wave
from gapedit.instances import gen_large_side, gen_planted
from gapedit.wave import NEG_INF

GOLDEN = Path(__file__).parent / "data" / "noprep_golden.json"
INDEXED_GOLDEN = GOLDEN.with_name("indexed_golden.json")
INDEXED_MODES = ("onesided", "twosided")

# (n, sigma, k, instance seed, hash seed, far threshold or None)
GREEDY_CELLS = [
    (256, 4, 2, 1, 11, None),
    (512, 16, 4, 2, 12, None),
    (1024, 16, 16, 3, 13, None),
    (1024, 16, 48, 4, 14, None),
    (2048, 64, 48, 5, 15, None),
    (2048, 16, 100, 6, 16, None),
    (512, 64, 2, 7, 17, 161),
    (1024, 64, 3, 8, 18, 361),
]

# (n, sigma, k, ell, instance seed, hash seed, far threshold or None)
WAVE_CELLS = [
    (256, 8, 9, 3, 21, 31, None),
    (512, 16, 9, 3, 22, 32, None),
    (1024, 16, 16, 4, 23, 33, None),
    (1024, 16, 48, 8, 24, 34, None),
    (2048, 16, 64, 32, 26, 36, None),
    (512, 64, 4, 2, 25, 35, 161),
]


def _instance(n, sigma, k, seed, far):
    if far is None:
        return gen_planted(n, sigma, k, seed=seed)
    return gen_large_side(n, sigma, far, seed=seed)


def _row(row):
    return [[j, None if v == NEG_INF else int(v)] for j, v in sorted(row.items())]


def compute_grid(mode: str = "noprep") -> dict:
    greedy = []
    for n, sigma, k, iseed, hseed, far in GREEDY_CELLS:
        inst = _instance(n, sigma, k, iseed, far)
        trace = GreedyTrace()
        verdict, ctr = gap_match(inst.a, inst.b, k, mode=mode, seed=hseed,
                                 trace=trace)
        greedy.append({"cell": [n, sigma, k, iseed, hseed, far],
                       "verdict": verdict.value, "counters": asdict(ctr),
                       "starts": trace.starts, "jumps": trace.jumps,
                       "hints": trace.hints})
    wave = []
    for n, sigma, k, ell, iseed, hseed, far in WAVE_CELLS:
        inst = _instance(n, sigma, k, iseed, far)
        table = WaveTable()
        verdict, ctr = gap_wave(inst.a, inst.b, k, ell, mode, seed=hseed,
                                table=table)
        wave.append({"cell": [n, sigma, k, ell, iseed, hseed, far],
                     "verdict": verdict.value, "counters": asdict(ctr),
                     "rows": [_row(r) for r in table.rows]})
    return {"greedy": greedy, "wave": wave}


def compute_indexed_grid() -> dict:
    grid = {"greedy": [], "wave": []}
    for mode in INDEXED_MODES:
        for key, records in compute_grid(mode).items():
            grid[key] += [{"mode": mode, **r} for r in records]
    return grid


def _assert_matches(got: dict, path: Path) -> None:
    want = json.loads(path.read_text())
    got = json.loads(json.dumps(got))
    assert len(got["greedy"]) == len(want["greedy"])
    assert len(got["wave"]) == len(want["wave"])
    for g, w in zip(got["greedy"] + got["wave"], want["greedy"] + want["wave"]):
        assert g == w, f"{w.get('mode', 'noprep')} cell {w['cell']} differs"


def test_noprep_decisions_match_recorded_grid():
    _assert_matches(compute_grid(), GOLDEN)


def test_indexed_decisions_match_recorded_grid():
    _assert_matches(compute_indexed_grid(), INDEXED_GOLDEN)


def test_twosided_wave_records_equal_exact():
    want = json.loads(INDEXED_GOLDEN.read_text())
    exact = compute_grid("exact")["wave"]
    got = [r for r in want["wave"] if r["mode"] == "twosided"]
    assert len(got) == len(exact)
    for g, e in zip(got, exact):
        assert (g["verdict"], g["rows"]) == (e["verdict"], e["rows"]), g["cell"]


def _rate_one(cell, key):
    n, k = cell[0], cell[2]
    return (cell[3] if key == "wave" else k) <= 4 * math.log(n)


def test_onesided_rate_one_records_equal_noprep():
    """At rate 1 a onesided record is the noprep record of its cell,
    counters included (both are exact mode's symbol search); the twosided
    record hashes, so it differs from them in its counters only."""
    noprep = json.loads(GOLDEN.read_text())
    want = json.loads(INDEXED_GOLDEN.read_text())
    checked = 0
    for key in ("greedy", "wave"):
        by_mode = {mode: [r for r in want[key] if r["mode"] == mode]
                   for mode in INDEXED_MODES}
        assert (len(by_mode["onesided"]) == len(by_mode["twosided"])
                == len(noprep[key]))
        for one, two, ref in zip(by_mode["onesided"], by_mode["twosided"],
                                 noprep[key]):
            assert one["cell"] == two["cell"] == ref["cell"]
            if _rate_one(one["cell"], key):
                checked += 1
                assert {f: v for f, v in one.items() if f != "mode"} == ref, (
                    one["cell"])
                assert ({**one, "mode": "twosided",
                         "counters": two["counters"]} == two), one["cell"]
    assert checked == 10


def test_noprep_rate_one_records_equal_exact():
    want = json.loads(GOLDEN.read_text())
    exact = compute_grid("exact")
    checked = 0
    for key, fields in (("greedy", ("verdict", "starts", "jumps", "hints",
                                    "counters")),
                        ("wave", ("verdict", "rows", "counters"))):
        for g, e in zip(want[key], exact[key]):
            if _rate_one(g["cell"], key):
                checked += 1
                assert ([g[f] for f in fields]
                        == [e[f] for f in fields]), g["cell"]
    assert checked == 10


def test_grid_covers_both_verdicts_and_sampling_regimes():
    want = json.loads(GOLDEN.read_text())
    verdicts = {c["verdict"] for c in want["greedy"]}
    assert verdicts == {"small", "large"}
    assert {c["verdict"] for c in want["wave"]} == {"small", "large"}
    # both sampling regimes: saturated (k <= 4 ln n) and subsampled
    for key in ("greedy", "wave"):
        regimes = {_rate_one(c["cell"], key) for c in want[key]}
        assert regimes == {False, True}


def dump_grid(grid: dict) -> str:
    """One decision per line, so a diff names the cells that moved."""
    parts = []
    for key in ("greedy", "wave"):
        cells = ",\n  ".join(json.dumps(c) for c in grid[key])
        parts.append(f'"{key}": [\n  {cells}\n ]')
    return "{\n " + ",\n ".join(parts) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump_grid(compute_grid()))
    INDEXED_GOLDEN.write_text(dump_grid(compute_indexed_grid()))
    print(f"wrote {GOLDEN} and {INDEXED_GOLDEN}")
