"""Sublinear-time gap edit distance.

Decision procedures that distinguish pairs within edit distance k from
pairs far beyond it (past 40 k^2, or past 10 k l at coarser granularity l),
with three preprocessing regimes: none, A only, or both strings. Both
deciders' two-sided mode answers from A's exact `TwoSidedIndex`, which
serves every l, and books B's hashing on the query counters.
"""

from __future__ import annotations

from .greedy import GapVerdict, GreedyTrace, check_gap_params, greedy_match
from .hashing import HashConfig, OpCounters
from .instances import (Instance, gen_large_side, gen_periodic, gen_planted,
                        load_instance, save_instance)
from .no_prep import NoPrepOracle
from .one_sided import OneSidedIndex, OneSidedOracle
from .strings import (ByteString, edit_distance_at_most, edit_distance_exact,
                      exact_hwave)
from .two_sided import SymbolShiftOracle, TwoSidedIndex, TwoSidedOracle
from .wave import OneSidedWaveIndex, WaveTable, gap_wave

__all__ = [
    "ByteString", "GapVerdict", "GreedyTrace", "HashConfig", "Instance",
    "OneSidedIndex", "OneSidedOracle", "OneSidedWaveIndex", "OpCounters",
    "TwoSidedIndex", "TwoSidedOracle", "WaveTable", "edit_distance_at_most",
    "edit_distance_exact", "exact_hwave", "gap_match", "gap_wave",
    "gen_large_side", "gen_periodic", "gen_planted", "greedy_match",
    "load_instance", "save_instance",
]


def gap_match(a: ByteString, b: ByteString, k: int, mode: str = "noprep",
              seed=None, trace: GreedyTrace | None = None):
    """Decide the k versus 40 k^2 gap. Returns (verdict, query counters).

    Modes: "noprep" builds its oracle per pair (hashed views of a sample,
    or at sampling rate 1 the symbol comparison), "onesided" preprocesses
    A (at sampling rate 1 keeping A itself for the symbol comparison),
    "twosided" preprocesses both (cells computed lazily from A's
    hashes; B's hashing is booked on the query counters), "exact" compares
    symbols (`SymbolShiftOracle` built for l = k, as exact `gap_wave` does
    at its l). The seed picks the hash draw of the modes that hash.
    """
    check_gap_params(a, b, k)
    cfg = HashConfig.from_seed(seed)
    counters = OpCounters()
    if mode == "exact":
        oracle = SymbolShiftOracle(a, b, k, k, counters)
    elif mode == "noprep":
        oracle = NoPrepOracle(a, b, k, cfg, counters)
    elif mode == "onesided":
        index = OneSidedIndex.preprocess(a, k, cfg)
        index.counters = counters
        oracle = OneSidedOracle(index, b, counters)
    elif mode == "twosided":
        index = TwoSidedIndex.preprocess(a, k, cfg)
        index.counters = counters
        oracle = TwoSidedOracle(index, b, counters)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    verdict = greedy_match(a, b, k, oracle, trace=trace)
    return verdict, counters
