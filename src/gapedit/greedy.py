"""Greedy gap decision driver.

Repeatedly asks an alignment oracle for the longest prefix of the remaining
B-suffix that matches some nearby A-window, and advances past it. A string
pair within distance k decomposes into at most 2k + 1 such pieces, so
2k + 1 rounds suffice to cross the whole string when the pair is close; a
far pair cannot be crossed because every greedy jump can be charged against
genuine edits.

The greedy question is the wave decider's shift-alignment question at
i_a = i_b and l = k, so both deciders share one oracle protocol: greedy
asks `oracle(i_b, i_b)` of a shift oracle built for l = k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class GapVerdict(Enum):
    SMALL = "small"  # consistent with edit distance <= k
    LARGE = "large"  # consistent with edit distance above the gap threshold


@dataclass
class GreedyTrace:
    """Per-round record of the oracle answers, for auditing."""

    starts: list = field(default_factory=list)
    jumps: list = field(default_factory=list)
    hints: list = field(default_factory=list)


def check_index_params(k: int, ell: int | None = None) -> None:
    """Raise ValueError unless k >= 1 and, when given, 1 <= ell <= k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if ell is not None and not 1 <= ell <= k:
        raise ValueError("need 1 <= l <= k")


def check_gap_params(a, b, k: int, ell: int | None = None) -> None:
    """Raise ValueError unless k >= 1, 1 <= ell <= k (when given) and the
    strings have equal lengths."""
    check_index_params(k, ell)
    if len(a) != len(b):
        raise ValueError("equal lengths required")


def check_oracle_index(oracle, k: int, ell: int) -> None:
    """Raise ValueError if the oracle was built for another k or l than the
    decider's; l is the oracle's, since one two-sided index serves every
    l. Every package oracle records both; oracles that record neither pass."""
    for name, attr, want in (("k", "k", k), ("l", "ell", ell)):
        built = getattr(oracle, attr, want)
        if built != want:
            raise ValueError(f"the oracle was built for {name} = {built}, "
                             f"the decider runs at {name} = {want}")


def greedy_match(a, b, k: int, oracle, trace: GreedyTrace | None = None) -> GapVerdict:
    """Run 2k + 1 oracle rounds starting at B-position 1.

    `oracle(i_b, i_b)` must return a jump length d >= 0 (an exact or
    relaxed longest-alignment value for B starting at i_b): the wave
    decider's shift oracle asked at i_a = i_b, built for l = k. An oracle
    built for another k or l is refused with ValueError. Returns SMALL iff
    the cursor passes position n.
    """
    check_gap_params(a, b, k)
    check_oracle_index(oracle, k, k)
    n = len(b)
    i_b = 1
    for _ in range(2 * k + 1):
        if i_b > n:
            break
        d = oracle(i_b, i_b)
        if trace is not None:
            trace.starts.append(i_b)
            trace.jumps.append(d)
            hint = getattr(oracle, "last_hint", None)
            trace.hints.append(hint)
        i_b += max(d, 1)
    return GapVerdict.SMALL if i_b > n else GapVerdict.LARGE
