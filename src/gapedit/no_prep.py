"""Alignment oracle without preprocessing, via a birthday split of shifts.

The greedy decider asks for the longest d such that B[i_b .. i_b+d-1]
matches A near the same position, at shifts |c| <= k. That is the wave
decider's shift-alignment question at l = k and i_a = i_b, and greedy asks
it as `oracle(i_b, i_b)`, so `NoPrepOracle` is `wave.NoPrepShiftOracle`
built for those calls, with the same `__call__`: one view build, one probe
and one length search serve both deciders.

At sampling rate 1 (k <= 4 ln n) the birthday split would fold the same
n positions per string and save nothing, so the oracle is
`two_sided.SymbolShiftOracle`, which hashes nothing and answers exactly:
O(log n) probes per call, each comparing at most 2k + 1 copies of A with
B symbol for symbol, and only past the last hit length. After d = 1 the
lengths compared add up to less than 3d per copy tested, d the call's
answer, so a call where one copy survives reads O(d + k) symbols, and a
periodic pair, where every copy survives, O(k d); each test is one
`bytes` comparison at memory speed.

Below rate 1, every candidate shift c in [-k, k] factors as c = a * r + b
with r = ceil(sqrt(k)), |a| <= q = ceil(k / r) <= r and 0 <= b < r.
Instead of hashing one range per shift (2k + 1 states), the oracle keeps
2q + 1 shifted views of A and r shifted views of B over one shared sample
S; a shift-c alignment shows up as a hash collision between the view
pair (a, b). A view at offset o reads its string over S + o, so both
sides of any probe compare the same sampled offsets.

There, probed ranges are shaved by k on both ends, which keeps every
candidate window inside the strings for every shift; matches are
therefore reported up to an edit slack proportional to k rather than
exactly.

Cost model below rate 1 (k > 4 ln n): the 2q + 1 + r <= 3r + 1 views share
one sample of rate 4 ln n / k, and building a view folds each sampled
position once, so construction takes (2q + 1 + r) * |S| folds, at most
about 12 n ln n / sqrt(k): the n / sqrt(k) law up to its log factor. The
views are hashed together into one `hashing.ViewStack`, a few views per
numpy pass (blocks of about 2^12 symbols), so at small |S| the build pays
numpy's per-call cost per block rather than per view. A probe window
lands on the same pair of prefix positions (l, h) in every view, where
each view's hash is x^h times the difference of its prefix sums, so a
probe is one locate (two binary searches) plus reads of those two columns
of the ViewStack, then at most 2q + 1 + r subtractions mod p and no power
of x. A call gallops up the length from the floor 2k and then bisects,
scanning after each hit only the A views from the hit's on.
"""

from __future__ import annotations

from .hashing import HashConfig, OpCounters
from .strings import ByteString
from .wave import NoPrepShiftOracle


class NoPrepOracle(NoPrepShiftOracle):
    """Longest-alignment oracle built per query pair, sublinear in n: the
    shift oracle at l = k, whose views serve only i_a = i_b."""

    def __init__(self, a: ByteString, b: ByteString, k: int, cfg: HashConfig,
                 counters: OpCounters | None = None):
        self._build(a, b, k, k, 0, cfg, counters)

    # an entry of its own, so a trace can tell greedy's calls from the wave's
    __call__ = NoPrepShiftOracle.__call__
