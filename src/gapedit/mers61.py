"""Modular arithmetic mod the Mersenne prime 2^61 - 1.

Scalar paths use plain Python integers (arbitrary precision makes the
straightforward expressions exact). The vector paths have one multiply,
`mulmod_limbs`: it splits both operands into 31-bit limbs, so products
never overflow numpy's uint64. `mulmod_vec` splits its second operand
first; callers that keep one factor's limbs in a table pass them directly.
"""

from __future__ import annotations

import numpy as np

P61 = (1 << 61) - 1

_MASK61 = np.uint64(P61)
_SHIFT61 = np.uint64(61)
_LIMB_BITS = np.uint64(31)
_LIMB_MASK = np.uint64((1 << 31) - 1)
_SHIFT30 = np.uint64(30)
_MASK30 = np.uint64((1 << 30) - 1)
_ONE = np.uint64(1)


def mulmod(a: int, b: int) -> int:
    return (a * b) % P61


def _fold61(v: np.ndarray) -> np.ndarray:
    """Reduce any uint64 values mod p. One shift-fold leaves v <= p + 7;
    where v >= p, v - p is smaller, and where v < p it wraps past 2^63."""
    v = (v >> _SHIFT61) + (v & _MASK61)
    return np.minimum(v, v - _MASK61)


def canonical61(v: np.ndarray) -> np.ndarray:
    """The residues in [0, p) of uint64 v <= p + 7, as `_fold61` ends."""
    return np.minimum(v, v - _MASK61)


def mulmod_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise (a * b) mod (2^61 - 1) for uint64 arrays with values < 2^62."""
    return mulmod_limbs(a, *limbs(b))


def mulmod_limbs(a: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
                 ) -> np.ndarray:
    """Elementwise a * (b_lo + b_hi 2^31) mod (2^61 - 1), for uint64 a < 2^62
    and limbs b_lo, b_hi < 2^31 (see `limbs`)."""
    a_lo = a & _LIMB_MASK
    a_hi = a >> _LIMB_BITS  # < 2^31
    # a*b = a_lo*b_lo + mid*2^31 + a_hi*b_hi*2^62, with 2^62 = 2 (mod p);
    # mid*2^31 = (mid >> 30)*2^61 + (mid mod 2^30)*2^31
    mid = a_lo * b_hi + a_hi * b_lo  # < 2^63
    v = (a_lo * b_lo + (mid >> _SHIFT30) + ((mid & _MASK30) << _LIMB_BITS)
         + ((a_hi * b_hi) << _ONE))  # < 2^62 + 2^33 + 2^61 + 2^63 < 2^64
    return _fold61(v)


def fold_limbs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo + hi 2^31 mod (2^61 - 1) for any uint64 lo, hi, left <= p + 2 (as
    `mulmod_limbs` accepts). hi 2^31 = (hi >> 30) 2^61 + (hi mod 2^30) 2^31,
    and 2^61 = 1 (mod p)."""
    v = ((lo >> _SHIFT61) + (lo & _MASK61) + (hi >> _SHIFT30)
         + ((hi & _MASK30) << _LIMB_BITS))  # < 2^62 + 2^35
    return (v >> _SHIFT61) + (v & _MASK61)


def limbs(a: np.ndarray) -> np.ndarray:
    """The 31-bit limbs (a mod 2^31, a >> 31) of uint64 a < 2^62, stacked."""
    return np.stack([a & _LIMB_MASK, a >> _LIMB_BITS])


def submod_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    d = a - b  # wraps past 2^63 where a < b, and then d + p is the residue
    return np.minimum(d, d + _MASK61)
