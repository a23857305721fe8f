"""Test-instance generation: close pairs with planted edits, certified far
pairs, and periodic stress strings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .strings import ByteString, edit_distance_at_most, edit_distance_exact


@dataclass
class Instance:
    a: ByteString
    b: ByteString
    label: str  # "small" or "large"
    seed: int | None = None
    planted_edits: int | None = None  # upper bound on distance, small side
    exact_ed: int | None = None
    threshold: int | None = None  # certified strict lower bound, large side


def _random_string(rng: np.random.Generator, n: int, sigma: int) -> ByteString:
    return ByteString(rng.integers(1, sigma + 1, size=n, dtype=np.int64), sigma)


def plant_edits(a: ByteString, edits: int, rng: np.random.Generator) -> ByteString:
    """Apply `edits` random edits to a copy of a, pairing every deletion
    with an insertion so the length is preserved; distance <= edits."""
    vals = list(a.data)
    t = int(rng.integers(0, edits // 2 + 1)) if edits >= 2 else 0
    subs = edits - 2 * t
    for _ in range(t):
        pos = int(rng.integers(0, len(vals)))
        del vals[pos]
        pos = int(rng.integers(0, len(vals) + 1))
        vals.insert(pos, int(rng.integers(1, a.sigma + 1)))
    for _ in range(subs):
        pos = int(rng.integers(0, len(vals)))
        vals[pos] = int(rng.integers(1, a.sigma + 1))
    return ByteString(np.asarray(vals, dtype=np.int64), a.sigma)


def gen_planted(n: int, sigma: int, edits: int, seed=None,
                compute_exact: bool = False,
                base: ByteString | None = None) -> Instance:
    """Random A (or the given one) and a B derived from it by `edits`
    length-preserving edits, so |B| = |A| = n and distance <= edits.
    Raises ValueError unless 0 <= edits <= n."""
    if not 0 <= edits <= n:
        raise ValueError(f"edits must be in 0..n = 0..{n}")
    rng = np.random.default_rng(seed)
    a = base if base is not None else _random_string(rng, n, sigma)
    b = plant_edits(a, edits, rng)
    inst = Instance(a, b, "small", seed=_seed_int(seed), planted_edits=edits)
    if compute_exact:
        inst.exact_ed = edit_distance_exact(a, b)
    return inst


def gen_large_side(n: int, sigma: int, threshold: int, seed=None,
                   max_tries: int = 20) -> Instance:
    """Random pair certified to have edit distance strictly above
    `threshold` (checked by `edit_distance_at_most`: Landau-Vishkin for
    small thresholds, Myers' bit-vector DP with its diagonal cutoff for ones
    large next to n, such as 2560 at n = 4096, where LV takes seconds).
    Raises if `threshold` is not reachable for this alphabet; random pairs
    concentrate around a distance proportional to n with a constant that
    grows with sigma."""
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(max_tries):
        a = _random_string(rng, n, sigma)
        b = _random_string(rng, n, sigma)
        if not edit_distance_at_most(a, b, threshold):
            return Instance(a, b, "large", seed=_seed_int(seed),
                            threshold=threshold)
        last = (a, b)
    raise ValueError(
        f"could not certify distance > {threshold} for n={n}, sigma={sigma} "
        f"after {max_tries} random pairs; the requested threshold likely "
        f"exceeds the typical distance of random pairs over this alphabet")


def gen_periodic(n: int, sigma: int, period: int, seed=None,
                 corrupt: int = 0) -> ByteString:
    """Repetition of one random block of the given period, optionally with
    `corrupt` random substitutions; adversarial for alignment search.
    Raises ValueError for a period below 1 or a negative `corrupt`."""
    if period < 1:
        raise ValueError(f"period must be at least 1, got {period}")
    if corrupt < 0:
        raise ValueError(f"corrupt must be at least 0, got {corrupt}")
    rng = np.random.default_rng(seed)
    block = rng.integers(1, sigma + 1, size=period, dtype=np.int64)
    reps = -(-n // period)
    data = np.tile(block, reps)[:n]
    for _ in range(corrupt):
        pos = int(rng.integers(0, n))
        data[pos] = int(rng.integers(1, sigma + 1))
    return ByteString(data, sigma)


def _seed_int(seed):
    try:
        return int(seed)
    except (TypeError, ValueError):
        return None


def save_instance(inst: Instance, stem: Path) -> None:
    stem = Path(stem)
    stem.with_suffix(".a").write_bytes(inst.a.to_bytes())
    stem.with_suffix(".b").write_bytes(inst.b.to_bytes())
    meta = {
        "sigma": inst.a.sigma,
        "n": len(inst.a),
        "label": inst.label,
        "seed": inst.seed,
        "planted_edits": inst.planted_edits,
        "exact_ed": inst.exact_ed,
        "threshold": inst.threshold,
    }
    stem.with_suffix(".json").write_text(json.dumps(meta, indent=2))


def load_instance(stem: Path) -> Instance:
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text())
    sigma = int(meta["sigma"])
    a = ByteString.from_bytes(stem.with_suffix(".a").read_bytes(), sigma)
    b = ByteString.from_bytes(stem.with_suffix(".b").read_bytes(), sigma)
    return Instance(a, b, meta["label"], seed=meta.get("seed"),
                    planted_edits=meta.get("planted_edits"),
                    exact_ed=meta.get("exact_ed"),
                    threshold=meta.get("threshold"))
