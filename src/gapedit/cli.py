"""Command-line front end.

Strings live on disk as raw byte files (symbol value = byte + 1). Runs
emit one JSON record per decision so results can be collected and
compared across modes and parameter grids.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import tempfile
import time
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import (ByteString, GapVerdict, GreedyTrace, HashConfig, OpCounters,
               gap_match, gap_wave, gen_large_side, gen_periodic, gen_planted,
               load_instance, save_instance)
from .greedy import check_index_params
from .hashing import RollingHashState, check_alphabet
from .instances import Instance
from .no_prep import NoPrepOracle
from .one_sided import _HEAD, MAGIC_1S, OneSidedIndex, OneSidedOracle
from .strings import edit_distance_at_most, edit_distance_exact

RECORD_SCHEMA = 1
MODES = ("exact", "noprep", "onesided", "twosided")


def _given_seed(args_seed):
    """--seed, else GAPEDIT_SEED, else None; ValueError if not digits."""
    text = str(args_seed) if args_seed is not None else os.environ.get(
        "GAPEDIT_SEED")
    if text and not (text.isascii() and text.isdigit()):
        raise ValueError(f"seed must be a non-negative integer, got {text}")
    return int(text) if text else None


def _default_seed(args_seed):
    """The given seed, else a fresh one: the run record stores it, so every
    run can be replayed."""
    seed = _given_seed(args_seed)
    return secrets.randbits(63) if seed is None else seed


def _check_sigma(sigma: int) -> None:
    if not 1 <= sigma <= 256:
        raise ValueError("sigma must be in 1..256 (one byte per symbol on "
                         "disk)")


def _read_string(path: str, sigma: int) -> ByteString:
    """The string in `path`; a sigma outside 1..256, a file that cannot be
    read, or one that holds a symbol above sigma raises ValueError."""
    _check_sigma(sigma)
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror}") from None
    return ByteString.from_bytes(raw, sigma)


def _emit(record: dict, path: str | None) -> None:
    line = json.dumps(record)
    if path:
        with open(path, "a") as f:
            f.write(line + "\n")
    print(line)


def _warn_params(n: int, k: int) -> None:
    if k * k > n:
        print(f"warning: k={k} exceeds sqrt(n)={math.isqrt(n)}; the gap "
              f"thresholds may leave no LARGE regime at this length",
              file=sys.stderr)


def cmd_gen(args) -> int:
    try:
        seed = _default_seed(args.seed)
        if args.n < 1:
            raise ValueError("n must be at least 1")
        _check_sigma(args.sigma)
        if not 0 <= args.edits <= args.n:
            raise ValueError(f"edits must be in 0..n = 0..{args.n}")
        if args.corrupt < 0:
            raise ValueError(f"corrupt must be at least 0, got {args.corrupt}")
        if args.threshold < 0:
            raise ValueError(f"threshold must be at least 0, got "
                             f"{args.threshold}")
        if args.periodic and args.label == "large":
            raise ValueError(f"periodic pairs carry no certified distance, "
                             f"got --periodic {args.periodic} --label large")
        if args.threshold and (args.periodic or args.label != "large"):
            raise ValueError(f"a threshold is certified only in --label "
                             f"large pairs, got --threshold {args.threshold}")
        if args.exact and (args.periodic or args.label != "small"):
            raise ValueError("exact distances are computed only for planted "
                             "--label small pairs, got --exact")
        if args.periodic:
            s = gen_periodic(args.n, args.sigma, args.periodic, seed=seed,
                             corrupt=args.corrupt)
            # the same stream: B takes A's substitutions, then `edits` more
            t = gen_periodic(args.n, args.sigma, args.periodic, seed=seed,
                             corrupt=args.corrupt + args.edits)
            inst = Instance(s, t, "periodic", seed=seed,
                            planted_edits=args.edits)
        elif args.corrupt:
            raise ValueError(f"corrupt needs --periodic, got --corrupt "
                             f"{args.corrupt}")
        elif args.label == "small":
            inst = gen_planted(args.n, args.sigma, args.edits, seed=seed,
                               compute_exact=args.exact)
        elif args.edits:
            raise ValueError(f"edits are planted only in --label small "
                             f"pairs, got --edits {args.edits}")
        else:
            inst = gen_large_side(args.n, args.sigma, args.threshold,
                                  seed=seed)
    except ValueError as err:
        return _usage_error("gen", err)
    try:
        save_instance(inst, Path(args.out))
    except OSError as err:
        return _usage_error("gen", ValueError(
            f"cannot write {args.out}: {err.strerror}"))
    _emit({"schema": RECORD_SCHEMA, "command": "gen", "out": args.out,
           "n": args.n, "sigma": args.sigma, "label": inst.label,
           "seed": inst.seed, "planted_edits": inst.planted_edits,
           "threshold": inst.threshold, "exact_ed": inst.exact_ed},
          args.record)
    return 0


def cmd_exact(args) -> int:
    try:
        if args.at_most is not None and args.at_most < 0:
            raise ValueError(f"at-most must be at least 0, got "
                             f"{args.at_most}")
        a = _read_string(args.a, args.sigma)
        b = _read_string(args.b, args.sigma)
    except ValueError as err:
        return _usage_error("exact", err)
    t0 = time.perf_counter()
    if args.at_most is not None:
        ok = edit_distance_at_most(a, b, args.at_most)
        rec = {"at_most": args.at_most, "within": bool(ok)}
    else:
        rec = {"distance": edit_distance_exact(a, b)}
    rec.update({"schema": RECORD_SCHEMA, "command": "exact",
                "n": len(a), "m": len(b),
                "seconds": round(time.perf_counter() - t0, 6)})
    _emit(rec, args.record)
    return 0


def _usage_error(command: str, err: ValueError) -> int:
    print(f"gapedit {command}: error: {err}", file=sys.stderr)
    return 2


def cmd_gap(args) -> int:
    try:
        seed = _default_seed(args.seed)
        a = _read_string(args.a, args.sigma)
        b = _read_string(args.b, args.sigma)
        _warn_params(len(b), args.k)
        t0 = time.perf_counter()
        verdict, counters = gap_match(a, b, args.k, mode=args.mode, seed=seed)
    except ValueError as err:
        return _usage_error("gap", err)
    _emit({"schema": RECORD_SCHEMA, "command": "gap", "mode": args.mode,
           "n": len(b), "k": args.k, "seed": seed,
           "verdict": verdict.value, "counters": asdict(counters),
           "seconds": round(time.perf_counter() - t0, 6)}, args.record)
    return 0


def cmd_wave(args) -> int:
    try:
        seed = _default_seed(args.seed)
        a = _read_string(args.a, args.sigma)
        b = _read_string(args.b, args.sigma)
        _warn_params(len(b), args.k)
        t0 = time.perf_counter()
        verdict, counters = gap_wave(a, b, args.k, args.ell, args.mode,
                                     seed=seed)
    except ValueError as err:
        return _usage_error("wave", err)
    _emit({"schema": RECORD_SCHEMA, "command": "wave", "mode": args.mode,
           "n": len(b), "k": args.k, "ell": args.ell, "seed": seed,
           "verdict": verdict.value, "counters": asdict(counters),
           "seconds": round(time.perf_counter() - t0, 6)}, args.record)
    return 0


def cmd_bench(args) -> int:
    try:
        seed = _default_seed(args.seed)
        if min(args.ns) < 1:
            raise ValueError("n must be at least 1")
        if args.trials < 1:
            raise ValueError(f"trials must be at least 1, got {args.trials}")
        if args.sigma < 1:
            raise ValueError(f"sigma must be at least 1, got {args.sigma}")
        check_alphabet(max(args.ns), args.sigma)
        for k in args.ks:
            check_index_params(k)
            if k > min(args.ns):
                # each pair gets k planted edits
                raise ValueError(f"k = {k} exceeds n = {min(args.ns)}")
    except ValueError as err:
        return _usage_error("bench", err)
    root = np.random.SeedSequence(seed)
    for n in args.ns:
        for k in args.ks:
            child_seeds = root.spawn(args.trials)
            agg = OpCounters()
            t0 = time.perf_counter()
            verdicts = []
            for t in range(args.trials):
                s = int(child_seeds[t].generate_state(1)[0])
                inst = gen_planted(n, args.sigma, k, seed=s)
                verdict, counters = gap_match(inst.a, inst.b, k,
                                              mode=args.mode, seed=s)
                agg.merge(counters)
                verdicts.append(verdict.value)
            _emit({"schema": RECORD_SCHEMA, "command": "bench",
                   "mode": args.mode, "n": n, "k": k, "seed": seed,
                   "trials": args.trials,
                   "small": verdicts.count("small"),
                   "counters": asdict(agg),
                   "seconds": round(time.perf_counter() - t0, 6)},
                  args.record)
    return 0


def cmd_selftest(args) -> int:
    try:
        seed = _given_seed(args.seed) or 0
    except ValueError as err:
        return _usage_error("selftest", err)
    failures = []

    def check(name, cond):
        print(f"{'ok' if cond else 'FAIL'}  {name}")
        if not cond:
            failures.append(name)

    inst = gen_planted(256, 8, 4, seed=seed)
    big = gen_large_side(256, 64, 200, seed=seed)
    wv = gen_planted(256, 8, 9, seed=seed + 1)
    traces = {mode: GreedyTrace() for mode in MODES}
    for mode in MODES:
        v, _ = gap_match(inst.a, inst.b, 4, mode=mode, seed=seed,
                         trace=traces[mode])
        check(f"gap {mode} small", v == GapVerdict.SMALL)
        v, _ = gap_match(big.a, big.b, 2, mode=mode, seed=seed)
        check(f"gap {mode} large", v == GapVerdict.LARGE)
        v, _ = gap_wave(wv.a, wv.b, 9, 3, mode, seed=seed)
        check(f"wave {mode} small", v == GapVerdict.SMALL)
        # ed(big) > 200 > 10 k l = 80
        v, _ = gap_wave(big.a, big.b, 4, 2, mode, seed=seed)
        check(f"wave {mode} large", v == GapVerdict.LARGE)
    # at sampling rate 1 (k = 4 <= 4 ln 256) the three ask one oracle
    check("gap noprep, onesided and twosided trace alike",
          traces["noprep"] == traces["onesided"] == traces["twosided"])

    # corrupted index files must be rejected, not silently used
    with tempfile.TemporaryDirectory() as td:
        cfg = HashConfig.from_seed(seed)
        idx = OneSidedIndex.preprocess(inst.a, 4, cfg)
        p = Path(td) / "x.1s"
        idx.save(p)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        try:
            OneSidedIndex.load(p)
            check("corrupt index rejected", False)
        except ValueError:
            check("corrupt index rejected", True)

    # below sampling rate 1 (k = 24 > 4 ln 256): noprep's birthday split
    # and the general-layout index, on a pair at the promise's edge ed <= k
    sub = gen_planted(256, 8, 24, seed=seed + 2)
    for mode in ("noprep", "onesided"):
        v, _ = gap_match(sub.a, sub.b, 24, mode=mode, seed=seed)
        check(f"gap {mode} small below rate 1", v == GapVerdict.SMALL)
    cfg = HashConfig.from_seed(seed)
    orc = NoPrepOracle(sub.a, sub.b, 24, cfg)
    views = ([(sub.a, c * orc.r) for c in range(-orc.q, orc.q + 1)]
             + [(sub.b, -c) for c in range(orc.r)])
    check("noprep's stacked views equal one state per view", all(
        np.array_equal(orc.views.prefix[:, col], RollingHashState(
            s, orc.samples + o, cfg).prefix)
        for col, (s, o) in enumerate(views)))
    with tempfile.TemporaryDirectory() as td:
        p = Path(td) / "g.1s"
        OneSidedIndex.preprocess(sub.a, 24, cfg).save(p)
        raw = bytearray(p.read_bytes())
        # the sample positions moved past n under a recomputed checksum,
        # and one flipped hash byte under the old one
        head = len(MAGIC_1S) + _HEAD.size
        ns = _HEAD.unpack_from(raw, len(MAGIC_1S))[9]
        moved = raw[:-4]
        moved[head:head + 8 * ns] = (np.frombuffer(raw, "<i8", ns, head)
                                     + 1000).tobytes()
        moved += zlib.crc32(moved[len(MAGIC_1S):]).to_bytes(4, "little")
        flipped = raw.copy()
        flipped[-5] ^= 0xFF
        refused = 0
        for body in (moved, flipped):
            p.write_bytes(body)
            try:
                OneSidedIndex.load(p)
            except ValueError:
                refused += 1
        check("corrupt general-layout index rejected", refused == 2)

    # fault injection: a degenerate hash (x = 1) sums a window's symbols, so
    # it cannot tell A from B = A with two adjacent unequal symbols swapped
    # (past position 2); the brute-force referee must disagree on some query
    from .strings import max_shift_alignment_bruteforce as referee
    syms = inst.a.data.copy()
    t = 2 + int(np.flatnonzero(syms[3:] != syms[2:-1])[0])
    syms[[t, t + 1]] = syms[[t + 1, t]]
    b = ByteString(syms, inst.a.sigma)
    bad = OneSidedOracle(OneSidedIndex.preprocess(inst.a, 4, HashConfig(x=1)),
                         b)
    check("degenerate hash detected", any(
        bad(i, i) != referee(inst.a, b, i, i, 4, 4) for i in range(1, 257)))

    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gapedit",
        description="sublinear gap edit distance decisions")
    ap.add_argument("--record", help="append JSON run records to this file")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma", type=int, default=256)
    g.add_argument("--label", choices=["small", "large"], default="small")
    g.add_argument("--edits", type=int, default=0)
    g.add_argument("--threshold", type=int, default=0)
    g.add_argument("--periodic", type=int, default=0,
                   help="make a periodic pair with this period instead")
    g.add_argument("--corrupt", type=int, default=0)
    g.add_argument("--exact", action="store_true",
                   help="also record the exact distance")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output path stem")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("exact", help="exact edit distance")
    e.add_argument("a")
    e.add_argument("b")
    e.add_argument("--sigma", type=int, default=256)
    e.add_argument("--at-most", type=int, dest="at_most")
    e.set_defaults(func=cmd_exact)

    p = sub.add_parser("gap", help="k vs 40k^2 gap decision")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="noprep", choices=MODES)
    p.add_argument("--sigma", type=int, default=256)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gap)

    w = sub.add_parser("wave", help="k vs 10kl gap decision")
    w.add_argument("a")
    w.add_argument("b")
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--ell", type=int, required=True)
    w.add_argument("--mode", default="noprep", choices=MODES)
    w.add_argument("--sigma", type=int, default=256)
    w.add_argument("--seed", type=int)
    w.set_defaults(func=cmd_wave)

    b = sub.add_parser("bench", help="counter scaling over a grid")
    b.add_argument("--mode", default="noprep", choices=MODES)
    b.add_argument("--ns", type=int, nargs="+", required=True)
    b.add_argument("--ks", type=int, nargs="+", required=True)
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--sigma", type=int, default=16)
    b.add_argument("--seed", type=int)
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("selftest", help="quick end-to-end checks")
    s.add_argument("--seed", type=int)
    s.set_defaults(func=cmd_selftest)

    args = ap.parse_args(argv)
    if args.record:
        # opened as `_emit` opens it, before any work or file write, so a
        # path that cannot take records fails fast
        try:
            open(args.record, "a").close()
        except OSError as err:
            return _usage_error(args.command, ValueError(
                f"cannot write {args.record}: {err.strerror}"))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
