"""Command-line front end.

Strings live on disk as raw byte files (symbol value = byte + 1). Runs
emit one JSON record per decision so results can be collected and
compared across modes and parameter grids.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import (ByteString, GapVerdict, GreedyTrace, HashConfig, Instance,
               OneSidedIndex, OpCounters, TwoSidedIndex, TwoSidedOracle,
               edit_distance_at_most, edit_distance_exact, gap_match,
               gap_wave, gen_large_side, gen_periodic, gen_planted,
               save_instance)
from .greedy import check_index_params
from .hashing import check_alphabet

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


def _usage_error(command: str, err: ValueError) -> int:
    print(f"gapedit {command}: error: {err}", file=sys.stderr)
    return 2


def _warn_params(args, n: int) -> None:
    """Refuse a k or l the deciders refuse; then warn when the decider's far
    threshold is at least n: no two strings of length n are farther apart
    than n."""
    if args.command == "gap":
        ell, name, far = None, "40 k^2", 40 * args.k * args.k
    else:
        ell, name, far = args.ell, "10 k l", 10 * args.k * args.ell
    check_index_params(args.k, ell)
    if far >= n:
        print(f"warning: the far threshold {name} = {far} is at least "
              f"n = {n}; no LARGE regime is left at this length",
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


def _pair_command(args) -> int:
    """`exact`, `gap` and `wave`: read A and B, time the command's one
    library call and emit one record of its fields. The command's check
    runs before any file is read."""
    try:
        args.check(args)
        a = _read_string(args.a, args.sigma)
        b = _read_string(args.b, args.sigma)
        t0 = time.perf_counter()
        fields = args.call(args, a, b)
    except ValueError as err:
        return _usage_error(args.command, err)
    _emit({"schema": RECORD_SCHEMA, "command": args.command, **fields,
           "seconds": round(time.perf_counter() - t0, 6)}, args.record)
    return 0


def _check_at_most(args) -> None:
    if args.at_most is not None and args.at_most < 0:
        raise ValueError(f"at-most must be at least 0, got {args.at_most}")


def _exact(args, a: ByteString, b: ByteString) -> dict:
    if args.at_most is None:
        return {"n": len(a), "m": len(b),
                "distance": edit_distance_exact(a, b)}
    return {"n": len(a), "m": len(b), "at_most": args.at_most,
            "within": bool(edit_distance_at_most(a, b, args.at_most))}


def _draw_seed(args) -> None:
    args.seed = _default_seed(args.seed)


def _decide(args, a: ByteString, b: ByteString) -> dict:
    """`gap` decides k vs 40 k^2 greedily, `wave` k vs 10 k l."""
    _warn_params(args, len(b))
    rec = {"mode": args.mode, "n": len(b), "k": args.k}
    if args.command == "gap":
        verdict, counters = gap_match(a, b, args.k, mode=args.mode,
                                      seed=args.seed)
    else:
        verdict, counters = gap_wave(a, b, args.k, args.ell, args.mode,
                                     seed=args.seed)
        rec["ell"] = args.ell
    return {**rec, "seed": args.seed, "verdict": verdict.value,
            "counters": asdict(counters)}


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
    # at sampling rate 1 (k = 4 <= 4 ln 256) the four run one search, over
    # symbols (exact, noprep, onesided) or over hashes (twosided)
    check("gap exact, noprep, onesided and twosided trace alike",
          traces["exact"] == traces["noprep"] == traces["onesided"]
          == traces["twosided"])

    # below sampling rate 1 (k = 24 > 4 ln 256): noprep's birthday split
    # and the general-layout index, on a pair at the promise's edge ed <= k
    sub = gen_planted(256, 8, 24, seed=seed + 2)
    for mode in ("noprep", "onesided"):
        v, _ = gap_match(sub.a, sub.b, 24, mode=mode, seed=seed)
        check(f"gap {mode} small below rate 1", v == GapVerdict.SMALL)

    # a corrupted index file must be refused, not silently used: in each
    # layout, one copy with its middle byte flipped and one a byte short
    cfg = HashConfig.from_seed(seed)
    with tempfile.TemporaryDirectory() as td:
        p = Path(td) / "x.1s"
        for layout, a, k in (("rate-1", inst.a, 4),
                             ("general-layout", sub.a, 24)):
            OneSidedIndex.preprocess(a, k, cfg).save(p)
            raw = p.read_bytes()
            mid = len(raw) // 2
            refused = 0
            for body in (raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1:],
                         raw[:-1]):
                p.write_bytes(body)
                try:
                    OneSidedIndex.load(p)
                except ValueError:
                    refused += 1
            check(f"corrupt {layout} index rejected", refused == 2)

    # fault injection: a degenerate hash (x = 1) sums a window's symbols, so
    # the two-sided oracle cannot tell A from B = A with two adjacent unequal
    # symbols swapped (past position 2); the brute-force referee must
    # disagree on some query
    from .strings import max_shift_alignment_bruteforce as referee
    syms = inst.a.data.copy()
    t = 2 + int(np.flatnonzero(syms[3:] != syms[2:-1])[0])
    syms[[t, t + 1]] = syms[[t + 1, t]]
    b = ByteString(syms, inst.a.sigma)
    bad = TwoSidedOracle(TwoSidedIndex.preprocess(inst.a, 4, HashConfig(x=1)),
                         b)
    check("degenerate hash detected", any(
        bad(i, i) != referee(inst.a, b, i, i, 4, 4) for i in range(1, 257)))

    print("selftest:", "FAIL" if failures else "ok")
    _emit({"schema": RECORD_SCHEMA, "command": "selftest", "seed": seed,
           "ok": not failures, "failed": failures}, args.record)
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

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("a")
    pair.add_argument("b")
    pair.add_argument("--sigma", type=int, default=256)
    pair.set_defaults(func=_pair_command)
    decider = argparse.ArgumentParser(add_help=False, parents=[pair])
    decider.add_argument("--k", type=int, required=True)
    decider.add_argument("--mode", default="noprep", choices=MODES)
    decider.add_argument("--seed", type=int)
    decider.set_defaults(check=_draw_seed, call=_decide)

    e = sub.add_parser("exact", parents=[pair], help="exact edit distance")
    e.add_argument("--at-most", type=int, dest="at_most")
    e.set_defaults(check=_check_at_most, call=_exact)
    sub.add_parser("gap", parents=[decider], help="k vs 40k^2 gap decision")
    w = sub.add_parser("wave", parents=[decider],
                       help="k vs 10kl gap decision")
    w.add_argument("--ell", type=int, required=True)

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
