import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapedit import load_instance
from gapedit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in out if line.startswith("{")]


@pytest.fixture
def small_pair(tmp_path, capsys):
    stem = tmp_path / "s"
    code, recs = run(capsys, "gen", "--n", "256", "--sigma", "64",
                     "--edits", "4", "--seed", "3", "--out", str(stem))
    assert code == 0
    return stem


class TestGen:
    def test_small(self, tmp_path, capsys):
        stem = tmp_path / "x"
        code, recs = run(capsys, "gen", "--n", "128", "--sigma", "16",
                         "--edits", "2", "--seed", "1", "--out", str(stem),
                         "--exact")
        assert code == 0
        assert recs[0]["label"] == "small" and recs[0]["exact_ed"] <= 2
        assert stem.with_suffix(".a").stat().st_size == 128

    def test_large(self, tmp_path, capsys):
        stem = tmp_path / "y"
        code, recs = run(capsys, "gen", "--n", "256", "--sigma", "64",
                         "--label", "large", "--threshold", "128",
                         "--seed", "1", "--out", str(stem))
        assert code == 0 and recs[0]["threshold"] == 128

    def test_periodic_records_planted_edits(self, tmp_path, capsys):
        stem = tmp_path / "p"
        code, recs = run(capsys, "gen", "--n", "200", "--sigma", "4",
                         "--periodic", "7", "--corrupt", "3", "--edits", "5",
                         "--seed", "2", "--out", str(stem))
        assert code == 0 and recs[0]["label"] == "periodic"
        assert recs[0]["planted_edits"] == 5
        inst = load_instance(stem)
        assert inst.planted_edits == 5
        # B is A with 5 more substitutions from the same stream
        assert 0 < int((inst.a.data != inst.b.data).sum()) <= 5


class TestExact:
    def test_distance(self, small_pair, capsys):
        code, recs = run(capsys, "exact", str(small_pair) + ".a",
                         str(small_pair) + ".b", "--sigma", "64")
        assert code == 0 and 0 < recs[0]["distance"] <= 4

    def test_at_most(self, small_pair, capsys):
        code, recs = run(capsys, "exact", str(small_pair) + ".a",
                         str(small_pair) + ".b", "--sigma", "64",
                         "--at-most", "4")
        assert code == 0 and recs[0]["within"] is True


class TestGapAndWave:
    def test_gap_all_modes(self, small_pair, capsys):
        for mode in ("exact", "noprep", "onesided", "twosided"):
            code, recs = run(capsys, "gap", str(small_pair) + ".a",
                             str(small_pair) + ".b", "--k", "4",
                             "--mode", mode, "--seed", "9", "--sigma", "64")
            assert code == 0 and recs[0]["verdict"] == "small"
            assert recs[0]["schema"] == 1

    def test_wave(self, small_pair, capsys):
        code, recs = run(capsys, "wave", str(small_pair) + ".a",
                         str(small_pair) + ".b", "--k", "9", "--ell", "3",
                         "--mode", "noprep", "--seed", "9", "--sigma", "64")
        assert code == 0 and recs[0]["verdict"] == "small"

    def test_record_file(self, small_pair, tmp_path, capsys):
        rec = tmp_path / "runs.jsonl"
        code, _ = run(capsys, "--record", str(rec), "gap",
                      str(small_pair) + ".a", str(small_pair) + ".b",
                      "--k", "4", "--seed", "1", "--sigma", "64")
        assert code == 0
        lines = rec.read_text().strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["command"] == "gap"

    def test_env_seed(self, small_pair, capsys, monkeypatch):
        monkeypatch.setenv("GAPEDIT_SEED", "123")
        code, recs = run(capsys, "gap", str(small_pair) + ".a",
                         str(small_pair) + ".b", "--k", "4", "--sigma", "64")
        assert code == 0 and recs[0]["seed"] == 123

    def test_unseeded_gap_record_replays(self, small_pair, capsys,
                                         monkeypatch):
        monkeypatch.delenv("GAPEDIT_SEED", raising=False)
        pair = str(small_pair) + ".a", str(small_pair) + ".b"
        code, recs = run(capsys, "gap", *pair, "--k", "4", "--sigma", "64")
        assert code == 0 and isinstance(recs[0]["seed"], int)
        code, again = run(capsys, "gap", *pair, "--k", "4", "--sigma", "64",
                          "--seed", str(recs[0]["seed"]))
        assert code == 0
        assert again[0]["verdict"] == recs[0]["verdict"]
        assert again[0]["counters"] == recs[0]["counters"]

    def test_unseeded_gen_record_replays(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.delenv("GAPEDIT_SEED", raising=False)
        args = "gen", "--n", "64", "--sigma", "8", "--edits", "3"
        code, recs = run(capsys, *args, "--out", str(tmp_path / "x"))
        assert code == 0 and isinstance(recs[0]["seed"], int)
        code, _ = run(capsys, *args, "--out", str(tmp_path / "y"),
                      "--seed", str(recs[0]["seed"]))
        assert code == 0
        for ext in (".a", ".b"):
            assert ((tmp_path / "x").with_suffix(ext).read_bytes()
                    == (tmp_path / "y").with_suffix(ext).read_bytes())

    def test_warns_on_oversized_k(self, small_pair, capsys):
        main(["gap", str(small_pair) + ".a", str(small_pair) + ".b",
              "--k", "64", "--mode", "exact", "--sigma", "64"])
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,warns", [
        (("wave", "--k", "64", "--ell", "8"), "10 k l = 5120"),
        (("wave", "--k", "100", "--ell", "1"), None),  # 1000
        (("gap", "--k", "10"), None),  # 4000
        (("gap", "--k", "11"), "40 k^2 = 4840"),
    ])
    def test_warns_when_the_far_threshold_reaches_n(self, tmp_path, capsys,
                                                    argv, warns):
        stem = str(tmp_path / "p")
        assert main(["gen", "--n", "4096", "--sigma", "4", "--edits", "8",
                     "--seed", "0", "--out", stem]) == 0
        capsys.readouterr()
        assert main([argv[0], stem + ".a", stem + ".b", *argv[1:],
                     "--mode", "exact", "--seed", "1"]) == 0
        err = capsys.readouterr().err
        if warns:
            assert (f"warning: the far threshold {warns} is at least "
                    f"n = 4096") in err
        else:
            assert "warning" not in err


class TestBenchAndSelftest:
    def test_bench_grid(self, capsys):
        code, recs = run(capsys, "bench", "--ns", "128", "256",
                         "--ks", "4", "--trials", "2", "--seed", "5")
        assert code == 0 and len(recs) == 2
        assert all(r["small"] == 2 for r in recs)

    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "selftest: ok" in out
        assert "FAIL" not in out
        assert ("ok  gap exact, noprep, onesided and twosided trace alike"
                in out)
        # one pair below sampling rate 1 (n = 256, k = 24), and a corrupt
        # index file in each layout
        for line in ("gap noprep small below rate 1",
                     "gap onesided small below rate 1",
                     "corrupt rate-1 index rejected",
                     "corrupt general-layout index rejected"):
            assert f"ok  {line}\n" in out

    def test_selftest_writes_one_record(self, tmp_path, capsys):
        rec = tmp_path / "runs.jsonl"
        assert main(["--record", str(rec), "selftest", "--seed", "1"]) == 0
        lines = rec.read_text().splitlines()
        assert len(lines) == 1
        got = json.loads(lines[0])
        assert got["command"] == "selftest" and got["ok"] is True
        assert got["failed"] == [] and got["seed"] == 1
        # printed after the verdict line, as the same record
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["selftest: ok", lines[0]]


class TestRecordKeys:
    DECISION = {"schema", "command", "mode", "n", "k", "seed", "verdict",
                "counters", "seconds"}

    @pytest.mark.parametrize("argv,keys", [
        (["gen", "--n", "64", "--seed", "1", "--out", "{out}"],
         {"schema", "command", "out", "n", "sigma", "label", "seed",
          "planted_edits", "threshold", "exact_ed"}),
        (["exact", "{a}", "{b}", "--sigma", "64"],
         {"schema", "command", "n", "m", "distance", "seconds"}),
        (["exact", "{a}", "{b}", "--sigma", "64", "--at-most", "4"],
         {"schema", "command", "n", "m", "at_most", "within", "seconds"}),
        (["gap", "{a}", "{b}", "--sigma", "64", "--k", "4", "--seed", "1"],
         DECISION),
        (["wave", "{a}", "{b}", "--sigma", "64", "--k", "9", "--ell", "3",
          "--seed", "1"], DECISION | {"ell"}),
        (["bench", "--ns", "64", "--ks", "4", "--trials", "1", "--seed", "1"],
         {"schema", "command", "mode", "n", "k", "seed", "trials", "small",
          "counters", "seconds"}),
        (["selftest", "--seed", "1"],
         {"schema", "command", "seed", "ok", "failed"}),
    ])
    def test_record_has_exactly_its_fields(self, small_pair, tmp_path,
                                           capsys, argv, keys):
        paths = {"a": f"{small_pair}.a", "b": f"{small_pair}.b",
                 "out": str(tmp_path / "x")}
        code, recs = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0 and len(recs) == 1
        assert set(recs[0]) == keys


def test_cli_imports_no_private_name():
    # the front end reaches the library through its public names only
    tree = ast.parse((SRC / "gapedit" / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


class TestBadParameters:
    @pytest.mark.parametrize("argv", [
        ["gap", "--k", "0", "--mode", "noprep", "--seed", "1"],
        ["gap", "--k", "-3", "--mode", "onesided", "--seed", "1"],
        ["wave", "--k", "4", "--ell", "0", "--mode", "noprep", "--seed", "1"],
        ["wave", "--k", "4", "--ell", "5", "--mode", "twosided", "--seed",
         "1"],
        ["exact", "--at-most", "-3"],
    ])
    def test_one_line_usage_error(self, small_pair, capsys, argv):
        cmd, *opts = argv
        code = main([cmd, str(small_pair) + ".a", str(small_pair) + ".b",
                     "--sigma", "64", *opts])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"gapedit {cmd}: error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd,opts", [
        ("gap", ["--k", "4"]),
        ("wave", ["--k", "4", "--ell", "2"]),
        ("exact", []),
    ])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_missing_file(self, small_pair, tmp_path, capsys, cmd, opts,
                          which):
        pair = {"a": str(small_pair) + ".a", "b": str(small_pair) + ".b"}
        pair[which] = str(tmp_path / "absent")
        code = main([cmd, pair["a"], pair["b"], "--sigma", "64", *opts])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == (f"gapedit {cmd}: error: cannot read "
                               f"{pair[which]}: No such file or directory")

    @pytest.mark.parametrize("cmd,opts", [
        ("gap", ["--k", "4"]),
        ("wave", ["--k", "4", "--ell", "2"]),
        ("exact", []),
    ])
    def test_symbol_above_sigma(self, small_pair, capsys, cmd, opts):
        code = main([cmd, str(small_pair) + ".a", str(small_pair) + ".b",
                     "--sigma", "2", *opts])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == (f"gapedit {cmd}: error: symbol out of range "
                               "1..sigma")

    @pytest.mark.parametrize("cmd,opts", [
        ("gap", ["--k", "4"]),
        ("wave", ["--k", "4", "--ell", "2"]),
        ("exact", []),
    ])
    @pytest.mark.parametrize("sigma", ["0", "257", "300"])
    def test_sigma_outside_one_byte(self, small_pair, capsys, cmd, opts,
                                    sigma):
        code = main([cmd, str(small_pair) + ".a", str(small_pair) + ".b",
                     "--sigma", sigma, *opts])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == (f"gapedit {cmd}: error: sigma must be in "
                               "1..256 (one byte per symbol on disk)")

    @pytest.mark.parametrize("opts,msg", [
        (["--ns", "128", "--ks", "4", "0"], "k must be at least 1"),
        (["--ns", "0", "--ks", "4"], "n must be at least 1"),
        (["--ns", "64", "8", "--ks", "4", "10"], "k = 10 exceeds n = 8"),
        (["--ns", "64", "--ks", "4", "--trials", "-1"],
         "trials must be at least 1, got -1"),
        (["--ns", "64", "--ks", "4", "--trials", "0"],
         "trials must be at least 1, got 0"),
        (["--ns", "64", "--ks", "4", "--sigma", "0"],
         "sigma must be at least 1, got 0"),
        (["--ns", "64", "--ks", "4", "--sigma", "10000000000000000"],
         "modulus too small for this length and alphabet"),
        # fits n = 64 but not n = 128: refused before any record
        (["--ns", "64", "128", "--ks", "2", "--sigma", "300000000000000"],
         "modulus too small for this length and alphabet"),
    ])
    def test_bench_bad_grid(self, capsys, opts, msg):
        code = main(["bench", "--trials", "1", *opts, "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == f"gapedit bench: error: {msg}"

    @pytest.mark.parametrize("opts,msg", [
        (["--n", "0"], "n must be at least 1"),
        (["--n", "-4"], "n must be at least 1"),
        (["--n", "64", "--sigma", "0"], "sigma must be in 1..256"),
        (["--n", "64", "--sigma", "257"], "sigma must be in 1..256"),
        (["--n", "64", "--sigma", "300"], "sigma must be in 1..256"),
        (["--n", "64", "--label", "large", "--threshold", "1000"],
         "could not certify distance > 1000"),
        (["--n", "8", "--edits", "-2"], "edits must be in 0..n = 0..8"),
        (["--n", "4", "--edits", "10", "--exact"],
         "edits must be in 0..n = 0..4"),
        (["--n", "8", "--periodic", "3", "--corrupt", "-5", "--sigma", "4"],
         "corrupt must be at least 0, got -5"),
        (["--n", "8", "--corrupt", "-1"], "corrupt must be at least 0"),
        (["--n", "8", "--periodic", "-3", "--sigma", "4"],
         "period must be at least 1, got -3"),
        (["--n", "8", "--corrupt", "3"],
         "corrupt needs --periodic, got --corrupt 3"),
        (["--n", "64", "--label", "large", "--threshold", "16", "--edits",
          "3"], "edits are planted only in --label small pairs, got "
         "--edits 3"),
        (["--n", "64", "--threshold", "40"],
         "a threshold is certified only in --label large pairs, got "
         "--threshold 40"),
        (["--n", "64", "--periodic", "3", "--sigma", "4", "--threshold",
          "40"], "a threshold is certified only in --label large pairs, "
         "got --threshold 40"),
        (["--n", "64", "--periodic", "3", "--sigma", "4", "--exact"],
         "exact distances are computed only for planted --label small "
         "pairs, got --exact"),
        (["--n", "64", "--label", "large", "--threshold", "16", "--exact"],
         "exact distances are computed only for planted --label small "
         "pairs, got --exact"),
        (["--n", "64", "--periodic", "3", "--sigma", "4", "--label",
          "large", "--threshold", "30"],
         "periodic pairs carry no certified distance, got --periodic 3 "
         "--label large"),
        (["--n", "64", "--label", "large", "--threshold", "-5"],
         "threshold must be at least 0, got -5"),
    ])
    def test_gen_bad_request_writes_nothing(self, tmp_path, capsys, opts, msg):
        code = main(["gen", *opts, "--seed", "1", "--out",
                     str(tmp_path / "x")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"gapedit gen: error: {msg}")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["gap", "wave", "gen", "bench",
                                     "selftest"])
    @pytest.mark.parametrize("env,given", [
        ("abc", None), ("-5", None), ("1.5", None), (None, "-1")])
    def test_bad_seed(self, small_pair, tmp_path, capsys, monkeypatch, cmd,
                      env, given):
        # from GAPEDIT_SEED or --seed, read inside the command's checks
        if env is None:
            monkeypatch.delenv("GAPEDIT_SEED", raising=False)
        else:
            monkeypatch.setenv("GAPEDIT_SEED", env)
        pair = [str(small_pair) + ".a", str(small_pair) + ".b", "--sigma",
                "64"]
        opts = {"gap": [*pair, "--k", "4"],
                "wave": [*pair, "--k", "4", "--ell", "2"],
                "gen": ["--n", "64", "--out", str(tmp_path / "x")],
                "bench": ["--ns", "64", "--ks", "4", "--trials", "1"],
                "selftest": []}[cmd]
        seed = [] if given is None else ["--seed", given]
        code = main([cmd, *opts, *seed])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == (f"gapedit {cmd}: error: seed must be a "
                               f"non-negative integer, got {env or given}")
        assert not (tmp_path / "x.a").exists()

    def test_gen_unwritable_out(self, tmp_path, capsys):
        stem = tmp_path / "absent" / "x"
        code = main(["gen", "--n", "64", "--sigma", "4", "--seed", "1",
                     "--out", str(stem)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == (f"gapedit gen: error: cannot write {stem}: "
                               "No such file or directory")

    @pytest.mark.parametrize("cmd", ["gen", "exact", "gap", "wave", "bench"])
    @pytest.mark.parametrize("record,reason", [
        ("absent/r.jsonl", "No such file or directory"),
        (".", "Is a directory")])
    def test_unwritable_record(self, small_pair, tmp_path, capsys, cmd,
                               record, reason):
        # refused before any work, so gen writes no instance file either
        runs = tmp_path / "runs"
        runs.mkdir()
        path = runs / record
        pair = [str(small_pair) + ".a", str(small_pair) + ".b", "--sigma",
                "64"]
        seed = ["--seed", "1"]
        opts = {"gen": ["--n", "64", "--out", str(runs / "x"), *seed],
                "exact": pair,
                "gap": [*pair, "--k", "4", *seed],
                "wave": [*pair, "--k", "4", "--ell", "2", *seed],
                "bench": ["--ns", "64", "--ks", "4", "--trials", "1",
                          *seed]}[cmd]
        code = main(["--record", str(path), cmd, *opts])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.strip() == (f"gapedit {cmd}: error: cannot write {path}: "
                               f"{reason}")
        assert list(runs.iterdir()) == []

    def test_unequal_lengths(self, small_pair, tmp_path, capsys):
        short = tmp_path / "short.b"
        short.write_bytes(Path(str(small_pair) + ".b").read_bytes()[:-1])
        code = main(["gap", str(small_pair) + ".a", str(short), "--k", "4",
                     "--sigma", "64", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2 and "equal lengths" in err

    def test_module_exits_2_without_traceback(self, small_pair):
        proc = subprocess.run(
            [sys.executable, "-m", "gapedit.cli", "gap", str(small_pair) + ".a",
             str(small_pair) + ".b", "--k", "0", "--mode", "noprep",
             "--seed", "1", "--sigma", "64"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2
        assert proc.stderr.strip() == "gapedit gap: error: k must be at least 1"
        assert "Traceback" not in proc.stderr
