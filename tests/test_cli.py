import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import polyaprofile
from polyaprofile import cli
from polyaprofile.cli import main
from polyaprofile.enumeration import count_trees


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_count_csv_golden():
    res = run("count", "--n-max", "10")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,y_n"
    ys = [int(line.split(",")[1]) for line in lines[1:]]
    assert ys == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_constants_json():
    res = run("constants", "--order", "200", "--degrees", "1,2")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert abs(payload["rho"] - 0.3383219) <= 1e-5
    assert abs(payload["b"] - 2.681) <= 1e-2
    assert abs(payload["C"] - 7.758) <= 1e-3
    assert set(payload["C_d"]) == {"1", "2"}


def test_profile_exact_distribution():
    res = run("profile-exact", "--n", "3", "--d", "1", "--k", "1")
    assert res.exit_code == 0
    assert "0,1/2" in res.output and "2,1/2" in res.output


def test_profile_exact_covariance_json():
    res = run(
        "profile-exact", "--n", "8", "--d", "1", "--k", "2", "--d2", "2",
        "--mode", "cov", "--format", "json",
    )
    assert res.exit_code == 0
    rows = {r["quantity"]: r["value"] for r in json.loads(res.output)}
    assert rows["covariance"] == "-2957/13225"


def test_sample_deterministic_and_headered():
    a = run("sample", "--n", "12", "--samples", "3", "--seed", "9", "--no-timestamp")
    b = run("sample", "--n", "12", "--samples", "3", "--seed", "9", "--no-timestamp")
    assert a.exit_code == 0
    assert a.output == b.output
    assert "# seed=9" in a.output
    assert "# params_sha256=" in a.output
    assert "# version=" in a.output
    assert "generated=" not in a.output


def _digest(res):
    assert res.exit_code == 0
    return hashlib.sha256(res.output.encode()).hexdigest()


def test_sample_golden_digest():
    # digest of the output of the pure big-integer selection walk; any
    # faster walk must keep every seeded tree
    res = run("sample", "--n", "400", "--samples", "5", "--seed", "9", "--no-timestamp")
    assert _digest(res) == "c5888da3db04ef85afbabf277fd77b7eaf22f9813cb52eaf5d0e1ac44d43edc5"


def test_montecarlo_golden_digest():
    # no --t-grid: cos and sin may differ in the last digit between libm builds
    res = run("montecarlo", "--n", "300", "--samples", "40", "--seed", "3",
              "--degrees", "1,2", "--kappas", "0.5,1.0", "--tightness",
              "--threads", "1", "--no-timestamp")
    assert _digest(res) == "5c6b569dc88eb2669f871d25354765fc59a1b143aae59bc887420e87da7ff47e"


@pytest.mark.parametrize("args,digest", [
    ("profile-exact --n 8 --d 1 --k 2",
     "60234caa166263d886f462b102febc8c453d78398730e489834305bb668087bc"),
    ("profile-exact --n 9 --d 2 --k 1 --format json",
     "0c73b2002dfa8cf29339953a87c4926decd6554048a9431361f0c0e559a15e6e"),
    ("profile-exact --n 8 --d 1 --k 1 --h 2",
     "bafcf87fa40b9e2b0b925cb41328b0149119eeb9c3d96f16fbb49074d2f05cdb"),
    ("profile-exact --n 8 --d 1 --k 1 --h 2 --format json",
     "6db12ab6c6a7e3d56e9921586358974141ae23240441904f1e11e0bd2bf1a73a"),
    ("profile-exact --n 10 --d 2 --k 2 --mode moments",
     "4269ef8bc8eb8ab1f3d32d23c3f0f31bcf35ad9b26e67e94e13086ed832c5001"),
    ("profile-exact --n 10 --d 2 --k 2 --h 1 --mode moments",
     "1ddcca63d121c710bcce62a186223b478b3f44ca42c733b1da00268095f3fa0b"),
    ("profile-exact --n 12 --d 1 --d2 2 --k 2 --mode cov",
     "65f5bdc370c5253028e2cbc221e413cc41c15e4a8cb61b36402ae58062fe55c4"),
    ("profile-exact --n 12 --d 1 --d2 2 --k 2 --mode cov --format json",
     "1daebac91998e9fd153d36597a5c8e6a27a23e965e7dbc2f8dff280e95a8526c"),
    ("profile-exact --n 30 --d 1 --d2 2 --k 100 --mode cov",
     "1510e718d495af34a982610248d303f5604b3216c5c96828b0bc69bd0a0a1544"),
    ("profile-exact --n 12 --d 2 --k 2 --mode cov",
     "2b2b71453e91a5d792e6626a0bf3979c3d9a9a8672fbd2cdb3ad72a9c416f593"),
    ("limits --what cov", "204e287417a21cb2094da9de07ef145fede78e78262ed96c0bafa87644738eec"),
    ("limits --what var", "0cc144c708ec812d78f68d0b6ec16331e08ac1ae06ba39fc9fbf771efa538a3d"),
    ("limits --what mean", "e1a069be2ad4fe0df74a64ef40acfbc1583ed4b4eba9ebbee1bb9bd70b34bb26"),
    ("limits --what corr", "816ff9c859ff78a7c0ea664c1dfa116d04eb3c8795952be019e7b821498cee13"),
    ("--help", "09240cff6b48ce36c0d7555af98db63c1ddfe3d281ca8a185be2951762e198ce"),
    ("count --help", "83e415a52015a9aecf0bfbca0e4c86bb9b1ed958a2d8487aebe424f60dd5feaa"),
    ("constants --help", "8e4f2e42d1674d9fe6c39ebe46bb18202eba4cd634fca7ed1ca28a3cb3e0cf7c"),
    ("profile-exact --help", "3e78d2279d50abeece2640f9aa95d979c8c317ee2eec038d4cf4ac7525b73eea"),
    ("sample --help", "cd2ef46b94d5a3d87c3b3afee9f9552e1e9e6a28823940271357da2c1b7c4b97"),
    ("montecarlo --help", "299876983bdb52a08dfa7c6a5c06408c4e89f8ec5f0eb5125aaec354cd69967f"),
    ("limits --help", "11408a6bee706b14b5c78a6002b6851628341ea707248b3f9069afe922d3ca69"),
    ("verify --help", "1e84d0e37ed77d20a99c5feebddd3e26651d72088e9125ba418bdc5e1d632c5e"),
], ids=["dist", "dist-json", "joint-csv", "joint-json", "moments", "moments-h", "cov-csv",
        "cov-json", "cov-past-height", "cov-same-degree", "limits-cov", "limits-var",
        "limits-mean", "limits-corr", "help", "help-count", "help-constants",
        "help-profile-exact", "help-sample", "help-montecarlo", "help-limits", "help-verify"])
def test_stdout_is_pinned(args, digest):
    # sha256 of stdout, recorded before the subcommands shared one runner;
    # the help text is laid out for an 80-column terminal
    res = CliRunner().invoke(main, args.split(), catch_exceptions=False, terminal_width=80)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_profile_exact_two_level_moment():
    res = run("profile-exact", "--n", "8", "--d", "1", "--k", "2", "--h", "1",
              "--mode", "moments")
    assert res.exit_code == 0
    assert "mixed_levels_2_3,86/115" in res.output


def test_montecarlo_threads_byte_identical():
    args = ["montecarlo", "--n", "40", "--samples", "160", "--seed", "6",
            "--degrees", "1", "--kappas", "1.0", "--no-timestamp"]
    a = run(*args, "--threads", "1")
    b = run(*args, "--threads", "3")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_montecarlo_csv_schema():
    res = run(
        "montecarlo", "--n", "30", "--samples", "50", "--seed", "4",
        "--degrees", "1", "--kappas", "1.0", "--t-grid", "0.5",
        "--tightness", "--no-timestamp",
    )
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if not l.startswith("#")]
    assert lines[0] == "kind,n,d,kappa,t,r,h,estimate,stderr,samples"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert {"mean", "ecf_re", "ecf_im", "tightness"} <= kinds


def test_limits_psi_csv():
    res = run("limits", "--what", "psi", "--d", "1", "--kappa", "1.0",
              "--t-grid", "0.0,1.0", "--order", "200")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "quantity,t,re,im,quadrature_error"
    first = lines[1].split(",")
    assert abs(float(first[2]) - 1.0) < 1e-9  # psi(0) = 1


def test_usage_error_exit_code():
    res = CliRunner().invoke(
        main, ["profile-exact", "--n", "12", "--d", "0", "--k", "1"]
    )
    assert res.exit_code == 2


def cli_process(*args, **env):
    """The CLI in a fresh interpreter, as a finished ``subprocess.CompletedProcess``."""
    src = os.path.dirname(os.path.dirname(polyaprofile.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "polyaprofile.cli", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def run_process(*args, **env):
    """The CLI in a fresh interpreter: (exit code, stdout and stderr)."""
    proc = cli_process(*args, **env)
    return proc.returncode, proc.stdout + proc.stderr


@pytest.mark.parametrize("args", [
    ("--n", "0", "--d", "1", "--k", "1"),
    ("--n", "-3", "--d", "1", "--k", "1", "--mode", "moments"),
    ("--n", "5", "--d", "1", "--k", "-2", "--mode", "cov"),
    ("--n", "5", "--d", "0", "--k", "1", "--h", "1"),
    ("--n", "8", "--d", "1", "--k", "2", "--mode", "cov", "--h", "1"),
    ("--n", "8", "--d", "1", "--k", "2", "--d2", "3"),
    ("--n", "8", "--d", "1", "--k", "2", "--d2", "3", "--mode", "moments"),
], ids=["n0", "n-3-moments", "k-2-cov", "d0-joint", "cov-h", "dist-d2", "moments-d2"])
def test_bad_profile_arguments_exit_2_without_traceback(args):
    code, out = run_process("profile-exact", *args)
    assert code == 2
    assert "Traceback" not in out
    assert out.startswith("usage error: ")
    assert "cycle_index_apply" not in out


@pytest.mark.parametrize("args", [
    ("montecarlo", "--n", "10", "--samples", "5", "--degrees", "abc"),
    ("montecarlo", "--n", "10", "--samples", "5", "--kappas", "x"),
    ("montecarlo", "--n", "10", "--samples", "5", "--t-grid", "a"),
    ("limits", "--what", "psi", "--t-grid", "a"),
    ("limits", "--what", "corr", "--n-list", "x"),
    ("constants", "--degrees", "abc"),
    ("constants", "--degrees", "0"),
    ("verify", "--quick", "--criteria", "abc"),
    ("montecarlo", "--n", "10", "--samples", "5", "--degrees", "0"),
    ("montecarlo", "--n", "10", "--samples", "5", "--kappas", "-1"),
    ("sample", "--n", "5", "--samples", "0"),
    ("sample", "--n", "5", "--samples", "-1"),
    ("verify", "--quick", "--criteria", "99"),
    ("montecarlo", "--n", "10", "--samples", "5", "--t-grid", "inf"),
    ("montecarlo", "--n", "10", "--samples", "5", "--t-grid", "nan"),
    ("limits", "--what", "psi", "--t-grid", "inf"),
    ("limits", "--what", "mean", "--kappa", "nan"),
    ("limits", "--what", "cov", "--kappa", "-1"),
    ("montecarlo", "--n", "10", "--samples", "5", "--degrees", "1,1"),
    ("montecarlo", "--n", "10", "--samples", "5", "--t-grid", "0,0"),
    ("montecarlo", "--n", "-1", "--samples", "5", "--tightness"),
    ("limits", "--what", "corr", "--n-list", "-1"),
    ("montecarlo", "--n", "5", "--samples", "2", "--kappas", "1e308"),
    ("limits", "--what", "corr", "--kappa", "1e308", "--n-list", "400"),
    ("limits", "--what", "mean", "--kappa", "1e308"),
    ("verify", "--quick", "--criteria", ""),
    ("verify", "--quick", "--criteria", "2", "--threads", "0"),
    ("montecarlo", "--n", "10", "--samples", "5", "--threads", "-1"),
    ("limits", "--what", "mean", "--n-list", "12,12"),
    ("limits", "--what", "mean", "--n-list", "0,12"),
    ("constants", "--order", "400", "--degrees", "3..1"),
    ("constants", "--degrees", ",,"),
    ("montecarlo", "--n", "30", "--samples", "2", "--degrees", "3..1", "--threads", "1",
     "--no-timestamp"),
    ("montecarlo", "--n", "30", "--samples", "2", "--kappas", ",,", "--threads", "1"),
    ("limits", "--what", "psi", "--t-grid", ",,"),
    ("limits", "--what", "corr", "--n-list", ",,"),
    ("limits", "--what", "mean", "--n-list", ","),
], ids=["mc-degrees-abc", "mc-kappas-x", "mc-t-grid-a", "limits-t-grid-a", "limits-n-list-x",
        "constants-degrees-abc", "constants-degrees-0", "verify-criteria-abc", "mc-degrees-0", "mc-kappas-neg",
        "sample-0", "sample-neg", "verify-criteria-99", "mc-t-grid-inf", "mc-t-grid-nan",
        "limits-psi-t-grid-inf", "limits-mean-kappa-nan", "limits-cov-kappa-neg",
        "mc-degrees-repeated", "mc-t-grid-repeated", "mc-n-neg-tightness", "limits-corr-n-list-neg",
        "mc-kappas-level-overflow", "limits-corr-level-overflow", "limits-mean-level-overflow",
        "verify-criteria-empty", "verify-threads-0", "mc-threads-neg",
        "limits-mean-n-list-repeated", "limits-mean-n-list-0",
        "constants-degrees-reversed", "constants-degrees-empty", "mc-degrees-reversed",
        "mc-kappas-empty", "limits-psi-t-grid-empty", "limits-corr-n-list-empty",
        "limits-mean-n-list-empty"])
def test_bad_lists_and_values_exit_2_without_traceback(args):
    code, out = run_process(*args)
    assert code == 2
    assert "Traceback" not in out
    assert out.startswith("usage error: ")


@pytest.mark.parametrize("args,dropped", [
    (("limits", "--what", "cov"), ("--t-grid", ",,")),
    (("limits", "--what", "psi"), ("--n-list", ",,")),
    (("montecarlo", "--n", "30", "--samples", "2", "--threads", "1", "--no-timestamp"),
     ("--t-grid", "")),
], ids=["limits-cov-t-grid", "limits-psi-n-list", "mc-t-grid"])
def test_empty_lists_an_option_reads_as_nothing_are_accepted(args, dropped):
    # montecarlo's empty --t-grid (its default) asks for no characteristic-
    # function rows, and limits reads --t-grid for psi only and --n-list for
    # corr and mean only: an empty list there changes nothing
    want = run(*args)
    got = run(*args, *dropped)
    assert want.exit_code == got.exit_code == 0
    assert got.output == want.output


def test_sample_with_corrupt_cache_file(tmp_path):
    # y_4 = 5 in the cache file: the loader's check rejects it and rebuilds
    clean, bad = tmp_path / "clean", tmp_path / "bad"
    bad.mkdir()
    (bad / "counts_4.txt").write_text("\n".join(["0", "1", "1", "2", "5"]))
    args = ("sample", "--n", "4", "--samples", "3", "--seed", "1", "--no-timestamp")
    code, out = run_process(*args, POLYAPROFILE_CACHE=str(bad))
    assert code == 0
    assert "Traceback" not in out
    assert run_process(*args, POLYAPROFILE_CACHE=str(clean)) == (0, out)
    assert (bad / "counts_4.txt").read_text() == (clean / "counts_4.txt").read_text()


@pytest.mark.parametrize("kind", ["directory", "symlink-loop"])
def test_count_cache_entry_that_is_no_readable_file_is_a_miss(tmp_path, kind):
    # counts_100.txt would be read for n = 50, but opening it fails: the
    # table is built, the entry left alone and the CSV is the clean one
    clean, bad = tmp_path / "clean", tmp_path / "bad"
    bad.mkdir()
    entry = bad / "counts_100.txt"
    if kind == "directory":
        entry.mkdir()
    else:
        entry.symlink_to(entry)
    args = ("count", "--n-max", "50")
    code, out = run_process(*args, POLYAPROFILE_CACHE=str(bad))
    assert code == 0
    assert "Traceback" not in out
    assert run_process(*args, POLYAPROFILE_CACHE=str(clean)) == (0, out)
    assert (bad / "counts_50.txt").read_text() == (clean / "counts_50.txt").read_text()
    assert entry.is_dir() if kind == "directory" else entry.is_symlink()


def test_unwritable_cache_warns_once_and_keeps_stdout(tmp_path):
    # the cache directory sits under a regular file, so it cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ("sample", "--n", "5", "--samples", "3", "--seed", "1", "--no-timestamp")
    bad = cli_process(*args, POLYAPROFILE_CACHE=str(blocker / "sub"))
    good = cli_process(*args, POLYAPROFILE_CACHE=str(tmp_path / "cache"))
    assert bad.returncode == good.returncode == 0
    assert bad.stdout == good.stdout
    assert "Traceback" not in bad.stderr
    assert bad.stderr.count("warning:") == 1
    assert good.stderr == ""


def test_bad_montecarlo_spec_exits_2_before_any_count_table(tmp_path):
    # n = 4000 is past every table the tests build, so a count table built
    # before the spec check would take seconds and land in the cache
    proc = cli_process("montecarlo", "--n", "4000", "--samples", "10", "--kappas", "1e308",
                       "--threads", "1", POLYAPROFILE_CACHE=str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("usage error: the level kappa*sqrt(n) passes the float range "
                           "at kappa=1e+308, n=4000\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [("count", "--n-max", "1500"), ("constants", "--order", "1600")],
                         ids=["count", "constants"])
def test_counts_past_the_int_digit_limit_exit_0_and_leave_no_temporary_file(tmp_path, args):
    # y_1500 has 705 decimal digits: at a limit of 640 the cache stays
    # hexadecimal, and count lifts the limit for its own CSV cells
    proc = cli_process(*args, PYTHONINTMAXSTRDIGITS="640", POLYAPROFILE_CACHE=str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert os.listdir(tmp_path) == [f"counts_{args[-1]}.txt"]
    if args[0] == "count":
        y = count_trees(1500).y
        assert proc.stdout == "n,y_n\n" + "".join(f"{n},{y[n]}\n" for n in range(1, 1501))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int/str digit limit")
def test_count_lifts_the_int_digit_limit_only_while_it_writes():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        res = run("count", "--n-max", "1500")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert res.exit_code == 0
    assert len(res.output.splitlines()[-1]) > 640


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int/str digit limit")
def test_profile_exact_lifts_the_int_digit_limit_only_while_it_formats():
    # the exact covariance table at n = 700 has values of more than 640 digits
    args = ("profile-exact", "--n", "700", "--d", "1", "--k", "5", "--mode", "cov", "--d2", "2")
    want = run(*args)
    assert want.exit_code == 0
    assert max(map(len, want.output.replace("\n", ",").split(","))) > 640
    proc = cli_process(*args, PYTHONINTMAXSTRDIGITS="640")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", want.output)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        res = run(*args, "--format", "json")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert res.exit_code == 0
    assert [row["value"] for row in json.loads(res.output)] == [
        line.split(",")[1] for line in want.output.splitlines()[1:]]


_OUT_ARGS = {
    "count": ("--n-max", "10"),
    "constants": ("--order", "50"),
    "profile-exact": ("--n", "10", "--d", "1", "--k", "1"),
    "sample": ("--n", "10"),
    "montecarlo": ("--n", "10", "--samples", "2"),
    "limits": ("--what", "psi"),
    "verify": ("--quick",),
}


@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
@pytest.mark.parametrize("command", list(_OUT_ARGS))
def test_unwritable_out_exits_2_before_any_work(command, kind, tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    out = tmp_path if kind == "directory" else tmp_path / "file" / "sub" / "out.csv"
    # every library entry point the commands reach is gone: any work would raise
    for name in ("_counts", "const_mod", "limits_mod", "profile_mod", "sampling_mod",
                 "run_acceptance"):
        monkeypatch.setattr(cli, name, None)
    res = CliRunner().invoke(main, [command, *_OUT_ARGS[command], "--out", str(out)],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.output.startswith("usage error: --out ") and res.output.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_unwritable_out_is_one_stderr_line(tmp_path):
    (tmp_path / "file").write_text("")
    proc = cli_process("count", "--n-max", "5", "--out", str(tmp_path / "file" / "out.csv"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"usage error: --out {str(tmp_path / 'file' / 'out.csv')!r} lies "
                           f"under {str(tmp_path / 'file')!r}, which is not a directory\n")


def test_failed_out_write_exits_2(tmp_path, monkeypatch):
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    res = run("count", "--n-max", "5", "--out", str(tmp_path / "out.csv"))
    assert res.exit_code == 2
    assert res.output == (f"usage error: cannot write --out {str(tmp_path / 'out.csv')!r}: "
                          f"{os.strerror(errno.ENOSPC)}\n")


# the CLI with enumeration._extend replaced: a run that builds any part of the
# count table stops with exit 1
_CLI_WITHOUT_BUILDS = """
import sys
import polyaprofile.enumeration as enumeration
from polyaprofile.cli import main

def refuse(n_max):
    sys.exit(f"count table built to n = {n_max}")

enumeration._extend = refuse
main(sys.argv[1:])
"""


@pytest.mark.parametrize("args,written", [
    (("constants", "--order", "150", "--degrees", "1,2"), 150),
    (("limits", "--what", "cov", "--order", "150"), 150),
    (("limits", "--what", "corr", "--order", "150", "--n-list", "100,160"), 160),
    (("limits", "--what", "mean", "--order", "150", "--n-list", "100,160"), 160),
], ids=["constants", "limits-cov", "limits-corr", "limits-mean"])
def test_constants_and_limits_read_the_count_cache(tmp_path, args, written):
    # the first run builds the table and writes it; the second only loads it
    first = cli_process(*args, POLYAPROFILE_CACHE=str(tmp_path))
    assert first.returncode == 0, first.stderr
    assert os.listdir(tmp_path) == [f"counts_{written}.txt"]
    src = os.path.dirname(os.path.dirname(polyaprofile.__file__))
    second = subprocess.run(
        [sys.executable, "-c", _CLI_WITHOUT_BUILDS, *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src, "POLYAPROFILE_CACHE": str(tmp_path)})
    assert (second.returncode, second.stderr) == (0, "")
    assert second.stdout == first.stdout


def test_accuracy_error_exit_code():
    # rho needs N >= 100 by contract; 50 maps UsageError -> 2, an
    # unreachable tolerance maps AccuracyError -> 3
    res = CliRunner().invoke(main, ["constants", "--order", "50"])
    assert res.exit_code == 2


def test_accuracy_exception_maps_to_exit_3():
    import pytest

    from polyaprofile.cli import _run
    from polyaprofile.errors import AccuracyError

    def boom():
        raise AccuracyError("tail too large; increase N")

    with pytest.raises(SystemExit) as exc:
        _run(boom)
    assert exc.value.code == 3


def test_psi_overflow_at_large_kappa_exits_3_without_warnings():
    proc = cli_process("limits", "--what", "psi", "--kappa", "1e6", "--t-grid", "1",
                       "--order", "200")
    assert proc.returncode == 3
    assert proc.stderr.startswith("accuracy error: ")
    assert "RuntimeWarning" not in proc.stderr
    assert "nan" not in proc.stdout


@pytest.mark.parametrize("what", ["cov", "var"])
def test_non_finite_cov_and_var_limits_exit_3(what):
    proc = cli_process("limits", "--what", what, "--kappa", "1e160", "--order", "200")
    assert proc.returncode == 3
    assert proc.stderr == "accuracy error: the covariance limit is not finite at kappa=1e+160\n"
    assert proc.stdout == ""


def test_limit_mean_at_large_kappa_finishes_quickly():
    # every level past n - 1 is empty, so no level is stepped; stepping the
    # 40000 levels of n = 1600 took minutes
    start = time.monotonic()
    proc = cli_process("limits", "--what", "mean", "--kappa", "1000", "--order", "200")
    assert time.monotonic() - start < 30
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "limit_mean,1000.0,0.0,0.0"


def test_covariance_past_the_height_finishes_quickly():
    # levels k >= n of a size-n tree are empty; stepping 100000 of them took
    # longer than the limit below
    start = time.monotonic()
    far = cli_process("profile-exact", "--n", "30", "--d", "1", "--d2", "2",
                      "--k", "100000", "--mode", "cov")
    assert time.monotonic() - start < 30
    assert far.returncode == 0, far.stderr
    near = cli_process("profile-exact", "--n", "30", "--d", "1", "--d2", "2",
                       "--k", "40", "--mode", "cov")
    assert far.stdout == near.stdout
    assert far.stdout.splitlines()[-1] == "correlation,undefined,"


@pytest.mark.parametrize("far,near", [
    (("--k", "1000000"), ("--k", "30")),
    (("--k", "3", "--h", "1000000"), ("--k", "3", "--h", "30")),
], ids=["level", "joint"])
def test_marked_route_past_the_height_finishes_quickly(far, near):
    # the marked series steps one level at a time, about 1 ms a level at
    # n = 30; levels past n are empty, and built as level n
    start = time.monotonic()
    proc = cli_process("profile-exact", "--n", "30", "--d", "1", *far)
    assert time.monotonic() - start < 30
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cli_process("profile-exact", "--n", "30", "--d", "1", *near).stdout


def test_correlation_past_the_height_exits_3():
    start = time.monotonic()
    proc = cli_process("limits", "--what", "corr", "--kappa", "1000", "--n-list", "100",
                       "--order", "200")
    assert time.monotonic() - start < 30
    assert proc.returncode == 3
    assert proc.stderr.startswith("accuracy error: degenerate variance at n=100, k=10000")
    assert "Traceback" not in proc.stderr


def test_verify_single_cheap_criterion():
    res = run("verify", "--quick", "--criteria", "2", "--no-timestamp")
    assert res.exit_code == 0
    assert "CRITERION  2 [PASS]" in res.output


def test_verify_failure_exit_code():
    # full-mode criterion 6 is the documented red: exit code 4
    res = CliRunner().invoke(main, ["verify", "--criteria", "6", "--no-timestamp"])
    assert res.exit_code == 4
    assert "CRITERION  6 [FAIL]" in res.output


# ---------------------------------------------------------------------------
# random argument vectors: every subcommand but verify, at small sizes
# ---------------------------------------------------------------------------

def _opt(name, values):
    """Either nothing or the pair ``name value``."""
    return st.one_of(st.just([]), _req(name, values))


def _req(name, values):
    return values.map(lambda v: [name, str(v)])


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


def _mostly(good, bad):
    """``good`` four times in five, else ``bad``: most vectors get past validation."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 4 else good)


def _joined(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v)))


_JUNK = st.sampled_from(["abc", "1..", ",,", "1e400"])
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
_SIZES = _mostly(st.integers(1, 12), st.integers(-2, 0))
_DEGREES = _mostly(st.integers(1, 6), st.integers(-1, 0))
_DEGREE_LISTS = _mostly(
    st.one_of(_joined(st.integers(1, 6)),
              st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda r: f"{r[0]}..{r[1]}")),
    st.one_of(_JUNK, _joined(st.integers(-1, 6))),
)
_KAPPA = _mostly(st.floats(0.0, 4.0),
                 st.one_of(_SPECIAL, st.just(1e308), st.floats(-2.0, -0.1)))
_KAPPA_LISTS = _mostly(_joined(st.floats(0.0, 4.0)), st.one_of(_JUNK, _joined(_KAPPA)))
_T_LISTS = _mostly(_joined(st.floats(-4.0, 4.0)), st.one_of(_JUNK, _joined(_SPECIAL)))
_SIZE_LISTS = _mostly(_joined(st.integers(1, 12)), st.one_of(_JUNK, _joined(_SIZES)))
_ORDER = _req("--order", st.sampled_from([200, 100, 50]))
_SAMPLES = _mostly(st.integers(1, 4), st.integers(-1, 0))
_SEED = st.integers(0, 99)
# a directory, or a path under a file that is not a directory: nothing is written
_OUT = _mostly(st.just([]),
               _req("--out", st.sampled_from([".", os.path.join(os.devnull, "out.csv")])))

_COMMANDS = st.one_of(
    _argv("count", _req("--n-max", _SIZES), _OUT),
    _argv("constants", _ORDER, _opt("--degrees", _DEGREE_LISTS), _OUT),
    _argv("profile-exact", _req("--n", _SIZES), _req("--d", _DEGREES), _req("--k", _SIZES),
          _opt("--h", _SIZES), _opt("--d2", _DEGREES),
          _opt("--mode", st.sampled_from(["dist", "moments", "cov"])),
          _opt("--format", st.sampled_from(["csv", "json"])), _OUT),
    _argv("sample", _req("--n", _SIZES), _opt("--samples", _SAMPLES), _opt("--seed", _SEED),
          st.just(["--no-timestamp"]), _OUT),
    _argv("montecarlo", _req("--n", _SIZES), _req("--samples", _SAMPLES), _opt("--seed", _SEED),
          _opt("--degrees", _DEGREE_LISTS), _opt("--kappas", _KAPPA_LISTS),
          _opt("--t-grid", _T_LISTS), st.sampled_from([[], ["--tightness"]]),
          st.just(["--threads", "1", "--no-timestamp"]), _OUT),
    _argv("limits", _req("--what", st.sampled_from(["psi", "cov", "var", "corr", "mean"])),
          _opt("--d", _DEGREES), _opt("--d1", _DEGREES), _opt("--d2", _DEGREES),
          _opt("--kappa", _KAPPA), _opt("--t-grid", _T_LISTS),
          _opt("--n-list", _SIZE_LISTS), _ORDER, _OUT),
)


@settings(max_examples=300, deadline=None)
@given(_COMMANDS)
def test_random_argument_vectors_exit_with_a_mapped_code(argv):
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exc_info)
    assert res.exit_code in (0, 2, 3, 4), (argv, res.output)
    if "--out" in argv:  # refused before any other check
        assert res.exit_code == 2 and res.output.startswith("usage error: --out "), argv
