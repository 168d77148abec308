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
from polyaprofile.cli import main


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
], ids=["n0", "n-3-moments", "k-2-cov", "d0-joint"])
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
], ids=["mc-degrees-abc", "mc-kappas-x", "mc-t-grid-a", "limits-t-grid-a", "limits-n-list-x",
        "constants-degrees-abc", "constants-degrees-0", "verify-criteria-abc", "mc-degrees-0", "mc-kappas-neg",
        "sample-0", "sample-neg", "verify-criteria-99", "mc-t-grid-inf", "mc-t-grid-nan",
        "limits-psi-t-grid-inf", "limits-mean-kappa-nan", "limits-cov-kappa-neg",
        "mc-degrees-repeated", "mc-t-grid-repeated", "mc-n-neg-tightness", "limits-corr-n-list-neg"])
def test_bad_lists_and_values_exit_2_without_traceback(args):
    code, out = run_process(*args)
    assert code == 2
    assert "Traceback" not in out
    assert out.startswith("usage error: ")


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
_KAPPA = _mostly(st.floats(0.0, 4.0), st.one_of(_SPECIAL, st.floats(-2.0, -0.1)))
_KAPPA_LISTS = _mostly(_joined(st.floats(0.0, 4.0)), st.one_of(_JUNK, _joined(_KAPPA)))
_T_LISTS = _mostly(_joined(st.floats(-4.0, 4.0)), st.one_of(_JUNK, _joined(_SPECIAL)))
_SIZE_LISTS = _mostly(_joined(st.integers(1, 12)), st.one_of(_JUNK, _joined(_SIZES)))
_ORDER = _req("--order", st.sampled_from([200, 100, 50]))
_SAMPLES = _mostly(st.integers(1, 4), st.integers(-1, 0))
_SEED = st.integers(0, 99)

_COMMANDS = st.one_of(
    _argv("count", _req("--n-max", _SIZES)),
    _argv("constants", _ORDER, _opt("--degrees", _DEGREE_LISTS)),
    _argv("profile-exact", _req("--n", _SIZES), _req("--d", _DEGREES), _req("--k", _SIZES),
          _opt("--h", _SIZES), _opt("--d2", _DEGREES),
          _opt("--mode", st.sampled_from(["dist", "moments", "cov"])),
          _opt("--format", st.sampled_from(["csv", "json"]))),
    _argv("sample", _req("--n", _SIZES), _opt("--samples", _SAMPLES), _opt("--seed", _SEED),
          st.just(["--no-timestamp"])),
    _argv("montecarlo", _req("--n", _SIZES), _req("--samples", _SAMPLES), _opt("--seed", _SEED),
          _opt("--degrees", _DEGREE_LISTS), _opt("--kappas", _KAPPA_LISTS),
          _opt("--t-grid", _T_LISTS), st.sampled_from([[], ["--tightness"]]),
          st.just(["--threads", "1", "--no-timestamp"])),
    _argv("limits", _req("--what", st.sampled_from(["psi", "cov", "var", "corr", "mean"])),
          _opt("--d", _DEGREES), _opt("--d1", _DEGREES), _opt("--d2", _DEGREES),
          _opt("--kappa", _KAPPA), _opt("--t-grid", _T_LISTS),
          _opt("--n-list", _SIZE_LISTS), _ORDER),
)


@settings(max_examples=300, deadline=None)
@given(_COMMANDS)
def test_random_argument_vectors_exit_with_a_mapped_code(argv):
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exc_info)
    assert res.exit_code in (0, 2, 3, 4), (argv, res.output)
