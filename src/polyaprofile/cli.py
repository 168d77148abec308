"""Command-line entry point.

Subcommands: count, constants, profile-exact, sample, montecarlo, limits,
verify.  Output is data-only (CSV or JSON); stochastic runs embed
(seed, parameter hash, version) in a comment header, plus a timestamp line
unless --no-timestamp is given.  Exit codes: 0 success, 2 usage error,
3 accuracy error, 4 verification failure.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import click

from . import __version__
from . import constants as const_mod
from . import limits as limits_mod
from . import profile as profile_mod
from . import sampling as sampling_mod
from .acceptance import DEFAULT_SEED, render_report, run_acceptance
from .enumeration import count_trees
from .errors import AccuracyError, DomainError, UsageError

EXIT_USAGE = 2
EXIT_ACCURACY = 3
EXIT_VERIFY = 4


def _default_cache_dir():
    env = os.environ.get("POLYAPROFILE_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "polyaprofile")


def _counts(n_max):
    """The process-wide count table to n_max, filled through the count cache.

    The library reads counts through ``tree_series``, which never touches the
    disk, so each command that needs counts loads them here first.
    """
    return count_trees(n_max, cache_dir=_default_cache_dir())


def _out_path(out):
    if out is None:
        return None
    base = os.environ.get("POLYAPROFILE_OUT_DIR")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _params_hash(params):
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check_out(out):
    """Refuse an ``--out`` that no write could create: a directory, or a path under a file."""
    path = _out_path(out)
    if path is None:
        return
    if os.path.isdir(path):
        raise UsageError(f"--out {path!r} is a directory")
    above = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(above):  # the directories _emit would create
        above = os.path.dirname(above)
    if not os.path.isdir(above):
        raise UsageError(f"--out {path!r} lies under {above!r}, which is not a directory")


def _emit(text, out):
    path = _out_path(out)
    if path is None:
        click.echo(text, nl=False)
        return
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _any_int_digits():
    """Lift CPython's int/str digit limit (Python 3.10.7 on) for the block, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _csv_text(rows, fieldnames, header_lines=()):
    """CSV text of ``rows``, ints in decimal.

    The ints are computed, not parsed from input, so the digit limit does not
    apply to them: y_n passes its default of 4300 digits from n = 9150 or so.
    """
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(fieldnames) + "\n")
    with _any_int_digits():
        for row in rows:
            buf.write(",".join(str(row.get(f, "")) for f in fieldnames) + "\n")
    return buf.getvalue()


def _stochastic_header(seed, params, no_timestamp):
    lines = [
        f"seed={seed}",
        f"params_sha256={_params_hash(params)}",
        f"version={__version__}",
    ]
    if not no_timestamp:
        lines.append(f"generated={datetime.now(timezone.utc).isoformat()}")
    return lines


@click.group()
@click.version_option(__version__)
def main():
    """Exact and asymptotic degree-profile computations for random rooted trees."""


def _run(fn):
    """Call ``fn``; a usage or domain error exits 2 and an accuracy error 3, after one stderr line."""
    try:
        fn()
    except (UsageError, DomainError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except AccuracyError as exc:
        click.echo(f"accuracy error: {exc}", err=True)
        sys.exit(EXIT_ACCURACY)


def _command(name):
    """Register the decorated body as subcommand ``name`` of ``main``, run through ``_run``.

    The body's click options and docstring become the subcommand's.  Its
    ``--out`` is checked before the body starts.
    """

    def register(body):
        @functools.wraps(body)
        def command(**params):
            def checked():
                _check_out(params["out"])
                body(**params)

            _run(checked)

        return main.command(name)(command)

    return register


def _threads(value):
    """The worker-process count of ``--threads``: by default the available CPUs."""
    if value is None:
        return os.cpu_count() or 1
    if value < 1:
        raise UsageError(f"--threads must be >= 1, got {value}")
    return value


@_command("count")
@click.option("--n-max", type=int, required=True, help="largest tree size")
@click.option("--out", type=str, default=None, help="output file (default stdout)")
def count(n_max, out):
    """Exact tree counts: CSV with columns n,y_n."""
    table = _counts(n_max)
    rows = [{"n": n, "y_n": table.y[n]} for n in range(1, n_max + 1)]
    _emit(_csv_text(rows, ["n", "y_n"]), out)


@_command("constants")
@click.option("--order", "order_", type=int, default=400, help="series truncation order N")
@click.option("--degrees", type=str, default="1..10", help="degree range, e.g. 1..10 or 1,2,3")
@click.option("--out", type=str, default=None)
def constants_cmd(order_, degrees, out):
    """Singularity constants rho, b, C, C_d, mu_d with error estimates (JSON)."""
    ds = _parse_list(degrees, "--degrees")
    # an order below 1 is left to compute_rho's check and its message
    _counts(max(order_, 1))
    cs = const_mod.compute_constants(order_, degrees=ds)
    payload = {
        "order": order_,
        "rho": cs.rho,
        "b": cs.b,
        "C": cs.C,
        "C_d": {str(d): cs.Cd[d] for d in ds},
        "mu_d": {str(d): cs.mu_d[d] for d in ds},
        "err": cs.err,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _parse_list(text, option, convert=int, empty=False):
    """Comma-separated ``convert`` values; ``lo..hi`` is an integer range with lo <= hi.

    Floats must be finite.  A list of no values is refused unless ``empty``.
    """
    try:
        if convert is int and ".." in text:
            lo, hi = map(int, text.split(".."))
            values = tuple(range(lo, hi + 1)) if lo <= hi else None
        else:
            values = tuple(convert(p) for p in text.split(",") if p)
    except ValueError:
        raise UsageError(f"{option} expects a comma-separated list, got {text!r}") from None
    if values is None:  # a range hi < lo
        raise UsageError(f"{option} range {text!r} runs backwards")
    if convert is float and not all(map(math.isfinite, values)):
        raise UsageError(f"{option} expects finite numbers, got {text!r}")
    if not (values or empty):
        raise UsageError(f"{option} expects at least one value, got {text!r}")
    return values


def _exact_str(v):
    """``str(v)`` of a computed exact number, whatever its digit count (see ``_csv_text``)."""
    with _any_int_digits():
        return str(v)


def _value_rows(key, items):
    """One row ``{key: name, "value": v, "value_float": float(v)}`` per exact (name, v)."""
    return [{key: name, "value": _exact_str(v), "value_float": float(v)} for name, v in items]


@_command("profile-exact")
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--h", type=int, default=None, help="second level gap (joint law)")
@click.option("--d2", type=int, default=None, help="second degree (covariance)")
@click.option("--mode", type=click.Choice(["dist", "moments", "cov"]), default="dist")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=str, default=None)
def profile_exact(n, d, k, h, d2, mode, fmt, out):
    """Exact distributions and moment tables of L_n^{(d)}(k)."""
    if mode == "cov" and h is not None:
        raise UsageError("--h is read only by --mode dist and moments")
    if mode != "cov" and d2 is not None:
        raise UsageError("--d2 is read only by --mode cov")
    if mode == "dist" and h is None:
        dist = profile_mod.exact_distribution(n, d, k)
        rows = [
            {"count": l, "probability": _exact_str(p), "probability_float": float(p)}
            for l, p in sorted(dist.probs.items())
        ]
    elif mode == "dist":
        probs = profile_mod.joint_distribution(n, d, k, h)
        rows = [
            {
                "count_k": l1,
                "count_kh": l2,
                "probability": _exact_str(p),
                "probability_float": float(p),
            }
            for (l1, l2), p in sorted(probs.items())
        ]
    elif mode == "moments":
        moments = profile_mod.factorial_moments_from_marked(n, d, k, order=2)
        items = [("mean", moments[1]), ("second_factorial", moments[2])]
        if h is not None:
            mixed = profile_mod.mixed_moment_from_marked(n, d, k, h)
            items.append((f"mixed_levels_{k}_{k + h}", mixed))
        rows = _value_rows("moment", items)
    else:
        table = profile_mod.finite_covariance(d, d2 if d2 is not None else d, n, k)
        names = ("mean1", "mean2", "mixed", "var1", "var2", "covariance")
        rows = _value_rows("quantity", [(q, getattr(table, q)) for q in names])
        rows.append({
            "quantity": "correlation",
            "value": "undefined" if table.correlation is None else repr(table.correlation),
            "value_float": table.correlation if table.correlation is not None else "",
        })
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", out)
    else:  # a law or table has at least one row, and its keys head the CSV
        _emit(_csv_text(rows, list(rows[0])), out)


@_command("sample")
@click.option("--n", type=int, required=True)
@click.option("--samples", type=int, default=1)
@click.option("--seed", type=int, default=0)
@click.option("--no-timestamp", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def sample(n, samples, seed, no_timestamp, out):
    """Uniform random trees; CSV of parent arrays, one row per sample."""
    if samples < 1:
        raise UsageError("--samples must be >= 1")
    sampler = sampling_mod._sampler_for(_counts(n))
    rows = []
    for i in range(samples):
        rng = sampling_mod.derive_rng(seed, i)
        tree = sampler.sample_tree(n, rng)
        rows.append({"sample": i, "parents": " ".join(map(str, tree.parent))})
    header = _stochastic_header(seed, {"n": n, "samples": samples}, no_timestamp)
    _emit(_csv_text(rows, ["sample", "parents"], header), out)


@_command("montecarlo")
@click.option("--n", type=int, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--degrees", type=str, default="1,2")
@click.option("--kappas", type=str, default="0.5,1.0")
@click.option("--t-grid", type=str, default="", help="t values for the empirical char. function")
@click.option("--tightness/--no-tightness", default=False)
@click.option("--threads", type=int, default=None,
              help="worker processes (default: available parallelism); results "
                   "are identical for any thread count")
@click.option("--no-timestamp", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def montecarlo(n, samples, seed, degrees, kappas, t_grid, tightness, threads, no_timestamp, out):
    """Monte Carlo profile estimates with standard errors (CSV)."""
    spec = sampling_mod.MonteCarloSpec(
        n=n,
        degrees=_parse_list(degrees, "--degrees"),
        kappas=_parse_list(kappas, "--kappas", float),
        t_values=_parse_list(t_grid, "--t-grid", float, empty=True),
        samples=samples,
        seed=seed,
        tightness_grid=profile_mod.level_grid_for(n) if tightness else (),
    )
    workers = _threads(threads)  # every option is checked before the count table loads
    result = sampling_mod.monte_carlo(spec, _counts(n), threads=workers)
    params = {
        "n": n, "samples": samples, "degrees": spec.degrees,
        "kappas": spec.kappas, "t_values": spec.t_values,
        "tightness": tightness,
    }
    header = _stochastic_header(seed, params, no_timestamp)
    rows = result.rows()  # a run has a degree and a kappa, so at least one row
    _emit(_csv_text(rows, list(rows[0]), header), out)


@_command("limits")
@click.option("--what", type=click.Choice(["psi", "cov", "var", "corr", "mean"]), required=True)
@click.option("--d", type=int, default=1)
@click.option("--d1", type=int, default=1)
@click.option("--d2", type=int, default=2)
@click.option("--kappa", type=float, default=1.0)
@click.option("--t-grid", type=str, default="0.5,1.0")
@click.option("--n-list", type=str, default="400,900,1600")
@click.option("--order", "order_", type=int, default=400)
@click.option("--out", type=str, default=None)
def limits_cmd(what, d, d1, d2, kappa, t_grid, n_list, order_, out):
    """Limit-law evaluations (CSV)."""
    # a list the chosen quantity does not read may be empty
    ts = _parse_list(t_grid, "--t-grid", float, empty=what != "psi")
    ns = _parse_list(n_list, "--n-list", empty=what not in ("corr", "mean"))
    # corr and mean read the series at each n of --n-list; an order below 1
    # is left to compute_rho's check and its message
    _counts(max(order_, 1, *(ns if what in ("corr", "mean") else ())))
    cs = const_mod.compute_constants(order_, degrees=sorted({d, d1, d2}))
    rows = []
    if what == "psi":
        for t in ts:
            ev = limits_mod.eval_psi(t, d, kappa, cs)
            rows.append(
                {"quantity": "psi", "t": t, "re": ev.value.real, "im": ev.value.imag,
                 "quadrature_error": ev.quadrature_error}
            )
        fields = ["quantity", "t", "re", "im", "quadrature_error"]
    elif what in ("cov", "var"):
        ev = (limits_mod.eval_cov_limit(d1, d2, kappa, cs) if what == "cov"
              else limits_mod.eval_var_limit(d, kappa, cs))
        rows.append({"quantity": f"{what}_per_n", "kappa": kappa, "value": ev.value})
        fields = ["quantity", "kappa", "value"]
    elif what == "mean":
        ev = limits_mod.eval_limit_mean(d, kappa, cs, n_values=ns)
        rows.append(
            {"quantity": "limit_mean", "kappa": kappa, "value": ev.value,
             "extrapolation_error": ev.quadrature_error}
        )
        fields = ["quantity", "kappa", "value", "extrapolation_error"]
    else:
        for n, one_minus, scaled in limits_mod.correlation_convergence_report(
            d1, d2, kappa, ns, constants=cs
        ):
            rows.append(
                {"quantity": "one_minus_corr", "n": n, "value": one_minus,
                 "sqrt_n_scaled": scaled}
            )
        fields = ["quantity", "n", "value", "sqrt_n_scaled"]
    _emit(_csv_text(rows, fields), out)


@_command("verify")
@click.option("--quick", is_flag=True, default=False)
@click.option("--seed", type=int, default=DEFAULT_SEED)
@click.option("--threads", type=int, default=None,
              help="worker processes (default: available parallelism); "
                   "--threads 1 forces fully serial execution")
@click.option("--no-timestamp", is_flag=True, default=False)
@click.option("--criteria", type=str, default=None, help="comma-separated criterion numbers")
@click.option("--out", type=str, default=None)
def verify(quick, seed, threads, no_timestamp, criteria, out):
    """Run the acceptance suite and print a pass/fail table."""
    results = run_acceptance(
        quick=quick,
        seed=seed,
        cache_dir=_default_cache_dir(),
        threads=_threads(threads),
        numbers=None if criteria is None else set(_parse_list(criteria, "--criteria")),
    )
    stamp = None if no_timestamp else datetime.now(timezone.utc).isoformat()
    extra = (f"seed={seed}", f"version={__version__}", f"quick={quick}")
    _emit(render_report(results, timestamp=stamp, extra_header=extra), out)
    if not all(r.passed for r in results):
        sys.exit(EXIT_VERIFY)


if __name__ == "__main__":
    main()
