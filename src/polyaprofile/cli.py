"""Command-line entry point.

Subcommands: count, constants, profile-exact, sample, montecarlo, limits,
verify.  Output is data-only (CSV or JSON); stochastic runs embed
(seed, parameter hash, version) in a comment header, plus a timestamp line
unless --no-timestamp is given.  Exit codes: 0 success, 2 usage error,
3 accuracy error, 4 verification failure.
"""

from __future__ import annotations

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
from .acceptance import render_report, run_acceptance
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


def _emit(text, out):
    path = _out_path(out)
    if path is None:
        click.echo(text, nl=False)
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)


def _csv_text(rows, fieldnames, header_lines=()):
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(fieldnames) + "\n")
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
    try:
        fn()
    except (UsageError, DomainError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except AccuracyError as exc:
        click.echo(f"accuracy error: {exc}", err=True)
        sys.exit(EXIT_ACCURACY)


@main.command()
@click.option("--n-max", type=int, required=True, help="largest tree size")
@click.option("--out", type=str, default=None, help="output file (default stdout)")
def count(n_max, out):
    """Exact tree counts: CSV with columns n,y_n."""

    def go():
        table = count_trees(n_max, cache_dir=_default_cache_dir())
        rows = [{"n": n, "y_n": table.y[n]} for n in range(1, n_max + 1)]
        _emit(_csv_text(rows, ["n", "y_n"]), out)

    _run(go)


@main.command("constants")
@click.option("--order", "order_", type=int, default=400, help="series truncation order N")
@click.option("--degrees", type=str, default="1..10", help="degree range, e.g. 1..10 or 1,2,3")
@click.option("--out", type=str, default=None)
def constants_cmd(order_, degrees, out):
    """Singularity constants rho, b, C, C_d, mu_d with error estimates (JSON)."""

    def go():
        ds = _parse_list(degrees, "--degrees")
        cs = const_mod.compute_constants(order_, degrees=ds)
        payload = {
            "order": order_,
            "rho": cs.rho,
            "b": cs.b,
            "C": cs.C,
            "C_d": {str(d): cs.Cd[d] for d in ds},
            "mu_d": {str(d): cs.mu_d[d] for d in ds},
            "err": {k: v for k, v in cs.err.items() if k != "elapsed_s"},
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)

    _run(go)


def _parse_list(text, option, convert=int):
    """Comma-separated ``convert`` values; ``lo..hi`` is an integer range.

    Floats must be finite.
    """
    try:
        if convert is int and ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        values = tuple(convert(p) for p in text.split(",") if p)
    except ValueError:
        raise UsageError(f"{option} expects a comma-separated list, got {text!r}") from None
    if convert is float and not all(map(math.isfinite, values)):
        raise UsageError(f"{option} expects finite numbers, got {text!r}")
    return values


@main.command("profile-exact")
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

    def go():
        if mode == "dist" and h is None:
            dist = profile_mod.exact_distribution(n, d, k)
            rows = [
                {"count": l, "probability": str(p), "probability_float": float(p)}
                for l, p in sorted(dist.probs.items())
            ]
            fields = ["count", "probability", "probability_float"]
        elif mode == "dist":
            probs = profile_mod.joint_distribution(n, d, k, h)
            rows = [
                {
                    "count_k": l1,
                    "count_kh": l2,
                    "probability": str(p),
                    "probability_float": float(p),
                }
                for (l1, l2), p in sorted(probs.items())
            ]
            fields = ["count_k", "count_kh", "probability", "probability_float"]
        elif mode == "moments":
            moments = profile_mod.factorial_moments_from_marked(n, d, k, order=2)
            rows = [
                {"moment": "mean", "value": str(moments[1]), "value_float": float(moments[1])},
                {
                    "moment": "second_factorial",
                    "value": str(moments[2]),
                    "value_float": float(moments[2]),
                },
            ]
            if h is not None:
                mixed = profile_mod.mixed_moment_from_marked(n, d, k, h)
                rows.append(
                    {"moment": f"mixed_levels_{k}_{k + h}", "value": str(mixed),
                     "value_float": float(mixed)}
                )
            fields = ["moment", "value", "value_float"]
        else:
            table = profile_mod.finite_covariance(d, d2 if d2 is not None else d, n, k)
            rows = [
                {"quantity": "mean1", "value": str(table.mean1), "value_float": float(table.mean1)},
                {"quantity": "mean2", "value": str(table.mean2), "value_float": float(table.mean2)},
                {"quantity": "mixed", "value": str(table.mixed), "value_float": float(table.mixed)},
                {"quantity": "var1", "value": str(table.var1), "value_float": float(table.var1)},
                {"quantity": "var2", "value": str(table.var2), "value_float": float(table.var2)},
                {
                    "quantity": "covariance",
                    "value": str(table.covariance),
                    "value_float": float(table.covariance),
                },
                {
                    "quantity": "correlation",
                    "value": "undefined" if table.correlation is None else repr(table.correlation),
                    "value_float": table.correlation if table.correlation is not None else "",
                },
            ]
            fields = ["quantity", "value", "value_float"]
        if fmt == "json":
            _emit(json.dumps(rows, indent=2) + "\n", out)
        else:
            _emit(_csv_text(rows, fields), out)

    _run(go)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--samples", type=int, default=1)
@click.option("--seed", type=int, default=0)
@click.option("--no-timestamp", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def sample(n, samples, seed, no_timestamp, out):
    """Uniform random trees; CSV of parent arrays, one row per sample."""

    def go():
        if samples < 1:
            raise UsageError("--samples must be >= 1")
        table = count_trees(n, cache_dir=_default_cache_dir())
        sampler = sampling_mod.TreeSampler(table)
        rows = []
        for i in range(samples):
            rng = sampling_mod.derive_rng(seed, i)
            tree = sampler.sample_tree(n, rng)
            rows.append({"sample": i, "parents": " ".join(map(str, tree.parent))})
        header = _stochastic_header(seed, {"n": n, "samples": samples}, no_timestamp)
        _emit(_csv_text(rows, ["sample", "parents"], header), out)

    _run(go)


@main.command()
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

    def go():
        nonlocal threads
        if threads is None:
            threads = os.cpu_count() or 1
        spec = sampling_mod.MonteCarloSpec(
            n=n,
            degrees=_parse_list(degrees, "--degrees"),
            kappas=_parse_list(kappas, "--kappas", float),
            t_values=_parse_list(t_grid, "--t-grid", float),
            samples=samples,
            seed=seed,
            tightness_grid=profile_mod.level_grid_for(n) if tightness else (),
        )
        result = sampling_mod.monte_carlo(
            spec, threads=threads, cache_dir=_default_cache_dir()
        )
        params = {
            "n": n, "samples": samples, "degrees": spec.degrees,
            "kappas": spec.kappas, "t_values": spec.t_values,
            "tightness": tightness,
        }
        header = _stochastic_header(seed, params, no_timestamp)
        fields = ["kind", "n", "d", "kappa", "t", "r", "h", "estimate", "stderr", "samples"]
        _emit(_csv_text(result.rows(), fields, header), out)

    _run(go)


@main.command("limits")
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

    def go():
        ts = _parse_list(t_grid, "--t-grid", float)
        ns = _parse_list(n_list, "--n-list")
        degrees = sorted({d, d1, d2})
        cs = const_mod.compute_constants(order_, degrees=degrees)
        rows = []
        if what == "psi":
            for t in ts:
                ev = limits_mod.eval_psi(t, d, kappa, cs)
                rows.append(
                    {"quantity": "psi", "t": t, "re": ev.value.real, "im": ev.value.imag,
                     "quadrature_error": ev.quadrature_error}
                )
            fields = ["quantity", "t", "re", "im", "quadrature_error"]
        elif what == "cov":
            ev = limits_mod.eval_cov_limit(d1, d2, kappa, cs)
            rows.append({"quantity": "cov_per_n", "kappa": kappa, "value": ev.value})
            fields = ["quantity", "kappa", "value"]
        elif what == "var":
            ev = limits_mod.eval_var_limit(d, kappa, cs)
            rows.append({"quantity": "var_per_n", "kappa": kappa, "value": ev.value})
            fields = ["quantity", "kappa", "value"]
        elif what == "mean":
            ev = limits_mod.eval_limit_mean(d, kappa, cs)
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

    _run(go)


@main.command()
@click.option("--quick", is_flag=True, default=False)
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=None,
              help="worker processes (default: available parallelism); "
                   "--threads 1 forces fully serial execution")
@click.option("--no-timestamp", is_flag=True, default=False)
@click.option("--criteria", type=str, default=None, help="comma-separated criterion numbers")
@click.option("--out", type=str, default=None)
def verify(quick, seed, threads, no_timestamp, criteria, out):
    """Run the acceptance suite and print a pass/fail table."""

    def go():
        nonlocal threads
        from .acceptance import DEFAULT_SEED

        if threads is None:
            threads = os.cpu_count() or 1
        numbers = set(_parse_list(criteria, "--criteria")) if criteria else None
        use_seed = seed if seed is not None else DEFAULT_SEED
        results = run_acceptance(
            quick=quick,
            seed=use_seed,
            cache_dir=_default_cache_dir(),
            threads=threads,
            numbers=numbers,
        )
        stamp = None if no_timestamp else datetime.now(timezone.utc).isoformat()
        extra = (f"seed={use_seed}", f"version={__version__}", f"quick={quick}")
        _emit(render_report(results, timestamp=stamp, extra_header=extra), out)
        if not all(r.passed for r in results):
            sys.exit(EXIT_VERIFY)

    _run(go)


if __name__ == "__main__":
    main()
