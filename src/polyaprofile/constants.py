"""Numeric extraction of the singularity constants of the tree function.

The tree generating function y(x) = x exp(sum_i y(x^i)/i) has a square-root
singularity at its radius of convergence rho, with

    y(rho) = 1,      y(x) = 1 - b sqrt(rho - x) + c (rho - x) + ...

Quantities computed here:

    rho   : radius of convergence (~0.3383219)
    b     : leading singular coefficient (~2.6811281)
    C     : exp(sum_{i>=1} (y(rho^i)/rho^i - 1)/i)  (~7.7581603)
    C_d   : per-degree amplitude, defined through C^{(d)}(rho) = C_d rho^d
            where C^{(d)}(rho) = lim_{x->rho} (1-y(x)) D^{(d)}(x) / y(x)^d
    mu_d  : 2 C_d rho^d / (b^2 rho), the asymptotic density of degree-d
            vertices (mu_1 = 0.4381562..., the classical leaf fraction)

rho is pinned by the singular system y(rho) = 1 and rho e^{1 + E(rho)} = 1
with E(x) = sum_{i>=2} y(x^i)/i; the fixed point rho = exp(-1 - E(rho))
contracts at rate ~0.22 and only ever evaluates the series at arguments
<= rho^2, where the truncation tail is negligible.  (Root-finding on the
truncated partial sum of y alone cannot do better than ~1e-3 near rho: the
square-root singularity makes the tail decay like n^{-1/2}.)

Every other constant but the ladder's b is a sum of y or y' over the powers
of rho, and each of those sums is evaluated once.  compute_constants builds
one table of y(rho^i), i = 2.._POWERS: C reads its first entries and the
C^{(d)} grid reads all of it.  E'(rho) = sum_{i>=2} y'(rho^i) rho^{i-1} is
computed once and gives both the closed-form b (the cross-check of the
ladder) and the mu_d divisor b^2 rho / 2.  One generator, _on_powers, walks
the powers for E in the rho fixed point, for E'(rho) and for the table.

C^{(d)}(rho) solves the derivative recurrence gamma_{k+1} = y (gamma_k +
sum_{i>=2} gamma_k(x^i)) at x = rho, giving C^{(d)}(rho) = gamma_0(rho) +
sum_{l>=0} sum_{i>=2} gamma_l(rho^i) (all evaluations at arguments <= rho^2,
machine precision).  The tests hold it to a second route that extrapolates
(1-y)D/y^d along a ladder x_j -> rho, which loses accuracy for large d where
y^{-d} blows up.  c_d_rho_solve runs it for every requested degree in one
array pass over the grid rho^m: the cycle index Z_{d-1} on the whole grid,
one np.bincount along the order's substitution plan per recurrence level,
and Gamma_l as the last entry of an np.cumsum.

The constants are pinned bit for bit, so every float sum on their path adds
left to right in plain double arithmetic: explicit += loops, np.cumsum and
np.bincount, which all add in order.  No builtin sum() of floats is left on
that path (the bracket probe of compute_rho uses math.fsum, correctly
rounded), because from Python 3.12 on sum() compensates its float additions
(Neumaier), which changes the last bits of some C_d between Python versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .enumeration import tree_series
from .errors import AccuracyError, UsageError
from .series import TruncatedSeries, _substitution_plan

#: known radius of convergence of the tree function; used only as an
#: iteration seed and as the default geometric rescaling of float series.
APPROX_RADIUS = 0.3383218568992077

_SQRT2 = math.sqrt(2.0)
# the powers rho^2..rho^_POWERS carry every sum here; rho^200 < 1e-94.
_POWERS = 200
# compute_rho's fixed-point iteration stops once a step moves rho by less than this
_RHO_STEP_TOL = 1e-14


@dataclass
class ConstantsSet:
    rho: float
    b: float
    C: float
    Cd: dict
    mu_d: dict
    err: dict = field(default_factory=dict)

    def c_d_rho_d(self, d):
        """C_d * rho^d, the amplitude appearing in the limit laws."""
        return self.Cd[d] * self.rho**d


@lru_cache(maxsize=16)
def _y(N):
    """tree_series(N), one series per N for the evaluations in this module.

    Its table of log-magnitudes, built at its first evaluation, serves every
    later step and call at N.  The series never leaves this module, and
    nothing here changes it in place.
    """
    return tree_series(N)


# ---------------------------------------------------------------------------
# sums over the powers of a point
# ---------------------------------------------------------------------------

def _on_powers(series, x):
    """(i, x^i, value, error) of series at x^i for i = 2.._POWERS, up to underflow."""
    for i in range(2, _POWERS + 1):
        xi = x**i
        if xi < 1e-300:
            return
        v, e = series.evaluate(xi)
        yield i, xi, v, e


def _power_sum(series, x, term):
    """(sum_{i>=2} term(i, series(x^i)), same sum of the errors), stopping at
    the first term below 1e-18 past i = 4."""
    tot = err = 0.0
    for i, _, v, e in _on_powers(series, x):
        t = term(i, v)
        tot += t
        err += term(i, e)
        if t < 1e-18 and i > 4:
            break
    return tot, err


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def compute_rho(N):
    """Radius of convergence via the singular system, with error estimate.

    Returns (rho, err).  Validates the bracket g(0.2) < 0 < g(0.45) for
    g(x) = y(x) - 1.  The 0.45 probe lies past rho, where the series
    diverges; it sums only the terms up to x^10, which are positive, so the
    probe is a lower bound of the divergent value at every order N.
    """
    if N < 100:
        raise UsageError("compute_rho requires N >= 100")
    y = _y(N)
    lo, _ = y.evaluate(0.2)
    hi = math.fsum(c * 0.45**n for n, c in enumerate(y.coeffs[:11]))
    if not (lo < 1.0 < hi):
        raise AccuracyError("bracket validation for y(x)=1 failed")
    rho = 0.34
    delta = 1.0
    for _ in range(200):
        # E(rho) = sum_{i>=2} y(rho^i)/i
        e_val, tail_err = _power_sum(y, rho, lambda i, v: v / i)
        new = math.exp(-1.0 - e_val)
        delta = abs(new - rho)
        rho = new
        if delta < _RHO_STEP_TOL:
            break
    else:
        raise AccuracyError("rho fixed point did not converge")
    # contraction rate |d new/d rho| = rho E'(rho) ~ 0.22
    err = delta / 0.7 + tail_err + 4e-16
    if err > 1e-6:
        raise AccuracyError(f"rho error estimate {err:.2e} too large; increase N")
    return rho, err


# ---------------------------------------------------------------------------
# b
# ---------------------------------------------------------------------------

def _ladder_points(y, rho):
    """(x_j, y(x_j)) on the rungs x_j = rho (1 - 2^-j), j = 3, 4, ..., up to
    the first rung whose series tail pollutes (1-y) by 1e-3 or more."""
    pts = []
    for j in range(3, 40):
        x = rho * (1.0 - 2.0**-j)
        v, e = y.evaluate(x)
        one_minus = 1.0 - v
        if one_minus <= 0:
            break
        if 2.0 * e / one_minus > 1e-3:
            break
        pts.append((x, v))
    return pts


def _richardson(fa, fb, fc):
    """Limit of f(x) = f0 + a sqrt(rho-x) + c (rho-x) + ... from three
    consecutive rungs, each halving rho - x: one stage removes the sqrt term
    on each pair, a second the linear term.  Returns (second stage, first
    stage on the deeper pair)."""
    r1ab = (_SQRT2 * fb - fa) / (_SQRT2 - 1.0)
    r1bc = (_SQRT2 * fc - fb) / (_SQRT2 - 1.0)
    return 2.0 * r1bc - r1ab, r1bc


def compute_b(rho, N):
    """Singular coefficient b from the ladder limit of (1-y(x))^2/(rho-x).

    f(x) = b^2 - 2bc sqrt(rho-x) + O(rho-x); two Richardson stages on the
    deepest three tail-clean rungs remove the sqrt and linear terms.
    Returns (b, err).
    """
    pts = _ladder_points(_y(N), rho)
    if len(pts) < 3:
        raise AccuracyError("not enough tail-clean ladder rungs; increase N")
    f = [(1.0 - v) ** 2 / (rho - x) for x, v in pts]
    b2, r1_last = _richardson(*f[-3:])
    if b2 <= 0:
        raise AccuracyError("ladder extrapolation failed")
    b = math.sqrt(b2)
    prev = _richardson(*f[-4:-1])[0] if len(f) >= 4 else 0.0
    if prev > 0:
        err = abs(b - math.sqrt(prev)) + 1e-12
    else:
        err = abs(b - math.sqrt(r1_last)) / 2.0 + 1e-12
    return b, err


def _half_b2rho(rho, N):
    """b^2 rho / 2 = 1 + rho E'(rho), exact at the singular point.

    mu_d divides by this rather than by a b estimate, whose error would bias
    every mu_d alike, so sum_d mu_d = 1 to full precision.
    """
    y = _y(N)
    # y' keeps y's order; its x^N coefficient is 0, so evaluate adds no tail
    yprime = TruncatedSeries(
        [n * c for n, c in enumerate(y.coeffs)][1:] + [0], y.order, y.ring
    )
    ep, _ = _power_sum(yprime, rho, lambda i, v: v * rho ** (i - 1))
    return 1.0 + rho * ep


# ---------------------------------------------------------------------------
# C
# ---------------------------------------------------------------------------

def _C_from_powers(rho, powers):
    """(C, err) from _on_powers rows of y at rho; the i = 1 term of
    log C = sum_{i>=1} (y(rho^i)/rho^i - 1)/i is (1/rho - 1) exactly."""
    s = 1.0 / rho - 1.0
    err = 0.0
    for i, xi, v, e in powers:
        term = (v / xi - 1.0) / i
        s += term
        err += e / xi / i
        if term < 1e-14 and i >= 40:
            break
    C = math.exp(s)
    return C, C * (err + 1e-14)


def compute_C(rho, N):
    """C = exp(sum_{i>=1} (y(rho^i)/rho^i - 1)/i), with its error."""
    return _C_from_powers(rho, _on_powers(_y(N), rho))


# ---------------------------------------------------------------------------
# C_d via the derivative recurrence solved at rho
# ---------------------------------------------------------------------------

def c_d_rho_solve(degrees, rho, yvals):
    """{d: C^{(d)}(rho)} for every d in degrees, C^{(d)} = gamma_0 + sum_{l>=0} Gamma_l.

    gamma_0(x) = x Z_{d-1}(y(x), ..., y(x^{d-1})) and the recurrence
    gamma_{l+1}(x) = y(x)(gamma_l(x) + sum_{i>=2} gamma_l(x^i)) is iterated on
    the value grid {rho^m}, m <= M, where yvals[m] = y(rho^m), for all
    degrees at once as the rows of one array; Gamma_l(rho) = sum_{m>=2}
    gamma_l(rho^m) decays like y(rho^2)^l ~ 0.13^l, and a degree stops adding
    at the first Gamma_l below 1e-17 past l = 3.  Every sum adds left to
    right, so each value is the plain per-degree loop's, bit for bit.
    """
    ds = sorted(set(degrees))
    if not ds:
        return {}
    M = len(yvals) - 1
    y = np.array(yvals, dtype=float)
    # rho^m by Python's pow, as the constants were pinned; 0 from the first
    # power below 1e-280 on
    pw = np.zeros(M + 1)
    for m in range(1, M + 1):
        if rho**m < 1e-280:
            break
        pw[m] = rho**m
    # Z_k(s_1, ..., s_k) = (1/k) sum_r s_r Z_{k-r} on the grid, s_r = y(rho^{mr})
    # (0 past the grid); Z_k does not depend on d, so Z_{d-1} serves every d
    mr = np.arange(M + 1) * np.arange(ds[-1])[:, None]
    s = np.where(mr <= M, y[np.minimum(mr, M)], 0.0)
    Z = [np.ones(M + 1)]
    for k in range(1, ds[-1]):
        acc = np.zeros(M + 1)
        for r in range(1, k + 1):
            acc += s[r] * Z[k - r]
        Z.append(acc / k)
    g = pw * np.array([Z[d - 1] for d in ds])
    total = g[:, 1].copy()
    g[:, 1] = 0.0
    # acc[m] = g[m] + g[2m] + g[3m] + ...: the order's substitution plan from
    # target back to source, i ascending from 1; bincount adds in that order,
    # one row of the flat index per degree still adding
    src, reads, _, _ = _substitution_plan(M)
    bins = np.arange(len(ds))[:, None] * (M + 1) + src
    rows = np.arange(len(ds))
    for level in range(200):
        gam = np.cumsum(g, axis=1)[:, -1]
        total[rows] += gam
        going = ~((gam < 1e-17) & (level > 3))
        rows, g = rows[going], g[going]
        if not len(rows):
            break
        acc = np.bincount(bins[: len(rows)].ravel(), g[:, reads].ravel(), g.size)
        g = y * acc.reshape(g.shape)
        g[:, :2] = 0.0
    return {d: float(total[k]) for k, d in enumerate(ds)}


# ---------------------------------------------------------------------------
# one-shot bundle
# ---------------------------------------------------------------------------

def compute_constants(N=400, degrees=range(1, 11)):
    """All constants in one pass; reproducible bit-identically for fixed N."""
    if any(d < 1 for d in degrees):
        raise UsageError(f"degrees must be >= 1, got {sorted(degrees)}")
    rho, rho_err = compute_rho(N)
    b, b_err = compute_b(rho, N)
    half_b2rho = _half_b2rho(rho, N)
    b_fun = math.sqrt(2.0 * half_b2rho / rho)
    if abs(b - b_fun) > max(3.0 * b_err, 5e-3):
        raise AccuracyError(
            f"ladder b={b} inconsistent with functional-equation b={b_fun}"
        )
    # y(rho^i) for i = 2.._POWERS, with y(rho) = 1 imposed exactly
    powers = list(_on_powers(_y(N), rho))
    C, C_err = _C_from_powers(rho, powers)
    yvals = [0.0, 1.0] + [v for _, _, v, _ in powers]
    cdrs = c_d_rho_solve(degrees, rho, yvals)
    Cd = {}
    mu = {}
    err = {"rho": rho_err, "b": b_err, "C": C_err, "b_consistency": abs(b - b_fun)}
    for d in degrees:
        cdr = cdrs[d]
        Cd[d] = cdr / rho**d
        mu[d] = cdr / half_b2rho
        err[f"C_{d}"] = max(1e-12 * abs(Cd[d]), 1e-15)
    return ConstantsSet(rho=rho, b=b, C=C, Cd=Cd, mu_d=mu, err=err)
