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

C^{(d)}(rho) is evaluated two ways: the primary route solves the derivative
recurrence gamma_{k+1} = y (gamma_k + sum_{i>=2} gamma_k(x^i)) at x = rho,
giving C^{(d)}(rho) = gamma_0(rho) + sum_{l>=0} sum_{i>=2} gamma_l(rho^i)
(all evaluations at arguments <= rho^2, machine precision); the secondary
route extrapolates (1-y)D/y^d along a ladder x_j -> rho and is kept as a
cross-check since it loses accuracy for large d where y^{-d} blows up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .enumeration import degree_series, tree_series
from .errors import AccuracyError, UsageError
from .series import TruncatedSeries

#: known radius of convergence of the tree function; used only as an
#: iteration seed and as the default geometric rescaling of float series.
APPROX_RADIUS = 0.3383218568992077

_SQRT2 = math.sqrt(2.0)
# C^{(d)}(rho) is solved on the value grid rho^1..rho^_POWERS; rho^200 < 1e-94.
_POWERS = 200


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


# ---------------------------------------------------------------------------
# evaluation helpers on the exact series
# ---------------------------------------------------------------------------

def _deriv_series(y):
    return TruncatedSeries(
        [n * c for n, c in enumerate(y.coeffs)][1:] + [0], y.order, y.ring
    )


def _aux_exponent(y, x):
    """E(x) = sum_{i>=2} y(x^i)/i with truncation error estimate."""
    tot = 0.0
    err = 0.0
    i = 2
    while True:
        xi = x**i
        if xi < 1e-300:
            break
        v, e = y.evaluate(xi)
        tot += v / i
        err += e / i
        if v / i < 1e-18 and i > 4:
            break
        i += 1
    return tot, err


def _aux_exponent_deriv(yprime, x):
    """E'(x) = sum_{i>=2} y'(x^i) x^{i-1}."""
    tot = 0.0
    i = 2
    while True:
        xi = x**i
        if xi < 1e-300:
            break
        v, _ = yprime.evaluate(xi)
        term = v * x ** (i - 1)
        tot += term
        if term < 1e-18 and i > 4:
            break
        i += 1
    return tot


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def compute_rho(N, tol=1e-14):
    """Radius of convergence via the singular system, with error estimate.

    Returns (rho, err).  Validates the one-sided bracket g(0.2) < 0 < g(0.45)
    for g(x) = y(x) - 1 (the 0.45 probe uses the raw partial sum, which is a
    lower bound for the divergent tail there).
    """
    if N < 100:
        raise UsageError("compute_rho requires N >= 100")
    y = tree_series(N)
    lo, _ = y.evaluate(0.2)
    hi, _ = y.evaluate(0.45, tail_bound=float("inf"))
    if not (lo < 1.0 < hi):
        raise AccuracyError("bracket validation for y(x)=1 failed")
    rho = 0.34
    tail_err = 0.0
    delta = 1.0
    for _ in range(200):
        e_val, e_err = _aux_exponent(y, rho)
        new = math.exp(-1.0 - e_val)
        tail_err = e_err
        delta = abs(new - rho)
        rho = new
        if delta < tol:
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
    """Rungs x_j = rho (1 - 2^-j), j >= 3, whose series tail pollutes (1-y) by < 1e-3."""
    pts = []
    for j in range(3, 40):
        x = rho * (1.0 - 2.0**-j)
        v, e = y.evaluate(x)
        one_minus = 1.0 - v
        if one_minus <= 0:
            break
        if 2.0 * e / one_minus > 1e-3:
            break
        pts.append((j, x, v, e))
    return pts


def compute_b(rho, N, return_diag=False):
    """Singular coefficient b from the ladder limit of (1-y(x))^2/(rho-x).

    f(x) = b^2 - 2bc sqrt(rho-x) + O(rho-x); two Richardson stages on the
    deepest three tail-clean rungs remove the sqrt and linear terms.
    Returns (b, err).
    """
    y = tree_series(N)
    pts = _ladder_points(y, rho)
    if len(pts) < 3:
        raise AccuracyError("not enough tail-clean ladder rungs; increase N")
    f = {j: (1.0 - v) ** 2 / (rho - x) for j, x, v, _ in pts}
    js = sorted(f)
    triples = [js[i : i + 3] for i in range(len(js) - 2)]

    def r2_of(triple):
        a, bj, c = triple
        if not (bj == a + 1 and c == bj + 1):
            return None
        r1ab = (_SQRT2 * f[bj] - f[a]) / (_SQRT2 - 1.0)
        r1bc = (_SQRT2 * f[c] - f[bj]) / (_SQRT2 - 1.0)
        return 2.0 * r1bc - r1ab, r1bc

    best = r2_of(triples[-1])
    if best is None or best[0] <= 0:
        raise AccuracyError("ladder extrapolation failed")
    b2, r1_last = best
    b = math.sqrt(b2)
    prev = r2_of(triples[-2]) if len(triples) >= 2 else None
    if prev is not None and prev[0] > 0:
        err = abs(b - math.sqrt(prev[0])) + 1e-12
    else:
        err = abs(b - math.sqrt(r1_last)) / 2.0 + 1e-12
    if return_diag:
        return b, err, f
    return b, err


def b_from_functional_equation(rho, N):
    """Closed-form b = sqrt(2 (1 + rho E'(rho)) / rho) from the singular system.

    Independent of the ladder; good to ~1e-12 at N >= 200.  Used as a
    cross-check of compute_b.
    """
    y = tree_series(N)
    ep = _aux_exponent_deriv(_deriv_series(y), rho)
    return math.sqrt(2.0 * (1.0 + rho * ep) / rho)


# ---------------------------------------------------------------------------
# C
# ---------------------------------------------------------------------------

def compute_C(rho, N, return_partials=False):
    """C = exp(sum_{i>=1} (y(rho^i)/rho^i - 1)/i); i=1 term is (1/rho - 1) exactly."""
    y = tree_series(N)
    s = 1.0 / rho - 1.0
    partials = [s]
    err = 0.0
    i = 2
    while True:
        v, e = y.evaluate(rho**i)
        term = (v / rho**i - 1.0) / i
        s += term
        err += e / rho**i / i
        partials.append(s)
        if term < 1e-14 and i >= 40:
            break
        i += 1
        if i > 200:
            break
    C = math.exp(s)
    if return_partials:
        return C, C * (err + 1e-14), partials
    return C, C * (err + 1e-14)


# ---------------------------------------------------------------------------
# C_d via the derivative recurrence solved at rho
# ---------------------------------------------------------------------------

def _y_values_on_powers(y, rho):
    """y(rho^m) for m = 1.._POWERS with y(rho) = 1 imposed exactly."""
    vals = [0.0] * (_POWERS + 1)
    vals[1] = 1.0
    for m in range(2, _POWERS + 1):
        x = rho**m
        if x < 1e-300:
            break
        vals[m], _ = y.evaluate(x)
    return vals


def _cycle_index_values(d, svals):
    """Z_d at numeric s_r values via Z_m = (1/m) sum_r s_r Z_{m-r}."""
    Z = [1.0] + [0.0] * d
    for m in range(1, d + 1):
        Z[m] = sum(svals[r] * Z[m - r] for r in range(1, m + 1)) / m
    return Z[d]


def c_d_rho_solve(d, rho, yvals):
    """C^{(d)}(rho) = gamma_0(rho) + sum_{l>=0} Gamma_l(rho).

    gamma_0(x) = x Z_{d-1}(y(x), ..., y(x^{d-1})) and the recurrence
    gamma_{l+1}(x) = y(x)(gamma_l(x) + sum_{i>=2} gamma_l(x^i)) is iterated on
    the value grid {rho^m}, m <= M, where yvals[m] = y(rho^m);
    contributions decay like y(rho^2)^l ~ 0.13^l.
    """
    M = len(yvals) - 1
    g = [0.0] * (M + 1)
    for m in range(1, M + 1):
        if rho**m < 1e-280:
            break
        sv = [0.0] * max(d, 1)
        for r in range(1, d):
            mr = m * r
            sv[r] = yvals[mr] if mr <= M else 0.0
        g[m] = rho**m * _cycle_index_values(d - 1, sv)
    total = g[1]
    for level in range(200):
        gam = sum(g[i] for i in range(2, M + 1))
        total += gam
        if gam < 1e-17 and level > 3:
            break
        ng = [0.0] * (M + 1)
        for m in range(2, M + 1):
            acc = g[m]
            im = 2 * m
            i = 2
            while im <= M:
                acc += g[im]
                i += 1
                im = i * m
            ng[m] = yvals[m] * acc
        g = ng
    return total


def c_d_rho_ladder(d, rho, N):
    """Secondary route: extrapolate (1-y) D^{(d)} / y^d along the rho ladder."""
    y = tree_series(N)
    D = degree_series(d, N).D
    pts = _ladder_points(y, rho)
    if len(pts) < 3:
        raise AccuracyError("not enough ladder rungs for C_d; increase N")
    f = {}
    for j, x, v, _ in pts:
        Dv, _ = D.evaluate(x)
        f[j] = (1.0 - v) * Dv / v**d
    js = sorted(f)[-3:]
    a, bj, c = js
    r1ab = (_SQRT2 * f[bj] - f[a]) / (_SQRT2 - 1.0)
    r1bc = (_SQRT2 * f[c] - f[bj]) / (_SQRT2 - 1.0)
    return 2.0 * r1bc - r1ab


def _half_b2rho(rho, N):
    """b^2 rho / 2 = 1 + rho E'(rho), exact at the singular point.

    mu_d divides by this rather than by a b estimate, whose error would bias
    every mu_d alike, so sum_d mu_d = 1 to full precision.
    """
    y = tree_series(N)
    return 1.0 + rho * _aux_exponent_deriv(_deriv_series(y), rho)


# ---------------------------------------------------------------------------
# one-shot bundle
# ---------------------------------------------------------------------------

def compute_constants(N=400, degrees=range(1, 11)):
    """All constants in one pass; reproducible bit-identically for fixed N."""
    if any(d < 1 for d in degrees):
        raise UsageError(f"degrees must be >= 1, got {sorted(degrees)}")
    t0 = time.monotonic()
    rho, rho_err = compute_rho(N)
    b, b_err = compute_b(rho, N)
    b_fun = b_from_functional_equation(rho, N)
    if abs(b - b_fun) > max(3.0 * b_err, 5e-3):
        raise AccuracyError(
            f"ladder b={b} inconsistent with functional-equation b={b_fun}"
        )
    C, C_err = compute_C(rho, N)
    y = tree_series(N)
    yvals = _y_values_on_powers(y, rho)
    half_b2rho = _half_b2rho(rho, N)
    Cd = {}
    mu = {}
    err = {"rho": rho_err, "b": b_err, "C": C_err, "b_consistency": abs(b - b_fun)}
    for d in degrees:
        cdr = c_d_rho_solve(d, rho, yvals)
        Cd[d] = cdr / rho**d
        mu[d] = cdr / half_b2rho
        err[f"C_{d}"] = max(1e-12 * abs(Cd[d]), 1e-15)
    err["elapsed_s"] = time.monotonic() - t0
    return ConstantsSet(rho=rho, b=b, C=C, Cd=Cd, mu_d=mu, err=err)
