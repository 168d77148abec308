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
# the powers rho^2..rho^_POWERS carry every sum here; rho^200 < 1e-94.
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

def compute_rho(N, tol=1e-14):
    """Radius of convergence via the singular system, with error estimate.

    Returns (rho, err).  Validates the bracket g(0.2) < 0 < g(0.45) for
    g(x) = y(x) - 1.  The 0.45 probe lies past rho, where the series
    diverges; it sums only the terms up to x^10, which are positive, so the
    probe is a lower bound of the divergent value at every order N.
    """
    if N < 100:
        raise UsageError("compute_rho requires N >= 100")
    y = tree_series(N)
    lo, _ = y.evaluate(0.2)
    hi = sum(c * 0.45**n for n, c in enumerate(y.coeffs[:11]))
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
    pts = _ladder_points(tree_series(N), rho)
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
    y = tree_series(N)
    # y' keeps y's order; its x^N coefficient is 0, so evaluate adds no tail
    yprime = TruncatedSeries(
        [n * c for n, c in enumerate(y.coeffs)][1:] + [0], y.order, y.ring
    )
    ep, _ = _power_sum(yprime, rho, lambda i, v: v * rho ** (i - 1))
    return 1.0 + rho * ep


def b_from_functional_equation(rho, N):
    """Closed-form b = sqrt(2 (1 + rho E'(rho)) / rho) from the singular system.

    Independent of the ladder; good to ~1e-12 at N >= 200.  Used as a
    cross-check of compute_b.
    """
    return math.sqrt(2.0 * _half_b2rho(rho, N) / rho)


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
    return _C_from_powers(rho, _on_powers(tree_series(N), rho))


# ---------------------------------------------------------------------------
# C_d via the derivative recurrence solved at rho
# ---------------------------------------------------------------------------

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
    pts = _ladder_points(tree_series(N), rho)
    if len(pts) < 3:
        raise AccuracyError("not enough ladder rungs for C_d; increase N")
    D = degree_series(d, N).D
    return _richardson(*[(1.0 - v) * D.evaluate(x)[0] / v**d for x, v in pts[-3:]])[0]


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
    half_b2rho = _half_b2rho(rho, N)
    b_fun = math.sqrt(2.0 * half_b2rho / rho)
    if abs(b - b_fun) > max(3.0 * b_err, 5e-3):
        raise AccuracyError(
            f"ladder b={b} inconsistent with functional-equation b={b_fun}"
        )
    # y(rho^i) for i = 2.._POWERS, with y(rho) = 1 imposed exactly
    powers = list(_on_powers(tree_series(N), rho))
    C, C_err = _C_from_powers(rho, powers)
    yvals = [0.0, 1.0] + [v for _, _, v, _ in powers]
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
