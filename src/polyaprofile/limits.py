"""Evaluators for the limit laws of the scaled degree profile.

``eval_psi`` computes the characteristic function of the limit of
l_n^{(d)}(kappa) = L_n^{(d)}(floor(kappa sqrt(n)))/sqrt(n), as a contour
integral on a truncated Hankel-type contour.  With A = C_d rho^d and
q(s) = (kappa b sqrt(rho)/2) sqrt(-s),

    psi(t) = 1 + (A t / (b sqrt(rho pi))) *
             int_gamma  sqrt(-s) e^{-q(s)-s}
                        / ( sqrt(-s) e^{q(s)} - (i t A/(b sqrt(rho))) sinh q(s) ) ds

where gamma comes in from +infinity below the real axis, circles the origin
clockwise and returns above the axis (the orientation for which
(1/2 pi i) int (-s)^{-z} e^{-s} ds = 1/Gamma(z)).  The normalisation is
pinned by psi'(0) = i A kappa e^{-kappa^2 b^2 rho/4}, the mean of the limit;
the quadrature reproduces that and the second moment to ~1e-9, and the value
agrees with empirical characteristic functions from the sampler.  Only
structural properties (psi(0)=1, conjugate symmetry, |psi|<=1) are asserted
in acceptance runs.  Each of the three contour pieces is integrated with a
Gauss-Legendre rule of ``nodes`` points and again with 2 ``nodes``; a rule is
built once per node count and then shared by every call.  Only the term
i t A/(b sqrt(rho)) sinh q(s) of the integrand depends on t or d: the rest
(the rule's weights and, per piece, sqrt(-s) e^q, sinh q, sqrt(-s) e^{-q-s}
and ds) is a read-only contour table, built once per (kappa b sqrt(rho)/2,
arc radius, nodes) and shared by every t and d at that kappa.

``eval_cov_limit`` / ``eval_var_limit`` evaluate the n-normalised covariance
and variance limits

    Cov(X^{(d1)}(k), X^{(d2)}(k)) / n ->
        C_{d1} C_{d2} rho^{d1+d2} [ (2/(b^2 rho)) (e^{-z/4} - e^{-z})
                                    - kappa^2 e^{-z/2} ],   z = kappa^2 b^2 rho.

Note the minus sign on e^{-z}: the bracket must vanish as kappa -> 0
(level 0 holds a single root, so cross moments of distinct degrees are
exactly zero there) and the exact finite-n covariance from the profile
recurrences converges to this bracket with an O(1/sqrt(n)) gap; both checks
are in the test suite.  The variance is the d1 = d2 specialisation with
amplitude C_d^2 rho^{2d}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import profile
from .errors import AccuracyError, UsageError

_DEFAULT_NS = (400, 900, 1600)
# The psi contour: two rays of length S = _RAY_LENGTH (the cut-off tail is
# below e^{-S}, a term of the reported error) joined by an arc of radius
# _ARC_RADIUS around 0, which eval_psi shrinks near a denominator zero.
_RAY_LENGTH = 40.0
_ARC_RADIUS = 1.0


@dataclass(frozen=True)
class LimitEvaluation:
    value: object  # complex or float
    quadrature_error: float = 0.0


def _check_kappa(kappa):
    """Reject a level scale kappa that is not finite or is negative."""
    if not (math.isfinite(kappa) and kappa >= 0):
        raise UsageError(f"kappa must be finite and >= 0, got {kappa}")


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _unit_rule(nodes):
    """The nodes-point Gauss-Legendre rule mapped to [0, 1], as read-only
    (x, w) arrays: built once per node count, since each build is a dense
    eigenvalue problem that costs far more than the integrand."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=8)
def _psi_contour(c, arc_radius, nodes):
    """The t-independent part of psi's integrand on the contour of arc radius
    ``arc_radius``, with q(s) = c sqrt(-s): the rule's weights and, for each
    piece in contour order, (r e^q, sinh q, r e^{-q-s}, ds/dx) with r =
    sqrt(-s).  Read-only, and built once per key: every t and every degree d
    at one kappa share it, since t, lambda and the prefactor enter per call.
    """
    S, w = _RAY_LENGTH, arc_radius
    x, wt = _unit_rule(nodes)
    # the arc: s = w e^{i theta} clockwise through -w, theta: -pi/2 -> -3pi/2
    s_arc = w * np.exp(1j * (-0.5 * np.pi - np.pi * x))
    pieces = []
    for s, ds in (  # (s, ds/dx) of each piece, in contour order
        ((S - S * x) - 1j * w, -S),  # incoming ray below the axis
        (s_arc, 1j * s_arc * (-np.pi)),
        (S * x + 1j * w, S),  # outgoing ray above the axis
    ):
        r = np.sqrt(-s)
        q = c * r
        arrays = (r * np.exp(q), np.sinh(q), r * np.exp(-q - s), ds)
        for arr in arrays:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        pieces.append(arrays)
    return wt, tuple(pieces)


def _psi_quadrature(t, amplitude, kappa, b, rho, nodes, arc_radius):
    lam = amplitude / (b * math.sqrt(rho))
    wt, pieces = _psi_contour(0.5 * kappa * b * math.sqrt(rho), arc_radius, nodes)
    min_den = math.inf
    total = 0.0 + 0.0j
    for r_exp_q, sinh_q, num, ds in pieces:
        den = r_exp_q - 1j * t * lam * sinh_q
        total += np.sum(wt * (num / den) * ds)
        min_den = min(min_den, np.abs(den).min())
    prefactor = amplitude * t / (b * math.sqrt(rho * math.pi))
    return 1.0 + prefactor * total, min_den


def eval_psi(t, d, kappa, constants, nodes=200):
    """psi(t) for the limit of l_n^{(d)}(kappa); returns a LimitEvaluation.

    The reported quadrature error is the node-doubling difference plus the
    e^{-S} ray-truncation bound.  If the integrand's denominator comes close
    to zero on the contour the arc is shrunk and the quadrature retried.  The
    Gauss-Legendre rules of ``nodes`` and 2 ``nodes`` points, and the contour
    tables of the t-independent terms, keyed by (kappa b sqrt(rho)/2, arc
    radius, nodes), are built on the first call that asks for them and
    reused after: a grid of t, at any degree d, sums over the same tables.
    """
    _check_kappa(kappa)
    if kappa == 0:
        raise UsageError("eval_psi requires kappa > 0")
    amplitude = constants.c_d_rho_d(d)
    radius = _ARC_RADIUS
    # a large kappa overflows exp and sinh on the contour; that ends in the
    # non-finite check below, not in numpy warnings
    with np.errstate(all="ignore"):
        for _ in range(6):
            val, min_den = _psi_quadrature(
                t, amplitude, kappa, constants.b, constants.rho, nodes, radius
            )
            if min_den > 1e-6:
                break
            radius *= 0.5  # contour adjustment: shrink the arc and retry
        else:
            raise AccuracyError("could not keep the contour away from denominator zeros")
        val2, _ = _psi_quadrature(
            t, amplitude, kappa, constants.b, constants.rho, 2 * nodes, radius
        )
        err = abs(val2 - val) + math.exp(-_RAY_LENGTH)
    if not (cmath.isfinite(val2) and math.isfinite(err)):
        raise AccuracyError(f"the psi quadrature overflowed at kappa={kappa}, t={t}")
    return LimitEvaluation(value=val2, quadrature_error=err)


# ---------------------------------------------------------------------------
# covariance / variance limits
# ---------------------------------------------------------------------------

def cov_bracket(kappa, b, rho):
    """(2/(b^2 rho))(e^{-z/4} - e^{-z}) - kappa^2 e^{-z/2}, z = kappa^2 b^2 rho."""
    z = kappa * kappa * b * b * rho
    return (2.0 / (b * b * rho)) * (math.exp(-z / 4.0) - math.exp(-z)) - (
        kappa * kappa * math.exp(-z / 2.0)
    )


def eval_cov_limit(d1, d2, kappa, constants):
    """Per-n covariance limit; the caller multiplies by n.

    Above kappa of about 1e154, kappa^2 overflows and the bracket's
    kappa^2 e^{-z/2} is inf * 0; that ends in AccuracyError, not in nan.
    """
    _check_kappa(kappa)
    value = (
        constants.c_d_rho_d(d1)
        * constants.c_d_rho_d(d2)
        * cov_bracket(kappa, constants.b, constants.rho)
    )
    if not math.isfinite(value):
        raise AccuracyError(f"the covariance limit is not finite at kappa={kappa}")
    return LimitEvaluation(value=value)


def eval_var_limit(d, kappa, constants):
    """Per-n variance limit: the d1 = d2 case, amplitude C_d^2 rho^{2d}."""
    return eval_cov_limit(d, d, kappa, constants)


def limit_mean(d, kappa, constants):
    """Mean of the limit: A kappa e^{-kappa^2 b^2 rho / 4}.

    Consequence of the scaling limit and the excursion local-time mean; used
    as a consistency anchor, not as the primary estimate (see
    eval_limit_mean).
    """
    _check_kappa(kappa)
    z = kappa * kappa * constants.b**2 * constants.rho
    return constants.c_d_rho_d(d) * kappa * math.exp(-z / 4.0)


def eval_limit_mean(d, kappa, constants, n_values=_DEFAULT_NS):
    """Limit of E l_n^{(d)}(kappa) by Richardson extrapolation in 1/sqrt(n).

    Uses exact series means at the given n values, read from one
    double-ring pass at the largest n with the bits of ``scaled_level_mean``
    at each, and removes the O(1/sqrt(n)) drift from the last two; the
    spread against the previous pair is the reported error, widened when the
    sequence is not monotone.
    """
    _check_kappa(kappa)
    if len(n_values) < 2 or len(set(n_values)) < len(n_values) or min(n_values) < 1:
        raise UsageError("extrapolation needs two or more distinct sizes n >= 1, "
                         f"got {tuple(n_values)}")
    reads = [(n, profile.level_of(kappa, n)) for n in n_values]
    means = profile.level_means(d, reads, ring="double", scale=constants.rho)
    ms = [m / math.sqrt(n) for n, m in zip(n_values, means)]
    xs = [1.0 / math.sqrt(n) for n in n_values]

    def extrap(i, j):
        a = (ms[i] - ms[j]) / (xs[i] - xs[j])
        return ms[j] - a * xs[j]

    primary = extrap(len(ms) - 2, len(ms) - 1)
    if len(ms) >= 3:
        secondary = extrap(len(ms) - 3, len(ms) - 2)
        err = abs(primary - secondary)
        diffs = [ms[i + 1] - ms[i] for i in range(len(ms) - 1)]
        monotone = all(d1 * d2 >= 0 for d1, d2 in zip(diffs, diffs[1:]))
        if not monotone:
            err = max(err, max(ms) - min(ms))
    else:
        err = abs(ms[-1] - primary)
    return LimitEvaluation(value=primary, quadrature_error=err)


# ---------------------------------------------------------------------------
# correlation convergence
# ---------------------------------------------------------------------------

def correlation_convergence_report(d1, d2, kappa, n_values, constants, ring="auto"):
    """Rows (n, 1 - corr, sqrt(n) (1 - corr)) for k = floor(kappa sqrt(n)).

    The third column still grows with n: 11.21, 14.37, 15.89 and 16.79 at
    n = 400, 1600, 3600 and 6400 for (d1, d2, kappa) = (1, 2, 1), so 1 - corr
    falls a little slower than 1/sqrt(n) at these sizes.  ``ring`` is
    "exact", "double" (rescaled by ``constants.rho``) or "auto" (exact up to
    n = 200); ``finite_covariances`` refuses any other.  The sizes of a ring
    are read from one pass at its largest n, with the bits of a pass per n,
    so "auto" runs at most two.
    """
    _check_kappa(kappa)
    if any(n < 1 for n in n_values):
        raise UsageError(f"sizes n must be >= 1, got {tuple(n_values)}")
    uses = [("exact" if n <= 200 else "double") if ring == "auto" else ring for n in n_values]
    reads = {}  # working ring -> its (n, k) reads; the exact ring ignores the scale
    for n, use in zip(n_values, uses):
        reads.setdefault(use, []).append((n, profile.level_of(kappa, n)))
    tables = {use: iter(profile.finite_covariances(d1, d2, rs, ring=use, scale=constants.rho))
              for use, rs in reads.items()}
    rows = []
    for n, use in zip(n_values, uses):
        table = next(tables[use])
        if table.correlation is None:
            raise AccuracyError(f"degenerate variance at n={n}, k={table.k}")
        one_minus = 1.0 - table.correlation
        rows.append((n, one_minus, math.sqrt(n) * one_minus))
    return rows
