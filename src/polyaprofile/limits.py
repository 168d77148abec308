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
built once per node count and then shared by every call.

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
    kind: str
    params: dict
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


def _psi_quadrature(t, amplitude, kappa, b, rho, nodes, arc_radius):
    c = 0.5 * kappa * b * math.sqrt(rho)
    lam = amplitude / (b * math.sqrt(rho))
    S, w = _RAY_LENGTH, arc_radius

    def integrand(s):
        r = np.sqrt(-s)
        q = c * r
        num = r * np.exp(-q - s)
        den = r * np.exp(q) - 1j * t * lam * np.sinh(q)
        return num / den, np.abs(den)

    x, wt = _unit_rule(nodes)
    min_den = math.inf
    total = 0.0 + 0.0j
    # incoming ray below the axis: s = (S - S x) - i w, ds = -S dx
    v, dmag = integrand((S - S * x) - 1j * w)
    total += np.sum(wt * v * (-S))
    min_den = min(min_den, dmag.min())
    # clockwise arc through -w: s = w e^{i theta}, theta: -pi/2 -> -3pi/2
    theta = -0.5 * np.pi - np.pi * x
    s_arc = w * np.exp(1j * theta)
    v, dmag = integrand(s_arc)
    total += np.sum(wt * v * (1j * s_arc * (-np.pi)))
    min_den = min(min_den, dmag.min())
    # outgoing ray above the axis: s = S x + i w, ds = S dx
    v, dmag = integrand(S * x + 1j * w)
    total += np.sum(wt * v * S)
    min_den = min(min_den, dmag.min())
    prefactor = amplitude * t / (b * math.sqrt(rho * math.pi))
    return 1.0 + prefactor * total, min_den


def eval_psi(t, d, kappa, constants, nodes=200):
    """psi(t) for the limit of l_n^{(d)}(kappa); returns a LimitEvaluation.

    The reported quadrature error is the node-doubling difference plus the
    e^{-S} ray-truncation bound.  If the integrand's denominator comes close
    to zero on the contour the arc is shrunk and the quadrature retried.  The
    Gauss-Legendre rules of ``nodes`` and 2 ``nodes`` points are built on the
    first call that asks for them and reused after.
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
    return LimitEvaluation(
        kind="char_fn",
        params={"t": t, "d": d, "kappa": kappa},
        value=val2,
        quadrature_error=err,
    )


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
    """Per-n covariance limit; the caller multiplies by n."""
    _check_kappa(kappa)
    value = (
        constants.c_d_rho_d(d1)
        * constants.c_d_rho_d(d2)
        * cov_bracket(kappa, constants.b, constants.rho)
    )
    return LimitEvaluation(
        kind="covariance", params={"d1": d1, "d2": d2, "kappa": kappa}, value=value
    )


def eval_var_limit(d, kappa, constants):
    """Per-n variance limit: the d1 = d2 case, amplitude C_d^2 rho^{2d}."""
    out = eval_cov_limit(d, d, kappa, constants)
    return LimitEvaluation(kind="variance", params={"d": d, "kappa": kappa}, value=out.value)


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

    Uses exact series means at the given n values (double-ring arithmetic)
    and removes the O(1/sqrt(n)) drift from the last two; the spread against
    the previous pair is the reported error, widened when the sequence is
    not monotone.
    """
    _check_kappa(kappa)
    if len(n_values) < 2:
        raise UsageError("need at least two n values to extrapolate")
    ms = [profile.scaled_level_mean(d, n, kappa, constants.rho) for n in n_values]
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
    return LimitEvaluation(
        kind="mean_profile",
        params={"d": d, "kappa": kappa, "n_values": tuple(n_values)},
        value=primary,
        quadrature_error=err,
    )


# ---------------------------------------------------------------------------
# correlation convergence
# ---------------------------------------------------------------------------

def correlation_convergence_report(d1, d2, kappa, n_values, constants, ring="auto"):
    """Rows (n, 1 - corr, sqrt(n) (1 - corr)) for k = floor(kappa sqrt(n)).

    The third column should stay roughly constant: the correlation of two
    degree counts on one level approaches 1 at speed 1/sqrt(n).  The double
    ring rescales by ``constants.rho``.
    """
    _check_kappa(kappa)
    if any(n < 1 for n in n_values):
        raise UsageError(f"sizes n must be >= 1, got {tuple(n_values)}")
    rows = []
    for n in n_values:
        k = int(kappa * math.sqrt(n))
        use = ring
        if ring == "auto":
            use = "exact" if n <= 200 else "double"
        table = profile.finite_covariance(
            d1, d2, n, k,
            ring="double" if use == "double" else "exact",
            scale=constants.rho if use == "double" else 1.0,
        )
        if table.correlation is None:
            raise AccuracyError(f"degenerate variance at n={n}, k={k}")
        one_minus = 1.0 - table.correlation
        rows.append((n, one_minus, math.sqrt(n) * one_minus))
    return rows
