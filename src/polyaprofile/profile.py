"""Exact finite-n laws of the degree-restricted level profile.

Let L_n^{(d)}(k) be the number of degree-d vertices at distance k from the
root in a uniform random unlabelled rooted tree of size n (planted degrees,
root at level 0).  Two independent computation routes are implemented, and
the test suite holds them to exact rational equality:

1. Marking recurrences.  The level-k marked series is built bottom-up:

       y_0(x,u)     = y(x) + (u-1) x Z_{d-1}(y(x), ..., y(x^{d-1}))
       y_{k+1}(x,u) = x exp( sum_{i>=1} y_k(x^i, u^i) / i )

   with the total-profile variant y_0 = u y(x).  In full-u mode the x^n
   coefficient is the whole distribution: P(L = l) = [x^n u^l] / y_n.  In
   moments mode u = 1 + eps with eps nilpotent, which carries all
   u-derivatives at u = 1 up to a fixed order through the same recurrence.
   The two-level series marks levels k and k+h with separate variables.
   Every mode is one ``MarkedSeries`` (an exact series in x per mark
   exponent) whose caps and basis come from one helper; its exp steps in the
   mark direction, so the level series keep integer coefficients.

2. Derivative recurrences.  Differentiating the exp recurrence once, twice,
   and in two variables and setting the marks to 1 gives univariate
   integer-coefficient recurrences for the expectation numerators:

       S_k           = gamma_k + sum_{i>=2} gamma_k(x^i)
       gamma_{k+1}   = y S_k
       gamma2_{k+1}  = y (S_k^2 + gamma2_k
                          + sum_{i>=2} i gamma2_k(x^i)
                          + sum_{i>=2} (i-1) gamma_k(x^i))
       mixed_{k+1}   = y (S_k^{(d1)} S_k^{(d2)}
                          + mixed_k + sum_{i>=2} i mixed_k(x^i))

   with gamma_0 = x Z_{d-1}(y(x),...), gamma2_0 = mixed_0 = 0.  These give
   E[X], E[X(X-1)] and E[X^{(d1)} X^{(d2)}] exactly, hence covariance,
   variance and correlation.  One pass steps all of them together: per
   level it forms S_k once per degree, then steps only the series asked
   for, so the covariance table of two degrees costs 8 series products a
   level and the plain mean 1.  Each series' substitution sums come from
   one in-place sweep over i (``TruncatedSeries.power_sums``).

   The exact pass runs modulo word-size primes (a ``ResidueRing``): every
   series it steps has nonnegative integer coefficients, [x^m] of them at
   most m^2 y_m <= N^2 y_N, so the CRT recovers a coefficient from its
   residues once the primes' product exceeds that bound.  Only what is
   read is lifted: [x^n] of five series for a covariance table, one for a
   mean, whole series for the gamma-series readers.  The covariance table
   at (1, 2, 400, 20) takes 33 primes and about 0.5 s, against 3.6 s for
   the big-integer pass it replaced (2-CPU host, numpy 2.4).  The pass also
   runs in the rescaled double ring, for large n where exact answers are
   not needed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, sqrt

from .enumeration import _build_primes, multiset_cap_series, tree_series
from .errors import UsageError
from .series import DoubleRing, MarkedSeries, ResidueRing, TruncatedSeries

TOTAL = None  # degree argument meaning "count every node on the level"


# ---------------------------------------------------------------------------
# marked-series route
# ---------------------------------------------------------------------------

def _last(progression):
    """The final item of a non-empty iterable."""
    for item in progression:
        pass
    return item


def _marked_tree_series(N, mode, order, marks, degrees, *levels):
    """y(x) lifted to a marked series with ``marks`` marks, arguments checked.

    mode 'full' caps each mark at N in the u basis, for whole laws; mode
    'moments' caps it at ``order`` in the eps basis, for factorial moments.
    """
    if min(levels) < 0 or any(d is not TOTAL and d < 1 for d in degrees):
        raise UsageError("marked series need levels k, h >= 0 and degrees d >= 1")
    if mode == "full":
        cap, basis = N, "u"
    elif mode == "moments":
        cap, basis = order, "eps"
    else:
        raise UsageError(f"unknown mode {mode!r}")
    return MarkedSeries.lift(tree_series(N), (cap, cap if marks == 2 else 0), basis)


def _marked_levels(base, k_max):
    """Yield (k, y_k) for k = 0..k_max, where y_0 = base and each level is
    x exp(sum_i y_k(x^i, u^i)/i)."""
    cur = base
    yield 0, cur
    for k in range(1, k_max + 1):
        cur = cur.polya_exponent().exp().shift(1)
        yield k, cur


def _base_level(d, y, mark, z_base=None):
    """y_0 = y + (mark - 1) x Z_{d-1}(z(x), ..., z(x^{d-1})), z = z_base or y.

    For the total profile y_0 = mark * y.  ``y`` is the plain tree series or,
    in the two-level recurrence, a series whose deeper levels already carry
    marks.  ``z_base`` feeds the cycle-index arguments of the root
    decomposition; the root's children see the tree's level h as their level
    h-1, so for a two-level base marking levels 0 and h the z_base must be
    the (h-1)-level marked series, not the h-level one (exhaustive
    enumeration pins this down; see the two-level tests).
    """
    if d is TOTAL:
        return mark * y
    zsub = multiset_cap_series(d, y.order, base=y if z_base is None else z_base)
    return y + (mark - y.one_like()) * zsub


def level_series_progression(d, k_max, N, mode="full", order=2):
    """Yield (k, y_k) for k = 0..k_max, reusing each level for the next."""
    y = _marked_tree_series(N, mode, order, 1, (d,), k_max)
    return _marked_levels(_base_level(d, y, y.mark()), k_max)


def level_degree_series(d, k, N, mode="full", order=2):
    """The one-level marked series y_k^{(d)}(x, u) truncated at x-order N.

    mode 'full': coefficients are polynomials in u of degree at most N, the
    complete distribution.  mode 'moments': u = 1+eps nilpotent of the given
    order, carrying factorial moments E[X (X-1) ... (X-j+1)] for j <= order.
    """
    return _last(level_series_progression(d, k, N, mode, order))[1]


def two_level_series(d, k, h, N, mode="full", order=2):
    """Joint marked series for levels k and k+h.

    mode 'full': two u-variables, exact joint distributions (small n only).
    mode 'moments': two nilpotent marks of the given per-variable order
    (order 1 suffices for E[L(k) L(k+h)]).
    mode 'tightness': one nilpotent mark of order 4 with level k weighted by
    u and level k+h by 1/u, so the x^n coefficient is
    E-numerators of binomials C(L(k) - L(k+h), j), j <= 4.
    """
    return _last(two_level_series_progression(d, k, h, N, mode, order))[1]


def two_level_series_progression(d, k_max, h, N, mode="full", order=2):
    """Yield (k, y_{k,h}) for k = 0..k_max, reusing each level for the next."""
    tight = mode == "tightness"
    y = _marked_tree_series(N, "moments" if tight else mode, 4 if tight else order,
                            1 if tight else 2, (d,), k_max, h)
    mark1, mark2 = y.mark(), (y.mark(-1) if tight else y.mark(v=1))
    if h == 0:
        # both marks sit on the same level: one marking variable u1 u2
        base = _base_level(d, y, mark1 * mark2)
    else:
        prev = inner = None
        for _, s in _marked_levels(_base_level(d, y, mark2), h):
            prev, inner = inner, s
        base = _base_level(d, inner, mark1, z_base=prev)
    return _marked_levels(base, k_max)


def mixed_degree_series(d1, d2, k, N, mode="full", order=1):
    """Joint marked series for degrees d1 and d2 on the same level k.

    Base case: y + (u-1) x Z_{d1-1}(y(x), ...) + (v-1) x Z_{d2-1}(y(x), ...),
    then the usual exp recurrence.  The nilpotent mode is the independent
    cross-check of mixed_gamma_series: E[X^{(d1)} X^{(d2)}] is the (1,1)
    eps-coefficient over y_n.
    """
    if d1 == d2 or TOTAL in (d1, d2):
        raise UsageError("mixed-degree series needs two distinct degrees")
    y = _marked_tree_series(N, mode, order, 2, (d1, d2), k)
    one = y.one_like()
    base = (y + (y.mark() - one) * multiset_cap_series(d1, N, base=y)
            + (y.mark(v=1) - one) * multiset_cap_series(d2, N, base=y))
    return _last(_marked_levels(base, k))[1]


def _marked_law(series, n):
    """{mark exponent: [x^n u^e] series / y_n} over the nonzero coefficients."""
    if not 1 <= n <= series.order:
        raise UsageError("n must lie in 1..N, the series truncation order")
    yn = tree_series(series.order)[n]
    return {e: Fraction(v, yn) for e, v in series[n].items()}


def mixed_degree_moment_from_marked(n, d1, d2, k, N=None):
    """E[X^{(d1)}(k) X^{(d2)}(k)] via the nilpotent two-variable marking."""
    N = N if N is not None else n
    s = mixed_degree_series(d1, d2, k, N, mode="moments", order=1)
    return _marked_law(s, n).get((1, 1), Fraction(0))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileDistribution:
    n: int
    d: object
    k: int
    probs: dict  # count l -> exact Fraction

    def mean(self):
        return sum(l * p for l, p in self.probs.items())

    def second_factorial(self):
        return sum(l * (l - 1) * p for l, p in self.probs.items())


def exact_distribution(n, d, k, series=None, N=None):
    """P(L_n^{(d)}(k) = l) as exact rationals (probabilities sum to 1)."""
    N = N if N is not None else n
    if n > N:
        raise UsageError("n exceeds the series truncation order")
    if series is None:
        series = level_degree_series(d, k, N, mode="full")
    probs = {l: p for (l, _), p in _marked_law(series, n).items()}
    if sum(probs.values()) != 1:
        raise AssertionError("distribution does not sum to 1")
    return ProfileDistribution(n, d, k, probs)


def joint_distribution(n, d, k, h, series=None, N=None):
    """P(L(k) = l1, L(k+h) = l2) as exact rationals."""
    N = N if N is not None else n
    if n > N:
        raise UsageError("n exceeds the series truncation order")
    if series is None:
        series = two_level_series(d, k, h, N, mode="full")
    probs = _marked_law(series, n)
    if sum(probs.values()) != 1:
        raise AssertionError("joint distribution does not sum to 1")
    return probs


# ---------------------------------------------------------------------------
# derivative-recurrence route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _residue_ring(N):
    """The residue ring of the exact pass at order N, kept for later calls.

    Its bound is N^2 y_N (see the module docstring) and its primes' product
    exceeds 2^20 times that, a spare prime's worth of margin.
    """
    bound = N * N * tree_series(N)[N]
    return ResidueRing(_build_primes(N, bound << 20), bound)


def _tree_series_rings(N, ring, scale):
    """y(x) exactly and in the working ring (residues when exact), from one tree_series call."""
    if ring not in ("exact", "double"):
        raise UsageError(f"unknown ring {ring!r}")
    y = tree_series(N)
    working = DoubleRing(scale) if ring == "double" else _residue_ring(N)
    return y, TruncatedSeries(y.coeffs, N, working)


def _gamma0(d, y_exact, y):
    """gamma_0^{(d)} = x Z_{d-1}(y(x), ..., y(x^{d-1})), integer coefficients.

    For the total profile gamma_0 = y (every tree has one root at level 0).
    ``y`` is ``y_exact`` in the working ring.
    """
    if d is TOTAL:
        return y
    cs = multiset_cap_series(d, y_exact.order, base=y_exact).coeffs
    assert all(isinstance(c, int) for c in cs), "root-degree series must be integral"
    return TruncatedSeries(cs, y.order, y.ring)


_Level = namedtuple("_Level", "k g f mixed")


def _check_pass_arguments(degrees, k_max):
    if k_max < 0 or any(d is not TOTAL and d < 1 for d in degrees):
        raise UsageError("the derivative pass needs k >= 0 and degrees d >= 1")


def _derivative_levels(degrees, k_max, y_exact, y, second=False, mixed=False):
    """Yield _Level(k, g, f, mixed) for k = 0..k_max in one recurrence pass.

    g[j] is gamma_k for degrees[j]; f[j] its gamma2_k when ``second``; mixed
    is mixed_k of degrees[0] and degrees[1] when ``mixed``.  Series not asked
    for are None and cost nothing.  A node on level k needs k + 1 nodes, so
    every series has x-valuation above k: from k = N on the levels are zero
    to order N and are yielded without a series product.
    """
    _check_pass_arguments(degrees, k_max)
    N = y.order
    zero = TruncatedSeries.zero(N, y.ring)
    g = [_gamma0(d, y_exact, y) for d in degrees]
    f = [zero] * len(g) if second else None
    m = zero if mixed else None
    yield _Level(0, g, f, m)
    weights = (None, lambda i: i - 1) if second else (None,)
    for k in range(1, min(k_max, N - 1) + 1):
        sums = [gj.power_sums(weights) for gj in g]
        S = [gj + G[0] for gj, G in zip(g, sums)]
        if second:
            f = [
                y * (Sj * Sj + fj + fj.power_sums((lambda i: i,))[0] + G[1])
                for G, Sj, fj in zip(sums, S, f)
            ]
        if mixed:
            m = y * (S[0] * S[1] + m + m.power_sums((lambda i: i,))[0])
        g = [y * Sj for Sj in S]
        yield _Level(k, g, f, m)
    for k in range(N, k_max + 1):
        yield _Level(k, [zero] * len(g), [zero] * len(g) if second else None,
                     zero if mixed else None)


def gamma_series_progression(d, k_max, N, ring="exact", scale=1.0):
    """Yield (k, gamma_k^{(d)}) for k = 0..k_max."""
    for level in _derivative_levels((d,), k_max, *_tree_series_rings(N, ring, scale)):
        yield level.k, level.g[0].lift()


def gamma_series(d, k, N, ring="exact", scale=1.0):
    """First-derivative series: E L_n^{(d)}(k) = [x^n] gamma / y_n."""
    rings = _tree_series_rings(N, ring, scale)
    return _last(_derivative_levels((d,), k, *rings)).g[0].lift()


def second_factorial_series(d, k, N, ring="exact", scale=1.0):
    """Series of E[X(X-1)] numerators for X = L_n^{(d)}(k)."""
    rings = _tree_series_rings(N, ring, scale)
    return _last(_derivative_levels((d,), k, *rings, second=True)).f[0].lift()


def mixed_gamma_series(d1, d2, k, N, ring="exact", scale=1.0):
    """Series of E[X^{(d1)} X^{(d2)}] numerators (same level k), d1 != d2."""
    if d1 == d2:
        raise UsageError("mixed series needs distinct degrees; use the variance path")
    rings = _tree_series_rings(N, ring, scale)
    return _last(_derivative_levels((d1, d2), k, *rings, mixed=True)).mixed.lift()


# ---------------------------------------------------------------------------
# moments and covariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentTable:
    n: int
    d1: object
    d2: object
    k: int
    mean1: object
    mean2: object
    second_factorial1: object
    second_factorial2: object
    mixed: object
    var1: object
    var2: object
    covariance: object
    correlation: object  # float, or None when a variance vanishes


def _ratio(series, y_exact, y, n):
    """[x^n] series / y_n: a float in the double ring, else a Fraction of the
    lifted [x^n] over the exact y_n."""
    return series[n] / y[n] if isinstance(y.ring, DoubleRing) else Fraction(series[n], y_exact[n])


def level_mean(d, n, k, ring="exact", scale=1.0):
    """E L_n^{(d)}(k).  A tree of size n has height below n, so a level k >= n
    is empty and its mean is 0, found without stepping the pass."""
    y_exact, y = _tree_series_rings(n, ring, scale)
    _check_pass_arguments((d,), k)
    if k >= n:
        return 0.0 if ring == "double" else Fraction(0)
    return _ratio(_last(_derivative_levels((d,), k, y_exact, y)).g[0], y_exact, y, n)


def finite_covariance(d1, d2, n, k, ring="exact", scale=1.0):
    """Exact (or double-ring) covariance table for X^{(d1)}(k), X^{(d2)}(k).

    A level k >= n is empty, as in ``level_mean``: every entry is 0 and the
    correlation None, found without stepping the pass.
    """
    y_exact, y = _tree_series_rings(n, ring, scale)
    if k >= n:
        _check_pass_arguments((d1, d2), k)
        zero = 0.0 if ring == "double" else Fraction(0)
        return MomentTable(n, d1, d2, k, *[zero] * 8, correlation=None)
    same = d1 == d2
    level = _last(_derivative_levels(
        (d1,) if same else (d1, d2), k, y_exact, y, second=True, mixed=not same,
    ))
    m1, f1 = _ratio(level.g[0], y_exact, y, n), _ratio(level.f[0], y_exact, y, n)
    var1 = f1 + m1 - m1 * m1
    if same:
        m2, f2, var2, mixed = m1, f1, var1, f1 + m1  # E[X^2]
        cov = var1
    else:
        m2, f2 = _ratio(level.g[1], y_exact, y, n), _ratio(level.f[1], y_exact, y, n)
        var2 = f2 + m2 - m2 * m2
        mixed = _ratio(level.mixed, y_exact, y, n)
        cov = mixed - m1 * m2
    if var1 > 0 and var2 > 0:
        corr = float(cov) / sqrt(float(var1) * float(var2))
    else:
        corr = None
    return MomentTable(
        n=n, d1=d1, d2=d2, k=k,
        mean1=m1, mean2=m2,
        second_factorial1=f1, second_factorial2=f2,
        mixed=mixed, var1=var1, var2=var2,
        covariance=cov, correlation=corr,
    )


def factorial_moments_from_marked(n, d, k, order=2, N=None):
    """Factorial moments E[X^(j)] via the nilpotent marking route, j = 0..order."""
    N = N if N is not None else n
    law = _marked_law(level_degree_series(d, k, N, mode="moments", order=order), n)
    return [law.get((j, 0), Fraction(0)) * factorial(j) for j in range(order + 1)]


def mixed_moment_from_marked(n, d, k, h, N=None):
    """E[L(k) L(k+h)] via the two-variable nilpotent marking route."""
    N = N if N is not None else n
    s = two_level_series(d, k, h, N, mode="moments", order=1)
    return _marked_law(s, n).get((1, 1), Fraction(0))


_STIRLING_WEIGHTS = {1: (1,), 2: (1, 2), 3: (1, 6, 6), 4: (1, 14, 36, 24)}


def level_difference_moment(n, r, h, N=None, power=4):
    """E[(L(r) - L(r+h))^power] for power in {1,2,3,4}, exact rationals.

    L counts every node on a level (the total profile).

    Works through the u / 1/u two-level marking: the eps-coefficients are
    E[C(Delta, j)] and Delta^p = sum_j S(p,j) j! C(Delta,j) (Stirling numbers
    of the second kind; the identity is polynomial so negative Delta is fine).
    """
    if power not in _STIRLING_WEIGHTS:
        raise UsageError("power must be in 1..4")
    N = N if N is not None else n
    law = _marked_law(two_level_series(TOTAL, r, h, N, mode="tightness"), n)
    cs = [law.get((j, 0), Fraction(0)) for j in range(5)]
    weights = _STIRLING_WEIGHTS[power]
    return sum(w * cs[j + 1] for j, w in enumerate(weights))


# ---------------------------------------------------------------------------
# helpers used by the limit/Monte-Carlo comparisons
# ---------------------------------------------------------------------------

def scaled_level_mean(d, n, kappa, scale):
    """E l_n^{(d)}(kappa) = E L_n^{(d)}(floor(kappa sqrt(n))) / sqrt(n), double ring."""
    k = int(kappa * sqrt(n))
    return level_mean(d, n, k, ring="double", scale=scale) / sqrt(n)


def level_grid_for(n):
    """The (r, h) tightness grid used in acceptance runs."""
    if n < 1:
        raise UsageError(f"the tightness grid needs a size n >= 1, got {n}")
    rt = isqrt(n)
    return [0, rt, 2 * rt], [1, max(rt // 2, 1), rt]
