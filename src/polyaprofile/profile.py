"""Exact finite-n laws of the degree-restricted level profile.

Let L_n^{(d)}(k) be the number of degree-d vertices at distance k from the
root in a uniform random unlabelled rooted tree of size n (planted degrees,
root at level 0).  Two independent computation routes are implemented, and
the test suite holds them to exact rational equality:

1. Marking recurrences.  The level-k marked series is built bottom-up:

       y_0(x,u)     = y(x) + (u-1) x Z_{d-1}(y(x), ..., y(x^{d-1}))
       y_{k+1}(x,u) = x exp( sum_{i>=1} y_k(x^i, u^i) / i )

   with the total-profile variant y_0 = u y(x).  In full mode the x^n
   coefficient is the whole distribution: P(L = l) = [x^n u^l] / y_n.  In
   moments mode u = 1 + eps with eps nilpotent, which carries all
   u-derivatives at u = 1 up to a fixed order through the same recurrence.
   The two-level series marks levels k and k+h with separate variables.
   One helper lifts y for each mode, and one loop steps the levels, in one
   of two representations:

   - Laws (full mode) are a ``PointSeries``: the series at u = omega^m,
     m = 0..M-1, with omega of order M modulo primes p = 1 (mod M) and
     M = N + 1 (a ``PointRing`` per order, ``_law_ring``).  A count at x^n
     is at most n < M, so the values at the M points fix the law, and
     reading [x^n] is one inverse DFT of length M per prime and mark
     (Pollard, Math. Comp. 25, 1971).  The substitution u -> u^i sends
     point m to m i mod M, so the level step gathers points and takes one
     scalar exp per point.  A series carries M points per mark it holds:
     the first h levels of a two-level law, which hold the second mark
     only, step M points until the first mark enters, and two marks on one
     level (h = 0) are one mark u v.  A series holds P M^marks (N + 1)
     float64 residues over P primes, and a level step about five times
     that: one mark at N = 590 (47 primes) peaks at 0.72 GB of RSS and two
     marks at N = 115 (10 primes) at 0.68 GB.  Past the primes below 2^20
     (N = 990 is the first order without enough of them) a law is a
     UsageError.
   - Moments are a ``MarkedSeries`` in the eps basis (a series in x per
     power of eps), in the residue ring ``_marked_ring`` picks per order
     and caps.  Its exp steps in the mark direction, and the unmarked term
     of every level is y, so the level step reads the exp of its unmarked
     exponent, y / x, off the count table.

   Both run modulo word-size primes at every order.  Every division on the
   way is by a small int (1/i in the Polya exponent, 1/n or 1/|alpha| in
   the exp, 1/m in the cycle index, 1/M in the DFT), invertible modulo
   primes near 2^20, so the rational intermediates have residues too; only
   the [x^n] coefficients read are lifted by the CRT.  They are integers
   with known bounds, and the primes' product exceeds 2^20 times the bound
   at the order N: a law's count [x^n u^a v^b] <= y_n; in the eps basis
   [x^n eps^a] = sum over the trees of C(L, a) <= C(n, a) y_n, per mark; in
   the tightness mode, signed, with |[x^n eps^j]| <= C(n + 4, 4) y_n.
   The law of L^{(1)}(14) at n = 200 takes 2.20–3.07 s (15.2–17.4 s in
   the u basis, one x-series per power of u) and the joint law of L(3) and
   L(5) at n = 60 0.73–0.87 s (3.62–4.12 s); E(L(20) - L(40))^4 at n = 400
   takes 0.58–0.80 s (57–64 s in big integers); each the first call in a
   process with the count table built, timed alternately on a 2-CPU host.
   The eps basis over the exact ring, the big-integer route, is the test
   oracle of the moments at every order (the tests replace
   ``_marked_ring``), and the u basis, kept in the tests, is the oracle of
   the laws.

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
   level and the plain mean 1.  Each substitution sum is one
   ``TruncatedSeries.power_sum``, the ring's sum that the marked route's
   Polya exponent uses too (no Python loop over i in the array rings),
   weighted by the arrays of 1, i and i - 1 the pass builds once.

   The exact pass runs modulo word-size primes (a ``ResidueRing``): every
   series it steps has nonnegative integer coefficients, [x^m] of them at
   most m^2 y_m <= N^2 y_N, so the CRT recovers a coefficient from its
   residues once the primes' product exceeds that bound.  Only what is
   read is lifted: [x^n] of five series for a covariance table, one for a
   mean, whole series for the gamma-series readers.  The covariance table
   at (1, 2, 400, 20) takes 33 primes and 0.19–0.30 s (first call with
   the count table built, 2-CPU host, numpy 2.4).  The pass also
   runs in the rescaled double ring, for large n where exact answers are
   not needed.

   [x^m] of a series of the pass is the same at any order N >= m, to the
   bit: a product's output m is one dot product and a substitution sum
   adds each target's terms in ascending i, whatever the arrays' length;
   in the exact ring N's bound covers every smaller n.  So one pass at the
   largest n reads a list of sizes (``_levels_at``), from y and gamma_0
   converted once per (N, ring, scale): the covariance tables of
   ``limits.correlation_convergence_report`` at n = 400, 900 and 1600 take
   0.13–0.19 s in one pass, against 0.19–0.27 s in three (2-CPU host).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isfinite, isqrt, prod, sqrt

from .enumeration import multiset_cap_series, root_degree_counts, tree_series
from .errors import UsageError
from .series import DoubleRing, MarkedSeries, PointRing, PointSeries, ResidueRing, TruncatedSeries

TOTAL = None  # degree argument meaning "count every node on the level"


# ---------------------------------------------------------------------------
# marked-series route
# ---------------------------------------------------------------------------

def _last(progression):
    """The final item of a non-empty iterable."""
    for item in progression:
        pass
    return item


def _marked_tree_series(N, mode, order, marks, degrees, *levels, signed=False):
    """y(x) lifted to a marked series with ``marks`` marks, arguments checked.

    mode 'full' lifts it to a ``PointSeries``, for whole laws; mode 'moments'
    to a ``MarkedSeries`` capped at ``order`` per mark, for factorial moments
    (``signed`` for the tightness marking, whose coefficients may be
    negative), in the ring ``_marked_ring`` picks.
    """
    if min(levels) < 0 or any(d is not TOTAL and d < 1 for d in degrees):
        raise UsageError("marked series need levels k, h >= 0 and degrees d >= 1")
    if mode not in ("full", "moments"):
        raise UsageError(f"unknown mode {mode!r}")
    y = tree_series(N)
    if mode == "full":
        return PointSeries.lift(y, _law_ring(N))
    caps = (order, order if marks == 2 else 0)
    ring = _marked_ring(N, caps, signed)
    return MarkedSeries.lift(TruncatedSeries(y.coeffs, N, ring), caps)


@lru_cache(maxsize=16)
def _law_ring(N):
    """The ring of the whole laws of order N, kept for later calls: every
    [x^n u^a v^b] of a law counts trees of size n, at most y_n <= y_N."""
    return PointRing(N, tree_series(N)[N])


@lru_cache(maxsize=64)
def _marked_ring(N, caps, signed=False):
    """The residue ring of the eps-basis series of order N, kept for later calls.

    Its bound holds every [x^n] coefficient, n <= N, of the series built
    in it (see the module docstring): y_N times max_{a <= cap} C(N, a) per
    mark; C(N + cap, cap) y_N in magnitude when ``signed``.
    """
    y_N = tree_series(N)[N]
    if signed:
        bound = comb(N + caps[0], caps[0]) * y_N
    else:
        bound = y_N * prod(comb(N, min(cap, N // 2)) for cap in caps)
    return ResidueRing(N, bound, signed)


def _marked_levels(base, k_max):
    """Yield (k, y_k) for k = 0..k_max, where y_0 = base and each level is
    x exp(sum_i y_k(x^i, u^i)/i).

    In the eps basis (a ``MarkedSeries``) the unmarked term of every level
    is y (eps = 0 is u = 1), so by Polya's equation y = x exp(sum_i y(x^i)/i)
    the exp of the unmarked exponent is y / x, read from the count table of
    order N: no scalar exp runs, and the unmarked term is left out of the
    exponent (no marked term has an unmarked image).  Coefficient N of y / x
    would be y_{N+1}, which is left 0: it reaches only coefficient N of the
    exp, which the shift drops.  A ``PointSeries`` takes its exp at every
    point.
    """
    cur = base
    yield 0, cur
    y_over_x = None
    if isinstance(base, MarkedSeries):
        y_over_x = TruncatedSeries(tree_series(base.order).coeffs[1:], base.order, base.ring)
    for k in range(1, k_max + 1):
        if y_over_x is None:
            cur = cur.polya_exponent().exp().shift(1)
        else:
            cur = cur.copy_with({e: s for e, s in cur.terms.items() if any(e)})
            cur = cur.polya_exponent().exp(y_over_x).shift(1)
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


def _capped(level, N):
    """``level``, or N if it is deeper: no tree of size at most N has a level
    N or deeper, so each deeper level's series is the one at level N.  A
    negative N is left to the order check and its message."""
    return min(level, max(N, 0))


def level_series_progression(d, k_max, N, mode="full", order=2):
    """Yield (k, y_k) for k = 0..k_max, reusing each level for the next."""
    y = _marked_tree_series(N, mode, order, 1, (d,), k_max)
    return _marked_levels(_base_level(d, y, y.mark()), k_max)


def level_degree_series(d, k, N, mode="full", order=2):
    """The one-level marked series y_k^{(d)}(x, u) truncated at x-order N.

    mode 'full': a ``PointSeries``, whose [n] is the complete distribution,
    {(l, 0): count}.  mode 'moments': u = 1+eps nilpotent of the given
    order, carrying factorial moments E[X (X-1) ... (X-j+1)] for j <= order.
    A level k past N is built at N (``_capped``).
    """
    return _last(level_series_progression(d, _capped(k, N), N, mode, order))[1]


def two_level_series(d, k, h, N, mode="full", order=2):
    """Joint marked series for levels k and k+h.

    mode 'full': two marks, exact joint distributions (one mark u v when
    h = 0).
    mode 'moments': two nilpotent marks of the given per-variable order
    (order 1 suffices for E[L(k) L(k+h)]).
    mode 'tightness': one nilpotent mark of order 4 with level k weighted by
    u and level k+h by 1/u, so the x^n coefficient is
    E-numerators of binomials C(L(k) - L(k+h), j), j <= 4.
    k and h past N are built at N (``_capped``).
    """
    return _last(two_level_series_progression(
        d, _capped(k, N), _capped(h, N), N, mode, order))[1]


def two_level_series_progression(d, k_max, h, N, mode="full", order=2):
    """Yield (k, y_{k,h}) for k = 0..k_max, reusing each level for the next."""
    tight = mode == "tightness"
    y = _marked_tree_series(N, "moments" if tight else mode, 4 if tight else order,
                            1 if tight else 2, (d,), k_max, h, signed=tight)
    if h == 0 and isinstance(y, PointSeries):
        # both marks sit on the same level: a law holds u1 u2 as one mark
        y = y.on_one_level()
        return _marked_levels(_base_level(d, y, y.mark()), k_max)
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
    eps-coefficient over y_n.  A level k past N is built at N (``_capped``).
    """
    if d1 == d2 or TOTAL in (d1, d2):
        raise UsageError("mixed-degree series needs two distinct degrees")
    y = _marked_tree_series(N, mode, order, 2, (d1, d2), k)
    base = _base_level(d2, _base_level(d1, y, y.mark()), y.mark(v=1), z_base=y)
    return _last(_marked_levels(base, _capped(k, N)))[1]


def _marked_law(series, n):
    """{mark exponent: [x^n u^e] series / y_n} over the nonzero coefficients."""
    if not 1 <= n <= series.order:
        raise UsageError("n must lie in 1..N, the series truncation order")
    yn = tree_series(series.order)[n]
    return {e: Fraction(v, yn) for e, v in series[n].items()}


def mixed_degree_moment_from_marked(n, d1, d2, k):
    """E[X^{(d1)}(k) X^{(d2)}(k)] via the nilpotent two-variable marking."""
    s = mixed_degree_series(d1, d2, k, n, mode="moments", order=1)
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


def exact_distribution(n, d, k, series=None):
    """P(L_n^{(d)}(k) = l) as exact rationals (probabilities sum to 1), read
    from ``series`` (of any order N >= n) or from the level-k series at n."""
    if series is None:
        series = level_degree_series(d, k, n, mode="full")
    probs = {l: p for (l, _), p in _marked_law(series, n).items()}
    if sum(probs.values()) != 1:
        raise AssertionError("distribution does not sum to 1")
    return ProfileDistribution(n, d, k, probs)


def joint_distribution(n, d, k, h, series=None):
    """P(L(k) = l1, L(k+h) = l2) as exact rationals; ``series`` as in
    ``exact_distribution``."""
    if series is None:
        series = two_level_series(d, k, h, n, mode="full")
    probs = _marked_law(series, n)
    if sum(probs.values()) != 1:
        raise AssertionError("joint distribution does not sum to 1")
    return probs


# ---------------------------------------------------------------------------
# derivative-recurrence route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _residue_ring(N):
    """The residue ring of the exact pass at order N, of bound N^2 y_N (see
    the module docstring), kept for later calls."""
    return ResidueRing(N, N * N * tree_series(N)[N])


@lru_cache(maxsize=4)
def _tree_series_rings(N, ring, scale):
    """y(x) exactly and in the working ring (residues when exact), kept for
    later passes; ``scale`` is the double ring's float (the ring is
    unhashable).  A residue y takes about 1.7 MB at N = 1600: few are kept."""
    if ring not in ("exact", "double"):
        raise UsageError(f"unknown ring {ring!r}")
    y = tree_series(N)
    working = DoubleRing(scale) if ring == "double" else _residue_ring(N)
    return y, TruncatedSeries(y.coeffs, N, working)


@lru_cache(maxsize=16)
def _gamma0(d, N, ring, scale):
    """gamma_0^{(d)} = x Z_{d-1}(y(x), ..., y(x^{d-1})) in the working ring,
    kept like y; for the total profile gamma_0 = y (every tree has one root
    at level 0)."""
    y = _tree_series_rings(N, ring, scale)[1]
    if d is TOTAL:
        return y
    return TruncatedSeries(root_degree_counts(d, N), N, y.ring)


_Level = namedtuple("_Level", "k g f mixed")


def _derivative_levels(degrees, k_max, key, second=False, mixed=False):
    """Yield _Level(k, g, f, mixed) for k = 0..k_max < N in one recurrence
    pass, ``key`` = (N, ring, scale) as ``_tree_series_rings`` takes it.

    g[j] is gamma_k for degrees[j]; f[j] its gamma2_k when ``second``; mixed
    is mixed_k of degrees[0] and degrees[1] when ``mixed``.  Series not asked
    for are None and cost nothing.
    """
    N, y = key[0], _tree_series_rings(*key)[1]
    g = [_gamma0(d, *key) for d in degrees]
    zero = _zero_level(0, degrees, y, second, mixed)
    f, m = zero.f, zero.mixed
    yield _Level(0, g, f, m)
    # the weights 1, i and i - 1 of the substitution sums, over i = 0..N
    ones, by_i, by_i_less_one = map(y.ring.weights, ([1] * (N + 1), range(N + 1), range(-1, N)))
    for k in range(1, k_max + 1):
        S = [gj + gj.power_sum(ones) for gj in g]
        if second:
            f = [y * (Sj * Sj + fj + fj.power_sum(by_i) + gj.power_sum(by_i_less_one))
                 for gj, Sj, fj in zip(g, S, f)]
        if mixed:
            m = y * (S[0] * S[1] + m + m.power_sum(by_i))
        g = [y * Sj for Sj in S]
        yield _Level(k, g, f, m)


def _zero_level(k, degrees, y, second, mixed):
    """The _Level at k of a pass whose every series asked for is zero."""
    zero = TruncatedSeries.zero(y.order, y.ring)
    zeros = [zero] * len(degrees)
    return _Level(k, zeros, zeros if second else None, zero if mixed else None)


def _levels_at(degrees, reads, ring, scale, second=False, mixed=False):
    """(y exactly, y in the working ring, the _Level of each (n, k) read) of
    one pass at N, the largest n (see the module docstring), stepped up to
    the largest k below its n.  A node on level k needs k + 1 nodes, so a
    read with k >= n is the zero level and steps nothing.
    """
    if min(k for _, k in reads) < 0 or any(d is not TOTAL and d < 1 for d in degrees):
        raise UsageError("the derivative pass needs k >= 0 and degrees d >= 1")
    N = max(n for n, _ in reads)
    key = (N, ring, float(scale) if ring == "double" else 1.0)
    y_exact, y = _tree_series_rings(*key)
    stepped = {k for n, k in reads if k < n}
    steps = _derivative_levels(degrees, max(stepped), key, second, mixed) if stepped else ()
    levels = {level.k: level for level in steps if level.k in stepped}
    return y_exact, y, [levels[k] if k < n else _zero_level(k, degrees, y, second, mixed)
                        for n, k in reads]


def gamma_series_progression(d, k_max, N, ring="exact", scale=1.0):
    """Yield (k, gamma_k^{(d)}) for k = 0..k_max."""
    for level in _levels_at((d,), [(N, k) for k in range(k_max + 1)], ring, scale)[2]:
        yield level.k, level.g[0].lift()


def gamma_series(d, k, N, ring="exact", scale=1.0):
    """First-derivative series: E L_n^{(d)}(k) = [x^n] gamma / y_n."""
    return _levels_at((d,), [(N, k)], ring, scale)[2][0].g[0].lift()


def second_factorial_series(d, k, N, ring="exact", scale=1.0):
    """Series of E[X(X-1)] numerators for X = L_n^{(d)}(k)."""
    return _levels_at((d,), [(N, k)], ring, scale, second=True)[2][0].f[0].lift()


def mixed_gamma_series(d1, d2, k, N, ring="exact", scale=1.0):
    """Series of E[X^{(d1)} X^{(d2)}] numerators (same level k), d1 != d2."""
    if d1 == d2:
        raise UsageError("mixed series needs distinct degrees; use the variance path")
    return _levels_at((d1, d2), [(N, k)], ring, scale, mixed=True)[2][0].mixed.lift()


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


def level_means(d, reads, ring="exact", scale=1.0):
    """E L_n^{(d)}(k) for each (n, k) read, from one pass (``_levels_at``);
    0 for a level k >= n, which no tree of size n reaches."""
    y_exact, y, levels = _levels_at((d,), reads, ring, scale)
    return [_ratio(level.g[0], y_exact, y, n) for (n, _), level in zip(reads, levels)]


def level_mean(d, n, k, ring="exact", scale=1.0):
    """E L_n^{(d)}(k), the one read of ``level_means``."""
    return level_means(d, [(n, k)], ring, scale)[0]


def finite_covariances(d1, d2, reads, ring="exact", scale=1.0):
    """Exact (or double-ring) covariance tables for X^{(d1)}(k), X^{(d2)}(k),
    one per (n, k) read, from one pass (``_levels_at``).

    At a level k >= n every entry is 0 and the correlation None.
    """
    same = d1 == d2
    y_exact, y, levels = _levels_at(
        (d1,) if same else (d1, d2), reads, ring, scale, second=True, mixed=not same)
    return [_moment_table(d1, d2, n, k, level, lambda s, n=n: _ratio(s, y_exact, y, n))
            for (n, k), level in zip(reads, levels)]


def finite_covariance(d1, d2, n, k, ring="exact", scale=1.0):
    """The covariance table at size n and level k, the one read of ``finite_covariances``."""
    return finite_covariances(d1, d2, [(n, k)], ring, scale)[0]


def _moment_table(d1, d2, n, k, level, ratio):
    """The MomentTable of a covariance pass's level, read at n by ``ratio``."""
    m1, f1 = ratio(level.g[0]), ratio(level.f[0])
    var1 = f1 + m1 - m1 * m1
    if d1 == d2:
        m2, f2, var2, mixed = m1, f1, var1, f1 + m1  # E[X^2]
        cov = var1
    else:
        m2, f2 = ratio(level.g[1]), ratio(level.f[1])
        var2 = f2 + m2 - m2 * m2
        mixed = ratio(level.mixed)
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


def factorial_moments_from_marked(n, d, k, order=2):
    """Factorial moments E[X^(j)] via the nilpotent marking route, j = 0..order."""
    law = _marked_law(level_degree_series(d, k, n, mode="moments", order=order), n)
    return [law.get((j, 0), Fraction(0)) * factorial(j) for j in range(order + 1)]


def mixed_moment_from_marked(n, d, k, h):
    """E[L(k) L(k+h)] via the two-variable nilpotent marking route."""
    s = two_level_series(d, k, h, n, mode="moments", order=1)
    return _marked_law(s, n).get((1, 1), Fraction(0))


_STIRLING_WEIGHTS = {1: (1,), 2: (1, 2), 3: (1, 6, 6), 4: (1, 14, 36, 24)}


def level_difference_moment(n, r, h, power=4):
    """E[(L(r) - L(r+h))^power] for power in {1,2,3,4}, exact rationals.

    L counts every node on a level (the total profile).

    Works through the u / 1/u two-level marking: the eps-coefficients are
    E[C(Delta, j)] and Delta^p = sum_j S(p,j) j! C(Delta,j) (Stirling numbers
    of the second kind; the identity is polynomial so negative Delta is fine).
    """
    if power not in _STIRLING_WEIGHTS:
        raise UsageError("power must be in 1..4")
    law = _marked_law(two_level_series(TOTAL, r, h, n, mode="tightness"), n)
    cs = [law.get((j, 0), Fraction(0)) for j in range(5)]
    weights = _STIRLING_WEIGHTS[power]
    return sum(w * cs[j + 1] for j, w in enumerate(weights))


# ---------------------------------------------------------------------------
# helpers used by the limit/Monte-Carlo comparisons
# ---------------------------------------------------------------------------

def level_of(kappa, n):
    """The level floor(kappa sqrt(n)) that l_n^{(d)}(kappa) reads."""
    level = kappa * sqrt(n)
    if not isfinite(level):
        raise UsageError(f"the level kappa*sqrt(n) passes the float range at kappa={kappa}, n={n}")
    return int(level)


def scaled_level_mean(d, n, kappa, scale):
    """E l_n^{(d)}(kappa) = E L_n^{(d)}(floor(kappa sqrt(n))) / sqrt(n), double ring."""
    return level_mean(d, n, level_of(kappa, n), ring="double", scale=scale) / sqrt(n)


def level_grid_for(n):
    """The (r, h) tightness grid used in acceptance runs."""
    if n < 1:
        raise UsageError(f"the tightness grid needs a size n >= 1, got {n}")
    rt = isqrt(n)
    return (0, rt, 2 * rt), (1, max(rt // 2, 1), rt)
